"""Combinatorial layer: orders, tableaux, reduction, bricks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsjack.combinatorics import (
    BadShapeParams,
    ColumnStrictTableau,
    NoSuchTableau,
    Rsyt,
    _composition_pool,
    apply_permissible_step,
    compositions_strictly_below,
    enumerate_rsyt,
    inv_statistic,
    is_permissible_step,
    max_inv_source,
    multiset_permutations,
    rank_permutation,
    rsyt_from_contents,
    sort_descending,
)

from nsjack.singular import brick_pairs

from oracles import (
    Comparison,
    NotReducible,
    brick_stack_target,
    catalan,
    compare_order,
    compositions_of_degree,
    compositions_strictly_below_by_order,
    distinguished_tableaux,
    enumerate_one_swap_class,
    hook_length_count,
    layer_composition,
    perm_apply_to_composition,
    reduce_by_permissible_steps,
    swapped_inv_max,
)

# -- independent oracles -----------------------------------------------------


def brute_force_rsyt_count(shape):
    """Backtracking fill of all bijective fillings, pruned by the strictly
    decreasing row/column predicate."""
    shape = tuple(shape)
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    n = len(cells)
    rows = [[0] * ln for ln in shape]
    count = 0

    def fill(pos, used):
        nonlocal count
        if pos == n:
            count += 1
            return
        r, c = cells[pos]
        for v in range(1, n + 1):
            if used & (1 << v):
                continue
            if c > 0 and rows[r][c - 1] <= v:
                continue
            if r > 0 and rows[r - 1][c] <= v:
                continue
            rows[r][c] = v
            fill(pos + 1, used | (1 << v))
        rows[r][c] = 0

    fill(0, 0)
    return count


def all_partitions(n, max_len=None):
    max_len = max_len or n

    def rec(total, bound, left):
        if total == 0:
            yield ()
            return
        if left == 0:
            return
        for part in range(min(bound, total), 0, -1):
            for rest in rec(total - part, part, left - 1):
                yield (part,) + rest

    yield from rec(n, n, max_len)


compositions_st = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
)


# -- rank function -----------------------------------------------------------


def test_rank_permutation_examples():
    assert rank_permutation((1, 2, 1, 5, 4)) == (4, 3, 5, 1, 2)
    assert rank_permutation((0, 0, 0)) == (1, 2, 3)
    assert rank_permutation((5, 4, 2, 1, 1)) == (1, 2, 3, 4, 5)


@given(compositions_st)
def test_rank_sorts_descending(alpha):
    r = rank_permutation(alpha)
    assert perm_apply_to_composition(r, alpha) == sort_descending(alpha)
    assert (r == tuple(range(1, len(alpha) + 1))) == (
        alpha == sort_descending(alpha)
    )


def test_rank_permutation_matches_the_defining_count():
    # r(i) = #{j: a_j > a_i} + #{j <= i: a_j = a_i}, counted directly, on
    # seeded compositions with many ties (parts 0..3, up to 12 entries)
    rng = random.Random(4)
    for _ in range(500):
        alpha = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 12)))
        count = tuple(
            sum(1 for b in alpha if b > a) + sum(1 for b in alpha[: i + 1] if b == a)
            for i, a in enumerate(alpha)
        )
        assert rank_permutation(alpha) == count, alpha


# -- composition order -------------------------------------------------------


def test_compare_order_examples():
    a, b = (1, 1, 2, 1, 0), (1, 1, 1, 2, 0)
    # equal rearrangements; prefix sums of b are dominated by those of a
    assert compare_order(b, a) is Comparison.LESS
    assert compare_order(a, b) is Comparison.GREATER
    assert compare_order(a, a) is Comparison.EQUAL
    assert compare_order((1, 1), (2, 0)) is Comparison.LESS
    assert compare_order((1, 0), (0, 0)) is Comparison.INCOMPARABLE


@settings(max_examples=300)
@given(compositions_st, st.data())
def test_compare_order_is_strict_partial_order(alpha, data):
    n = len(alpha)
    beta = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    gamma = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    # irreflexive / antisymmetric
    assert compare_order(alpha, alpha) is Comparison.EQUAL
    ab = compare_order(alpha, beta)
    ba = compare_order(beta, alpha)
    if ab is Comparison.LESS:
        assert ba is Comparison.GREATER
    # transitive
    bc = compare_order(beta, gamma)
    if ab is Comparison.LESS and bc is Comparison.LESS:
        assert compare_order(alpha, gamma) is Comparison.LESS


def test_compositions_strictly_below():
    below = compositions_strictly_below((1, 1, 0, 0))
    assert (1, 1, 0, 0) not in below
    assert set(below) == {
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    }
    # degree-preserving and all strictly below
    for g in compositions_strictly_below((3, 2, 0, 0, 0)):
        assert sum(g) == 5
        assert compare_order(g, (3, 2, 0, 0, 0)) is Comparison.LESS


def test_compositions_strictly_below_matches_the_order():
    # only rearrangements of alpha's own partition take the prefix-sum test;
    # the definition compares every member of the pool with compare_order
    labels = [
        pair.beta
        for m, k in [(1, 2), (1, 3), (2, 2), (1, 4)]
        for pair in brick_pairs(m, k)
    ]
    rng = random.Random(5)
    for _ in range(300):
        alpha = [0] * rng.randint(1, 6)
        for _ in range(rng.randint(0, 6)):
            alpha[rng.randrange(len(alpha))] += 1
        labels.append(tuple(alpha))
    for alpha in labels:
        below = compositions_strictly_below(alpha)
        assert below == compositions_strictly_below_by_order(alpha), alpha


def test_composition_pool_matches_its_definition():
    # the pool of lam is every composition of |lam| with len(lam) parts whose
    # sorted form is at or below lam, each once; the definition enumerates
    # all compositions of that degree and asks compare_order
    lams = [
        sort_descending(brick_pairs(m, k)[0].beta)
        for m, k in [(1, 2), (1, 3), (2, 2), (1, 4)]
    ]
    rng = random.Random(19)
    for _ in range(300):
        lam = [0] * rng.randint(1, 7)
        for _ in range(rng.randint(0, 8)):
            lam[rng.randrange(len(lam))] += 1
        lams.append(sort_descending(lam))
    for lam in lams:
        pool = _composition_pool(lam)
        assert len(pool) == len(set(pool)), lam
        assert set(pool) == {
            g
            for g in compositions_of_degree(sum(lam), len(lam))
            if compare_order(sort_descending(g), lam)
            in (Comparison.LESS, Comparison.EQUAL)
        }, lam


def test_multiset_permutations_count():
    perms = multiset_permutations((1, 1, 0, 0))
    assert len(perms) == 6 == len(set(perms))


# -- RSYT enumeration and contents -------------------------------------------


def test_enumeration_counts_catalan():
    assert len(enumerate_rsyt((2, 2))) == 2 == catalan(2)
    assert len(enumerate_rsyt((1,))) == 1
    assert len(enumerate_rsyt((4, 4))) == 14 == catalan(4)
    assert len(enumerate_rsyt((3, 3))) == 5 == catalan(3)


def test_enumeration_matches_hook_lengths_and_brute_force():
    for n in range(1, 11):
        for shape in all_partitions(n):
            got = len(enumerate_rsyt(shape))
            assert got == hook_length_count(shape), shape
    for n in range(1, 8):
        for shape in all_partitions(n):
            assert len(enumerate_rsyt(shape)) == brute_force_rsyt_count(shape)


def test_enumeration_is_sorted_and_duplicate_free():
    for shape in [(2, 2), (3, 3), (4, 4), (3, 1, 1), (2, 2, 2, 2)]:
        tabs = enumerate_rsyt(shape)
        cvs = [t.content_vector() for t in tabs]
        assert cvs == sorted(cvs, reverse=True)
        assert len(set(cvs)) == len(cvs)


def test_content_vector_examples():
    t0 = Rsyt([[12, 10, 8], [11, 9, 7], [6, 4, 2], [5, 3, 1]])
    assert t0.content_vector() == (-1, 0, -2, -1, -3, -2, 1, 2, 0, 1, -1, 0)
    assert Rsyt([[1]]).content_vector() == (0,)
    tprime = Rsyt([[5, 3, 2], [4], [1]])
    assert tprime.content_vector() == (-2, 2, 1, -1, 0)


def test_rsyt_from_contents_round_trip():
    t0 = brick_stack_target(3, 2)
    assert rsyt_from_contents(t0.content_vector()) == t0
    assert rsyt_from_contents((0,)) == Rsyt([[1]])
    assert rsyt_from_contents((-2, -1, 2, 1, 0)) == Rsyt([[5, 4, 3], [2], [1]])
    for n in range(1, 11):
        for shape in all_partitions(n):
            for t in enumerate_rsyt(shape):
                assert rsyt_from_contents(t.content_vector()) == t


def test_rsyt_from_contents_rejects_garbage():
    with pytest.raises(NoSuchTableau):
        rsyt_from_contents((1,))
    with pytest.raises(NoSuchTableau):
        rsyt_from_contents((0, 0))


def test_rsyt_validation():
    with pytest.raises(ValueError):
        Rsyt([[3, 4], [2, 1]])
    with pytest.raises(ValueError):
        Rsyt([[3, 2], [4, 1]])
    with pytest.raises(ValueError):
        ColumnStrictTableau([[2, 4], [3, 1]])
    # column-strict accepts a row inversion
    ColumnStrictTableau([[3, 4], [2, 1]])
    ColumnStrictTableau([[8, 6, 7, 3], [5, 4, 2, 1]])


# -- inv statistic and permissible steps --------------------------------------


def test_inv_examples():
    assert inv_statistic(max_inv_source(2, 2)) == 6  # C(4,2)
    assert inv_statistic(max_inv_source(3, 2)) == 15  # C(6,2)
    assert inv_statistic(Rsyt([[3, 2, 1]])) == 0
    assert inv_statistic(swapped_inv_max(6, 1, 3)) == 14  # C(6,2)-1
    assert inv_statistic(swapped_inv_max(6, 2, 2)) == 14


def test_swapped_inv_max_printed_examples():
    assert swapped_inv_max(6, 1, 3).rows == (
        (12, 10, 7, 8, 4, 2),
        (11, 9, 6, 5, 3, 1),
    )
    assert swapped_inv_max(6, 2, 2).rows == (
        (12, 10, 9, 6, 4, 2),
        (11, 7, 8, 5, 3, 1),
    )


def test_permissible_step_raises_inv_and_preserves_class():
    for t in enumerate_rsyt((4, 4)):
        for i in range(1, 8):
            if is_permissible_step(t, i):
                t2 = apply_permissible_step(t, i)
                assert isinstance(t2, Rsyt)
                assert inv_statistic(t2) == inv_statistic(t) + 1
    for t in enumerate_one_swap_class(4, 1, 2):
        for i in range(1, 8):
            if is_permissible_step(t, i):
                t2 = apply_permissible_step(t, i)
                assert inv_statistic(t2) == inv_statistic(t) + 1


def test_reduce_worked_example():
    s = ColumnStrictTableau([[8, 6, 7, 3], [5, 4, 2, 1]])
    assert reduce_by_permissible_steps(s) == [5, 6, 2]


def test_reduce_already_maximal():
    assert reduce_by_permissible_steps(max_inv_source(2, 2)) == []


def test_reduce_all_rsyt_lengths():
    # every RSYT of (4,4) reaches the column filling in C(4,2)-inv steps
    for t in enumerate_rsyt((4, 4)):
        steps = reduce_by_permissible_steps(t)
        assert len(steps) == 6 - inv_statistic(t)
    for t in enumerate_rsyt((6, 6)):
        steps = reduce_by_permissible_steps(t)
        assert len(steps) == 15 - inv_statistic(t)


def test_reduce_one_swap_classes():
    for num_cols, j, n in [(4, 1, 2), (4, 2, 2), (6, 1, 3), (6, 2, 2), (6, 2, 4)]:
        target_inv = inv_statistic(swapped_inv_max(num_cols, j, n))
        for t in enumerate_one_swap_class(num_cols, j, n):
            steps = reduce_by_permissible_steps(t)
            assert len(steps) == target_inv - inv_statistic(t)


def test_reduce_rejects_other_shapes():
    with pytest.raises(NotReducible):
        reduce_by_permissible_steps(Rsyt([[4, 3], [2], [1]]))


# -- distinguished tableaux and bricks ----------------------------------------


def test_brick_stack_printed_example():
    assert brick_stack_target(3, 2).rows == (
        (12, 10, 8),
        (11, 9, 7),
        (6, 4, 2),
        (5, 3, 1),
    )


def test_layer_composition():
    assert layer_composition(1, 2) == (1, 1, 0, 0)
    assert layer_composition(3, 2) == (1,) * 6 + (0,) * 6
    assert layer_composition(2, 3) == (2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0)


def test_distinguished_bundle():
    d = distinguished_tableaux(2, 2)
    assert d.source_max.rows == ((8, 6, 4, 2), (7, 5, 3, 1))
    assert set(d.swapped) == {(1, 2), (2, 2)}
    with pytest.raises(BadShapeParams):
        distinguished_tableaux(0, 2)
    with pytest.raises(BadShapeParams):
        distinguished_tableaux(1, 1)


def test_brick_entry_ranges_in_stack():
    # every entry of the standard stack lies in the brick of its layer value:
    # the bricks are stacked 2 x m blocks, so row r is in brick (r - 1) // 2
    for m, k in [(1, 2), (2, 2), (3, 3)]:
        t0 = brick_stack_target(m, k)
        lam = layer_composition(m, k)
        for entry in range(1, 2 * m * k + 1):
            row, _ = t0.cell(entry)
            assert (row - 1) // 2 == lam[entry - 1]
