"""Seminormal action and sparse vector-valued polynomial arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest

from nsjack.combinatorics import Rsyt, enumerate_rsyt, transposition
from nsjack.ratfunc import KAPPA, RatFunc
from nsjack.vectorpoly import (
    ShapeMismatch,
    VectorPoly,
    group_action,
    tau_context,
)

from oracles import monomial, seminormal_fractions, tau_action

SHAPES = [(2, 2), (3, 1), (2, 1, 1), (4, 4), (2, 2, 2, 2), (3, 1, 1), (1, 1, 1, 1)]


def full_matrix(ctx, w):
    record = ctx.matrix(w)
    out = [[Fraction(0)] * ctx.dim for _ in range(ctx.dim)]
    for col, entries in enumerate(record.columns):
        for row, c in entries:
            out[row][col] = Fraction(c, record.d)
    return out


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def test_tau_simple_reflection_golden():
    ctx = tau_context((2, 2))
    t = ctx.index_of(Rsyt([[4, 3], [2, 1]]))
    # entries 1,2 share a row: eigenvector +1
    assert tau_action(transposition(4, 1, 2), t, (2, 2)) == {t: Fraction(1)}
    t2 = ctx.index_of(Rsyt([[4, 2], [3, 1]]))
    # entries 1,2 share a column: eigenvector -1
    assert tau_action(transposition(4, 1, 2), t2, (2, 2)) == {t2: Fraction(-1)}
    # entries 2,3 in different row and column: two-term rule with b = -1/2
    image = tau_action(transposition(4, 2, 3), t, (2, 2))
    assert image == {t: Fraction(-1, 2), t2: Fraction(3, 4)}


def test_integer_matrices_match_a_fraction_composition():
    # every transposition and 20 seeded permutations per shape: the integer
    # columns over d equal the Fraction composition, d is least, and the
    # norm is the largest column 1-norm; (3,3,3) adds its 36 transpositions,
    # built by conjugation chains up to 7 deep (its random permutations
    # would cost 1.5 s of Fraction composition)
    rng = random.Random(0)
    for shape in SHAPES + [(3, 3, 3)]:
        ctx = tau_context(shape)
        n = ctx.n
        perms = [
            transposition(n, i, j) for i in range(1, n) for j in range(i + 1, n + 1)
        ]
        trials = 20 if shape in SHAPES else 0
        perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(trials)]
        for w in perms:
            record = ctx.matrix(w)
            got = [{r: Fraction(c, record.d) for r, c in col} for col in record.columns]
            assert got == seminormal_fractions(shape, w), (shape, w)
            assert gcd(record.d, *(c for col in record.columns for _, c in col)) == 1
            assert record.norm == max(
                sum(abs(c) for _, c in col) for col in record.columns
            )


def test_transposition_denominator_at_six_rows():
    assert tau_context((2, 2, 2, 2, 2, 2)).denominator == 4199040000


def test_tau_squares_to_identity():
    for shape in SHAPES:
        ctx = tau_context(shape)
        n = sum(shape)
        for i in range(1, n):
            m = full_matrix(ctx, transposition(n, i, i + 1))
            assert mat_mul(m, m) == identity(ctx.dim), (shape, i)


def test_tau_braid_relations():
    for shape in SHAPES:
        ctx = tau_context(shape)
        n = sum(shape)
        for i in range(1, n - 1):
            a = full_matrix(ctx, transposition(n, i, i + 1))
            b = full_matrix(ctx, transposition(n, i + 1, i + 2))
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)
        for i in range(1, n - 2):
            a = full_matrix(ctx, transposition(n, i, i + 1))
            c = full_matrix(ctx, transposition(n, i + 2, i + 3))
            assert mat_mul(a, c) == mat_mul(c, a)


def test_jucys_murphy_content_eigenvalue():
    # sum of tau((i,j)) over j > i acts diagonally with content eigenvalues
    for shape in SHAPES:
        ctx = tau_context(shape)
        n = sum(shape)
        for i in range(1, n + 1):
            total = [[Fraction(0)] * ctx.dim for _ in range(ctx.dim)]
            for j in range(i + 1, n + 1):
                m = full_matrix(ctx, transposition(n, i, j))
                total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, m)]
            for t, tab in enumerate(ctx.tableaux):
                for row in range(ctx.dim):
                    expected = Fraction(tab.content(i)) if row == t else Fraction(0)
                    assert total[row][t] == expected


def test_tau_is_homomorphism_on_random_pairs():
    rng = random.Random(7)
    ctx = tau_context((3, 1, 1))
    n = 5
    for _ in range(25):
        w1 = tuple(rng.sample(range(1, n + 1), n))
        w2 = tuple(rng.sample(range(1, n + 1), n))
        w12 = tuple(w1[w2[i] - 1] for i in range(n))
        assert full_matrix(ctx, w12) == mat_mul(
            full_matrix(ctx, w1), full_matrix(ctx, w2)
        )


def random_poly(rng, shape, deg, nterms, generic=True):
    n = sum(shape)
    dim = len(enumerate_rsyt(shape))
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        tab = rng.randrange(dim)
        if generic:
            coeff = RatFunc.from_int(rng.randint(-3, 3)) + KAPPA * rng.randint(-2, 2)
        else:
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            terms[(exp, tab)] = coeff
    return VectorPoly(shape, terms)


def test_group_action_composition_law():
    rng = random.Random(11)
    shape = (2, 1, 1)
    n = 4
    for _ in range(20):
        p = random_poly(rng, shape, 2, 4)
        w1 = tuple(rng.sample(range(1, n + 1), n))
        w2 = tuple(rng.sample(range(1, n + 1), n))
        w12 = tuple(w1[w2[i] - 1] for i in range(n))
        assert group_action(w1, group_action(w2, p)) == group_action(w12, p)


def test_group_action_monomial_examples():
    shape = (2, 2)
    p = monomial(shape, (1, 0, 0, 0), 0)
    ident = (1, 2, 3, 4)
    assert group_action(ident, p) == p
    s1 = transposition(4, 1, 2)
    moved = group_action(s1, p)
    assert moved.monomial_support() == {(0, 1, 0, 0)}


def test_group_action_rejects_non_permutations():
    # a repeated entry, an entry outside 1..n, one variable too many and
    # too few: each is a ValueError, not a wrong polynomial or an IndexError
    p = monomial((2, 2), (1, 0, 2, 0), 0, Fraction(1))
    for w in [(1, 1, 3, 4), (0, 1, 2, 3), (2, 1, 3, 4, 5), (2, 1)]:
        with pytest.raises(ValueError, match="not a permutation of 1..4"):
            group_action(w, p)
        with pytest.raises(ValueError, match="not a permutation of 1..4"):
            group_action([(1, 2, 3, 4), w], p)


def test_arithmetic_and_shape_guards():
    shape = (2, 2)
    p = monomial(shape, (0, 1, 0, 0), 1)
    assert (p + p.scale(RatFunc.from_int(-1))).is_zero()
    shifted = p.mul_monomial((1, 0, 0, 0))
    assert shifted.monomial_support() == {(1, 1, 0, 0)}
    q = monomial((3, 1), (0, 0, 0, 1), 0)
    with pytest.raises(ShapeMismatch):
        p + q
    with pytest.raises(ShapeMismatch):
        VectorPoly(shape, {((1, 0), 0): RatFunc.from_int(1)})


def test_scale_then_specialize():
    shape = (2, 2)
    p = monomial(shape, (1, 1, 0, 0), 0).scale(KAPPA)
    value = p.map_coefficients(lambda c: c.evaluate(Fraction(1, 4)))
    assert value.terms[((1, 1, 0, 0), 0)] == Fraction(1, 4)


def test_json_round_trip_generic_and_specialized():
    shape = (3, 1)
    p = VectorPoly(
        shape,
        {
            ((2, 0, 0, 0), 0): KAPPA + 1,
            ((0, 1, 1, 0), 2): RatFunc((1,), (0, 1)),
        },
    )
    assert VectorPoly.from_json(p.to_json()) == p
    q = p.map_coefficients(lambda c: c.evaluate(Fraction(1, 3)))
    assert VectorPoly.from_json(q.to_json()) == q
    assert VectorPoly.from_json(p.to_json(), shape=shape) == p
