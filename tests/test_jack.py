"""The projection constructor: triangularity, eigen equations, oracles,
transformation rules, specialization."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from nsjack.combinatorics import (
    Rsyt,
    enumerate_rsyt,
    max_inv_source,
    rsyt_from_contents,
)
from nsjack.jack import (
    ColumnTable,
    JackPolynomial,
    ZeroDenominator,
    b_value,
    construct_jack,
    reflection_rule,
    spectral_pairs,
    spectral_vector,
    spectral_vector_at,
    specialize,
    verify_eigen_equations,
)
from nsjack.operators import cherednik_prime, dunkl
from nsjack.ratfunc import KAPPA, PoleAtKappa, RatFunc, clear_denominators
from nsjack.singular import brick_map, family_context
from nsjack.vectorpoly import VectorPoly, leading_vector, tau_context

from oracles import (
    Comparison,
    ReflectionCase,
    apply_simple_reflection,
    brick_stack_target,
    compare_order,
    eigensolve_jack,
    exponent_code,
    layer_composition,
    monomial,
    verify_eigen_equations_ratfunc,
)


def naive_projection(alpha, tableau):
    """Reference projection built directly from the generic operators; same
    mathematical operator as construct_jack, entirely different data path."""
    from nsjack.combinatorics import compositions_strictly_below, rank_permutation

    ctx = tau_context(tableau.shape)
    target = spectral_pairs(alpha, tableau)
    seen = set()
    poly = leading_vector(alpha, tableau)
    for gamma in compositions_strictly_below(alpha):
        r = rank_permutation(gamma)
        for tab in ctx.tableaux:
            pairs = tuple(
                (gamma[i], tab.content(r[i])) for i in range(len(alpha))
            )
            i = next(i for i in range(len(alpha)) if pairs[i] != target[i])
            if (i, pairs[i]) in seen:
                continue
            seen.add((i, pairs[i]))
            a, c = pairs[i]
            v = RatFunc.kappa_inverse() * a + c
            z = RatFunc.kappa_inverse() * target[i][0] + target[i][1]
            gap = (z - v).inverse()
            poly = (cherednik_prime(i + 1, poly) - poly.scale(v)).scale(gap)
    return poly


def test_empty_label_is_constant():
    t = enumerate_rsyt((2, 2))[0]
    j = construct_jack((0, 0, 0, 0), t)
    assert j.poly == monomial((2, 2), (0, 0, 0, 0), 0)


def test_spectral_vector_examples():
    # partition label at the matched parameter reproduces the source contents
    for m, k in [(1, 2), (2, 2), (3, 2)]:
        lam = layer_composition(m, k)
        t0 = brick_stack_target(m, k)
        s0 = max_inv_source(m, k)
        kappa0 = Fraction(1, m + 2)
        assert spectral_vector_at(lam, t0, kappa0) == tuple(
            map(Fraction, s0.content_vector())
        )
    # zero label: plain contents
    t = enumerate_rsyt((3, 1))[0]
    assert spectral_vector((0,) * 4, t) == tuple(
        RatFunc.from_int(c) for c in t.content_vector()
    )


def test_spectral_entry_golden_m3k3():
    beta = (2, 2, 2, 2, 1, 2, 2, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0)
    t = Rsyt(
        [
            [18, 17, 14],
            [16, 15, 13],
            [12, 10, 8],
            [11, 9, 7],
            [6, 5, 3],
            [4, 2, 1],
        ]
    )
    assert spectral_vector_at(beta, t, Fraction(1, 5))[9] == 4


def test_b_value_examples():
    # same row: b = 1 identically; same column: b = -1
    t = Rsyt([[4, 3], [2, 1]])
    assert b_value((1, 1, 0, 0), t, 3) == RatFunc.from_int(1)  # entries 3,4 same row
    t2 = Rsyt([[4, 2], [3, 1]])
    assert b_value((0, 0, 1, 1), t2, 1) == RatFunc.from_int(-1)  # entries 1,2 same col
    # two-layer golden: reciprocal gap becomes 1 at the matched parameter
    beta = (1, 1, 1, 0, 1, 0, 0, 0)
    tb = Rsyt([[8, 6], [7, 5], [4, 2], [3, 1]])
    assert b_value(beta, tb, 5).evaluate(Fraction(1, 4)) == 1


def test_constructed_jack_satisfies_eigen_equations():
    cases = [
        ((2, 0, 0), enumerate_rsyt((2, 1))[0]),
        ((0, 1, 2), enumerate_rsyt((2, 1))[1]),
        ((1, 0, 1, 0), enumerate_rsyt((2, 2))[1]),
        ((0, 2, 0, 1), enumerate_rsyt((3, 1))[2]),
        ((1, 1, 0, 0), enumerate_rsyt((1, 1, 1, 1))[0]),
    ]
    for alpha, tab in cases:
        j = construct_jack(alpha, tab)
        verify_eigen_equations(j)


def test_triangularity_and_leading_coefficient():
    for alpha, shape in [
        ((1, 0, 2, 0), (2, 2)),
        ((0, 1, 1, 1), (3, 1)),
        ((2, 1, 0), (2, 1)),
    ]:
        for tab in enumerate_rsyt(shape):
            j = construct_jack(alpha, tab)
            assert j.poly.tableau_component(alpha) == leading_vector(
                alpha, tab
            ).tableau_component(alpha)
            for exp in j.poly.monomial_support():
                assert exp == alpha or compare_order(exp, alpha) is Comparison.LESS


def test_matches_naive_projection():
    cases = [
        ((1, 0, 1, 0), (2, 2)),
        ((0, 0, 1, 1), (2, 1, 1)),
        ((2, 0, 0), (2, 1)),
        ((1, 1, 0, 0), (1, 1, 1, 1)),
    ]
    for alpha, shape in cases:
        for tab in enumerate_rsyt(shape):
            assert construct_jack(alpha, tab).poly == naive_projection(alpha, tab)


def test_degree_one_matches_eigensolve_column_shape():
    # single-column module, degree 1: compare against the brute-force solve
    tab = enumerate_rsyt((1, 1, 1, 1, 1))[0]
    alpha = (1, 0, 0, 0, 0)
    j = construct_jack(alpha, tab)
    for kappa0 in (Fraction(19, 23), Fraction(23, 29)):
        assert specialize(j, kappa0) == eigensolve_jack(alpha, tab, kappa0)


def test_matches_eigensolve_sample():
    rng = random.Random(13)
    shapes = [(2, 2), (3, 1), (2, 1, 1), (1, 1, 1), (2, 1)]
    for shape in shapes:
        n = sum(shape)
        tabs = enumerate_rsyt(shape)
        for _ in range(3):
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            tab = tabs[rng.randrange(len(tabs))]
            j = construct_jack(alpha, tab)
            for kappa0 in (Fraction(19, 23),):
                assert specialize(j, kappa0) == eigensolve_jack(alpha, tab, kappa0)


def test_scalar_case_singular_at_minus_half():
    # one-row module: classical scalar polynomials; the (3,2) label in five
    # variables is parameter-free at -1/2 and killed by every Dunkl operator
    tab = enumerate_rsyt((5,))[0]
    j = construct_jack((3, 2, 0, 0, 0), tab)
    p = specialize(j, Fraction(-1, 2))
    for i in range(1, 6):
        assert dunkl(i, p, Fraction(-1, 2)).is_zero()


def test_specialize_examples():
    tab = enumerate_rsyt((1, 1, 1, 1))[0]
    lam = (1, 1, 0, 0)
    j = construct_jack(lam, tab)
    p = specialize(j, Fraction(1, 3))  # no pole at the matched parameter
    assert not p.is_zero()
    j0 = construct_jack((0, 0, 0, 0), tab)
    assert specialize(j0, Fraction(7, 2)) == monomial(
        (1, 1, 1, 1), (0, 0, 0, 0), 0, Fraction(1)
    )


def test_specialize_reports_pole_exponents():
    # this degree-2 label genuinely poles at 1/3 on the single-column module
    tab = enumerate_rsyt((1, 1, 1, 1))[0]
    j = construct_jack((0, 1, 0, 1), tab)
    with pytest.raises(PoleAtKappa) as info:
        specialize(j, Fraction(1, 3))
    assert info.value.exponents == [(0, 0, 1, 1)]


def test_reflection_rules_round_trip():
    # (s,b)-relations: applying the two directions multiplies by (1 - b^2)
    tab = enumerate_rsyt((2, 2))[1]
    alpha = (0, 1, 0, 2)
    j = construct_jack(alpha, tab)
    res = apply_simple_reflection(1, j)  # alpha_2 > alpha_1: raise
    assert res.case is ReflectionCase.EXPONENT_RAISE
    assert res.result.alpha == (1, 0, 0, 2)
    back = apply_simple_reflection(1, res.result)
    assert back.case is ReflectionCase.EXPONENT_LOWER
    assert back.result.poly == j.poly


def test_reflection_degree_zero_reproduces_tau():
    shape = (2, 2)
    tabs = enumerate_rsyt(shape)
    zero = (0, 0, 0, 0)
    j = construct_jack(zero, tabs[0])
    res = apply_simple_reflection(2, j)
    assert res.case in (ReflectionCase.TABLEAU_RAISE, ReflectionCase.TABLEAU_LOWER)
    # same row at i=1 for the tableau with 1,2 adjacent in a row
    t_row = next(
        t for t in tabs if t.cell(1)[0] == t.cell(2)[0]
    )
    j2 = construct_jack(zero, t_row)
    assert apply_simple_reflection(1, j2).case is ReflectionCase.ROW_EIGENVECTOR


def test_reflection_eigen_cases_and_tableau_swap():
    # equal exponents, entries in same row / same column / swap
    tab = Rsyt([[4, 3], [2, 1]])
    alpha = (0, 0, 1, 1)  # r_alpha maps window to entries 3,4: same row
    j = construct_jack(alpha, tab)
    res = apply_simple_reflection(3, j)
    assert res.case is ReflectionCase.ROW_EIGENVECTOR
    assert res.scalar == RatFunc.from_int(1)


@pytest.mark.parametrize("m, k", [(1, 2), (1, 3), (2, 2)])
def test_reflection_rule_agrees_with_the_oracle_on_families(m, k):
    # the oracle's (s_i - b) J / scalar is the constructed Jack polynomial of
    # the rule's target, and s_i J / scalar is J in the eigenvector cases
    fam = family_context(m, k)
    columns = ColumnTable((m,) * (2 * k), sum(fam.members[0].label))
    for member in fam.members:
        for i in range(1, 2 * m * k):
            rule = reflection_rule(member.label, member.pair.tableau, i)
            res = apply_simple_reflection(i, member.jack, verify=False)
            if rule.target is None:
                expected = member.jack.poly
            else:
                expected = construct_jack(*rule.target, columns).poly
            assert res.result.poly == expected, (member.label, i, res.case)


def test_spectral_pairs_determine_the_label():
    # the 1/kappa parts recover alpha; the constant parts, unscrambled by the
    # rank permutation, recover the tableau through its content vector
    from nsjack.combinatorics import rank_permutation, rsyt_from_contents

    for shape in [(2, 2), (3, 1, 1)]:
        for tab in enumerate_rsyt(shape):
            for alpha in [(0, 1, 0, 2, 1)[: sum(shape)], (2, 0, 0, 1, 1)[: sum(shape)]]:
                pairs = spectral_pairs(alpha, tab)
                assert tuple(a for a, _ in pairs) == alpha
                r = rank_permutation(alpha)
                contents = [0] * len(alpha)
                for i, (_, c) in enumerate(pairs):
                    contents[r[i] - 1] = c
                assert rsyt_from_contents(tuple(contents)) == tab


def test_b_value_never_degenerates_on_valid_labels():
    # adjacent spectral entries of an honest label can never coincide
    for shape in [(2, 2), (3, 1), (2, 1, 1)]:
        for tab in enumerate_rsyt(shape):
            for alpha in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1)]:
                for i in range(1, 4):
                    b_value(alpha, tab, i)  # must not raise ZeroDenominator


# ---------------------------------------------------------------------------
# the constructor's guards raise (and so survive python -O) on forged input
# ---------------------------------------------------------------------------


def foreign_column(target):
    """A forged ``uprime_column`` whose one entry sits at (target, 0)."""

    def column(i, exp, tab, ctx, base):
        offset = (exponent_code(target, base) - exponent_code(exp, base)) * ctx.dim
        return 0, 0, [offset], [1]

    return column


def test_guard_basis_invariance(monkeypatch):
    import nsjack.jack as jack_module

    tab = Rsyt([[4, 3], [2, 1]])
    # neither is below the label (1, 1, 0, 0): one of another degree, one of
    # the same degree above it
    for foreign in [(9, 0, 0, 0), (2, 0, 0, 0)]:
        monkeypatch.setattr(jack_module, "uprime_column", foreign_column(foreign))
        with pytest.raises(AssertionError, match="not invariant"):
            construct_jack((1, 1, 0, 0), tab, ColumnTable(tab.shape, 2))


def test_guard_factor_annihilating_the_label(monkeypatch):
    import nsjack.jack as jack_module

    tab = Rsyt([[4, 3], [2, 1]])
    alpha = (1, 1, 0, 0)
    target = spectral_pairs(alpha, tab)
    monkeypatch.setattr(
        jack_module, "_projection_factors", lambda *args: [(1, target[0])]
    )
    with pytest.raises(ZeroDenominator):
        construct_jack(alpha, tab, ColumnTable(tab.shape, 2))


def test_guard_projection_keeps_the_leading_term(monkeypatch):
    import nsjack.jack as jack_module

    # a zero U'_i turns every factor into the scalar -v / (zeta - v)
    tab = Rsyt([[4, 3], [2, 1]])
    monkeypatch.setattr(
        jack_module, "uprime_column", lambda i, exp, t, ctx, base: (0, 0, [], [])
    )
    with pytest.raises(AssertionError, match="leading term"):
        construct_jack((1, 1, 0, 0), tab, ColumnTable(tab.shape, 2))


def test_guard_reflection_keeps_the_leading_term():
    tab = Rsyt([[4, 3], [2, 1]])
    j = construct_jack((0, 1, 0, 0), tab)
    forged = JackPolynomial(j.alpha, j.tableau, j.poly.scale(RatFunc.from_int(2)), j.spectral)
    with pytest.raises(AssertionError, match="leading term"):
        apply_simple_reflection(1, forged, verify=False)


def test_shared_column_table_gives_the_cached_result():
    tab = Rsyt([[4, 3], [2, 1]])
    table = ColumnTable(tab.shape, 2)
    for alpha in [(1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)]:
        assert construct_jack(alpha, tab, table) == construct_jack(alpha, tab)
    with pytest.raises(ValueError):
        construct_jack((1, 0, 0), Rsyt([[3, 2, 1]]), table)
    # the table's codes are in base degree + 1 = 3: it takes labels of
    # degree 2 only
    for alpha in [(1, 0, 0, 0), (2, 1, 0, 0), (3, 0, 0, 0)]:
        with pytest.raises(ValueError, match="degree"):
            construct_jack(alpha, tab, table)


def test_labels_with_one_part_equal_to_the_degree_match_eigensolve():
    # the largest entry, the degree, is the top digit of the exponent code
    for alpha in [(3, 0, 0, 0), (0, 0, 0, 3), (0, 3, 0, 0)]:
        for tab in enumerate_rsyt((2, 2)):
            j = construct_jack(alpha, tab)
            assert specialize(j, Fraction(19, 23)) == eigensolve_jack(
                alpha, tab, Fraction(19, 23)
            )


def test_gcd_free_decode_gives_the_full_gcd_form():
    # the decode reduces by trial division only; canonicalising each
    # coefficient again by Euclid's algorithm must change nothing
    jacks = [member.jack for member in family_context(1, 3).members]
    pair = brick_map(enumerate_rsyt((4, 4))[0], 2)
    jacks.append(construct_jack(pair.beta, pair.tableau))
    assert jacks[-1].shape == (2, 2, 2, 2)
    for jack in jacks:
        for coeff in jack.poly.terms.values():
            full = RatFunc(coeff.num, coeff.den)
            assert (coeff.num, coeff.den) == (full.num, full.den)


def test_decode_runs_once_per_distinct_coefficient(monkeypatch):
    import nsjack.jack as jack_module

    calls = []
    decode = jack_module._nu_fraction_to_ratfunc

    def spy(num, den):
        calls.append((tuple(num), tuple(den)))
        return decode(num, den)

    monkeypatch.setattr(jack_module, "_nu_fraction_to_ratfunc", spy)
    # the top member of the (1, 3) family, as the benchmark constructs the
    # (1, 4) one: label (2, 2, 1, 1, 0, 0) on the one-column tableau
    jack = construct_jack((2, 2, 1, 1, 0, 0), rsyt_from_contents(range(-5, 1)))
    values = set(jack.poly.terms.values())
    assert len(calls) == len(set(calls)) == len(values) < len(jack.poly.terms)
    for coeff in values:
        full = RatFunc(coeff.num, coeff.den)
        assert (coeff.num, coeff.den) == (full.num, full.den)


# ---------------------------------------------------------------------------
# the eigen check at one Kronecker point against the Q(kappa) oracle
# ---------------------------------------------------------------------------


def eigen_verdicts(jack, indices=None):
    """(packed check passes, Q(kappa) oracle passes)."""
    verdicts = []
    for check in (verify_eigen_equations, verify_eigen_equations_ratfunc):
        try:
            check(jack, indices)
        except AssertionError:
            verdicts.append(False)
        else:
            verdicts.append(True)
    return tuple(verdicts)


def forge(jack, poly):
    return JackPolynomial(jack.alpha, jack.tableau, poly, jack.spectral)


@pytest.mark.parametrize("m, k", [(1, 2), (1, 3)])
def test_eigen_check_agrees_with_oracle_on_families(m, k):
    for member in family_context(m, k).members:
        assert eigen_verdicts(member.jack) == (True, True)


def test_eigen_check_agrees_with_oracle_on_every_reflection_case():
    # the transformed polynomials carry coefficients the constructor never
    # produced (scaled by b and by 1 / (1 - b^2))
    found = {}
    for shape in [(2, 2), (2, 1, 1)]:
        for tab in enumerate_rsyt(shape):
            for alpha in [(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 2), (1, 0, 2, 0)]:
                jack = construct_jack(alpha, tab)
                for i in range(1, 4):
                    try:
                        res = apply_simple_reflection(i, jack, verify=False)
                    except ZeroDenominator:
                        continue
                    found.setdefault(res.case, res.result)
    assert set(found) == set(ReflectionCase)
    for case, result in found.items():
        assert eigen_verdicts(result) == (True, True), case
        # a monomial of another degree, outside the homogeneous support
        stray = (0, 0, 0, 0) if any(result.alpha) else (1, 0, 0, 0)
        extra = monomial(result.shape, stray, 0, KAPPA)
        assert eigen_verdicts(forge(result, result.poly + extra)) == (False, False), case


def test_eigen_check_rejects_one_perturbed_coefficient():
    jack = family_context(1, 3).members[0].jack
    terms = dict(jack.poly.terms)
    key = max(terms, key=lambda k: len(terms[k].den))
    terms[key] = terms[key] + RatFunc((1,), (3, 1))
    assert eigen_verdicts(forge(jack, VectorPoly(jack.shape, terms))) == (False, False)


def spy_kronecker_pack(monkeypatch):
    """The list of (K, N(K), W) that ``verify_eigen_equations`` lifts, one
    triple per call, from ``vectorpoly.kronecker_pack``: the point, the
    cleared numerators' values there by term, and the packing width."""
    import nsjack.jack as jack_module
    from nsjack.vectorpoly import kronecker_pack

    lifts = []

    def spy(*args):
        q, w, packed = kronecker_pack(*args)
        image = {
            (exp, tab): c for exp, entries in packed.groups.items() for tab, c in entries
        }
        lifts.append((1 << w, image, packed.width))
        return q, w, packed

    monkeypatch.setattr(jack_module, "kronecker_pack", spy)
    return lifts


def test_eigen_check_width_follows_the_data(monkeypatch):
    # a coefficient c (kappa - K0) vanishes at the point chosen for the honest
    # member, so a check pinned there would accept; the forged data widen it
    lifts = spy_kronecker_pack(monkeypatch)
    jack = family_context(1, 2).members[0].jack
    verify_eigen_equations(jack)
    ((point, packed, _),) = lifts
    constant = (0,) * len(jack.alpha)  # outside the homogeneous support
    forged = forge(
        jack, jack.poly + monomial(jack.shape, constant, 0, (KAPPA - point) * 5)
    )
    _, numerators = clear_denominators(forged.poly.terms.values())
    at_point = {}
    for term, num in zip(forged.poly.terms, numerators):
        value = 0
        for c in reversed(num):
            value = value * point + c
        at_point[term] = value
    assert VectorPoly(jack.shape, at_point) == VectorPoly(jack.shape, packed)
    assert eigen_verdicts(forged) == (False, False)
    assert lifts[1][0] > point


def test_eigen_check_honours_indices():
    # two degree-0 Jack polynomials whose tableaux agree in contents at
    # entries 1 and 4 only: their sum is an eigenvector of U'_1 and U'_4
    first, second = enumerate_rsyt((2, 2))
    zero = (0, 0, 0, 0)
    total = construct_jack(zero, first).poly + construct_jack(zero, second).poly
    jack = forge(construct_jack(zero, first), total)
    assert eigen_verdicts(jack, (1, 4)) == (True, True)
    assert eigen_verdicts(jack, (2,)) == (False, False)
    assert eigen_verdicts(jack) == (False, False)


def scaled(jack, key, factor=2):
    """J with the coefficient at key multiplied by factor."""
    terms = dict(jack.poly.terms)
    terms[key] = terms[key] * factor
    return forge(jack, VectorPoly(jack.shape, terms))


def first_failing_index(check, jack):
    """The least i whose equation ``check(jack, (i,))`` rejects, or None."""
    for i in range(1, len(jack.alpha) + 1):
        try:
            check(jack, (i,))
        except AssertionError:
            return i
    return None


@pytest.mark.parametrize("m, k, per_member", [(1, 2, None), (1, 3, 4), (2, 2, 2)])
def test_eigen_check_rejects_a_scaled_coefficient_of_every_member(m, k, per_member):
    # every coefficient of the (1, 2) members, and seeded ones and one at the
    # label of each (1, 3) and (2, 2) member (tableau dimension 1, 1 and
    # 14), doubled; the error
    # names the first failing index, which the Q(kappa) oracle confirms on
    # the (1, k) families
    rng = random.Random(31)
    for member in family_context(m, k).members:
        jack = member.jack
        keys = sorted(jack.poly.terms)
        if per_member is not None:
            lead = next(key for key in keys if key[0] == jack.alpha)
            keys = rng.sample(keys, per_member - 1) + [lead]
        for key in keys:
            forged = scaled(jack, key)
            index = first_failing_index(verify_eigen_equations, forged)
            assert index is not None, key
            if m == 1:
                assert first_failing_index(verify_eigen_equations_ratfunc, forged) == index
            with pytest.raises(AssertionError, match=f"fails at index {index} for"):
                verify_eigen_equations(forged)


def test_eigen_check_agrees_with_oracle_on_random_labels():
    # honest and scaled Jack polynomials of random labels on shapes with
    # tableau dimension 2, 3 and 5, index by index
    rng = random.Random(32)
    rejected = 0
    for shape in [(2, 1), (2, 2), (2, 1, 1), (3, 2)]:
        n = sum(shape)
        tableaux = enumerate_rsyt(shape)
        assert len(tableaux) > 1
        for _ in range(3):
            alpha = (0,) * n
            while sum(alpha) in (0, 4) or sum(alpha) > 3:
                alpha = tuple(rng.randint(0, 2) for _ in range(n))
            jack = construct_jack(alpha, rng.choice(tableaux))
            forged = scaled(jack, rng.choice(sorted(jack.poly.terms)), 3)
            assert eigen_verdicts(jack) == (True, True)
            for i in range(1, n + 1):
                assert eigen_verdicts(jack, (i,)) == (True, True)
                verdicts = eigen_verdicts(forged, (i,))
                assert verdicts[0] == verdicts[1], (alpha, i)
                rejected += not verdicts[0]
    assert rejected > 40


def test_eigen_check_on_index_subsets_of_a_sum():
    # J + J' satisfies equation i exactly when the spectral entries i of the
    # two labels agree; with those indices it passes, and the error names
    # the first disagreeing index in the order given
    shape = (2, 1, 1)
    labels = [
        (alpha, tab)
        for alpha in sorted(set(permutations((1, 1, 0, 0))))
        for tab in enumerate_rsyt(shape)
    ]
    checked = 0
    for (a1, t1), (a2, t2) in combinations(labels, 2):
        agree = [
            i
            for i, (z1, z2) in enumerate(
                zip(spectral_pairs(a1, t1), spectral_pairs(a2, t2)), 1
            )
            if z1 == z2
        ]
        if not agree or len(agree) == 4:
            continue
        differ = [i for i in range(1, 5) if i not in agree]
        first = construct_jack(a1, t1)
        total = forge(first, first.poly + construct_jack(a2, t2).poly)
        assert eigen_verdicts(total, tuple(agree)) == (True, True)
        for order in (differ, differ[::-1]):
            with pytest.raises(AssertionError, match=f"fails at index {order[0]} for"):
                verify_eigen_equations(total, tuple(agree + order))
        checked += 1
    assert checked >= 3
    for bad in (0, 5, -1):
        with pytest.raises(ValueError, match="outside 1..4"):
            verify_eigen_equations(first, (1, bad))


@pytest.mark.parametrize("m, k", [(1, 3), (2, 2)])
def test_eigen_check_width_holds_every_digit(monkeypatch, m, k):
    # the packed comparison is sound only when W holds every digit
    # R_r(K) of the left side; recompute them at 4 W on a forged member
    from nsjack.vectorpoly import pack, signed_digits

    lifts = spy_kronecker_pack(monkeypatch)
    jack = family_context(m, k).members[0].jack
    forged = scaled(jack, next(key for key in jack.poly.terms if key[0] == jack.alpha))
    with pytest.raises(AssertionError):
        verify_eigen_equations(forged)
    ((point, image, width),) = lifts
    ctx = tau_context(jack.shape)
    wide = pack(ctx, image, 4 * width)
    pairs = spectral_pairs(jack.alpha, jack.tableau)
    largest = 0
    for acc in cherednik_prime(range(1, len(pairs) + 1), wide, point, pairs):
        for value in acc.values():
            largest = max([largest, *map(abs, signed_digits(value, 4 * width))])
    assert 0 < largest < 1 << (width - 1)
