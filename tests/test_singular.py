"""Brick map, singular families, uniqueness, norms, module maps."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from nsjack.combinatorics import (
    BadShapeParams,
    ColumnStrictTableau,
    Rsyt,
    compositions_strictly_below,
    enumerate_rsyt,
    max_inv_source,
)
from nsjack.jack import construct_jack, spectral_vector_at, specialize
from nsjack.singular import (
    BrickIdentityViolation,
    ClosureViolation,
    NonzeroDunklImage,
    NotIsotypic,
    alpha_variants,
    brick_map,
    brick_pairs,
    closure_case,
    closure_check,
    example_n5,
    family_context,
    isotype_of,
    mu_commutation_check,
    norms_and_gamma,
    singular_family,
    uniqueness_oracle,
)
from nsjack.vectorpoly import VectorPoly

from oracles import (
    brick_stack_target,
    content_gap_case,
    hook_length_count,
    layer_composition,
    monomial,
    mu_commutation_sampled,
    mu_map,
    reverse_map_qT,
    swapped_inv_max,
)


# -- brick map -----------------------------------------------------------------


def test_brick_map_m3k3_printed_golden():
    source = ColumnStrictTableau(
        [
            [18, 17, 13, 14, 10, 8, 7, 6, 3],
            [16, 15, 12, 11, 9, 5, 4, 2, 1],
        ]
    )
    pair = brick_map(source, 3)
    assert pair.beta == (2, 2, 2, 2, 1, 2, 2, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0)
    assert pair.tableau.rows == (
        (18, 17, 14),
        (16, 15, 13),
        (12, 10, 8),
        (11, 9, 7),
        (6, 5, 3),
        (4, 2, 1),
    )


def test_brick_map_m2k2_printed_golden():
    source = Rsyt([[8, 6, 5, 2], [7, 4, 3, 1]])
    pair = brick_map(source, 2)
    assert pair.beta == (1, 1, 1, 0, 1, 0, 0, 0)
    assert pair.tableau.rows == ((8, 6), (7, 5), (4, 2), (3, 1))


def test_top_label_is_the_layer_composition_on_the_brick_stack():
    # the library builds the top label only as the brick map of the
    # inv-maximal source, the column filling; the oracle writes both parts
    # down by formula, and the swapped labels start from the same label
    for m, k in [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (1, 5)]:
        top = brick_map(max_inv_source(m, k), m)
        assert top.beta == layer_composition(m, k)
        assert top.tableau == brick_stack_target(m, k)
        assert alpha_variants(m, k, 1).base == layer_composition(m, k)


def test_brick_map_fundamental_equation_exhaustive():
    # checked internally by assertion; run over whole families
    for m, k in [(1, 2), (2, 2), (1, 3), (3, 2)]:
        for source in enumerate_rsyt((m * k, m * k)):
            pair = brick_map(source, m)
            assert sorted(pair.beta, reverse=True) == sorted(
                layer_composition(m, k), reverse=True
            )


# -- singular families --------------------------------------------------------


def test_singular_family_m1_k2():
    cert = singular_family(1, 2)
    assert len(cert.members) == 2
    assert cert.kappa0 == Fraction(1, 3)
    for record in cert.members:
        assert record["pole_free"]
        assert all(img == [] for img in record["dunkl_images"])


def test_singular_family_m1_k3():
    cert = singular_family(1, 3)
    assert len(cert.members) == 5
    assert cert.kappa0 == Fraction(1, 3)


def test_scaled_family_m1_k2_n2():
    cert = singular_family(1, 2, n=2)
    assert cert.kappa0 == Fraction(2, 3)
    assert len(cert.members) == 2
    # labels are the doubled layer compositions
    assert {tuple(r["beta"]) for r in cert.members} == {
        (2, 2, 0, 0),
        (2, 0, 2, 0),
    }


def test_family_rejects_bad_scaling():
    with pytest.raises(BadShapeParams):
        family_context(1, 2, 3)  # 3 shares a factor with m+2 = 3
    with pytest.raises(BadShapeParams):
        family_context(2, 2, 2)


# -- isotype -------------------------------------------------------------------


def test_isotype_of_constant():
    for shape in [(2, 2), (3, 1, 1)]:
        tabs = enumerate_rsyt(shape)
        for t_idx, tab in enumerate(tabs):
            p = monomial(shape, (0,) * sum(shape), t_idx, Fraction(1))
            assert isotype_of(p) == tab


def test_isotype_of_family_members():
    fam = family_context(1, 2)
    for member in fam.members:
        assert isotype_of(member.specialized) == member.pair.source


def test_isotype_rejects_non_eigenfunctions():
    p = VectorPoly(
        (2, 2),
        {
            ((1, 0, 0, 0), 0): Fraction(1),
            ((0, 0, 0, 1), 1): Fraction(1),
        },
    )
    with pytest.raises(NotIsotypic):
        isotype_of(p)
    # the ratio at the first term is checked to be an integer first, then
    # the whole image against p times it
    q = VectorPoly(
        (2, 1),
        {((1, 0, 0), 0): Fraction(1), ((0, 1, 0), 0): Fraction(1)},
    )
    with pytest.raises(NotIsotypic, match="non-integer eigenvalue 1/2 at index 1"):
        isotype_of(q)
    r = VectorPoly(
        (2, 2),
        {((1, 0, 0, 0), 0): Fraction(1), ((0, 1, 0, 0), 0): Fraction(1)},
    )
    with pytest.raises(NotIsotypic, match="not an eigenfunction of the index-1"):
        isotype_of(r)


# -- uniqueness ----------------------------------------------------------------


def test_uniqueness_base_labels():
    for m, k in [(1, 2), (1, 3)]:
        report = uniqueness_oracle(
            layer_composition(m, k),
            brick_stack_target(m, k),
            Fraction(1, m + 2),
        )
        assert report.unique
        assert report.enumeration_size > 0


def test_uniqueness_collision_in_five_variables():
    # the two five-variable labels share a spectral vector at one half
    t_prime = Rsyt([[5, 3, 2], [4], [1]])
    report = uniqueness_oracle((3, 2, 0, 0, 0), Rsyt([[5, 4, 3], [2], [1]]), Fraction(1, 2))
    assert not report.unique
    assert ((1, 1, 2, 1, 0), t_prime) in report.collisions


def test_uniqueness_oracle_matches_the_fraction_enumeration():
    # every label whose Fraction spectral vector at kappa0 equals the
    # target's, in enumeration order, at rational, integer and negative
    # kappa0; a fifth of the random labels collide
    rng = random.Random(41)
    collided = 0
    for shape in [(2, 1), (2, 2), (3, 1, 1), (2, 2, 1)]:
        tabs = enumerate_rsyt(shape)
        n = sum(shape)
        for kappa0 in (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(-1, 2)):
            for _ in range(3):
                beta = tuple(rng.randint(0, 2) for _ in range(n))
                tableau = rng.choice(tabs)
                target = spectral_vector_at(beta, tableau, kappa0)
                expected = [
                    (gamma, tab)
                    for gamma in [*compositions_strictly_below(beta), beta]
                    for tab in tabs
                    if (gamma, tab) != (beta, tableau)
                    and spectral_vector_at(gamma, tab, kappa0) == target
                ]
                report = uniqueness_oracle(beta, tableau, kappa0)
                assert list(report.collisions) == expected, (beta, tableau, kappa0)
                assert report.unique == (not expected)
                collided += bool(expected)
    assert collided == 8


# -- alpha variants -------------------------------------------------------------


def test_alpha_variant_windows():
    for m, k, s in [(2, 2, 1), (1, 3, 1), (1, 3, 2), (3, 2, 1)]:
        var = alpha_variants(m, k, s)
        assert var.window(var.base) == (s, s, s - 1, s - 1)
        assert var.window(var.swapped_once) == (s, s - 1, s, s - 1)
        assert var.window(var.variant1) == (s, s - 1, s - 1, s)
        assert var.window(var.variant2) == (s - 1, s, s, s - 1)
        sm = s * m
        assert var.spectral_window("base") == (sm - 1, sm, sm - 2, sm - 1)
        assert var.spectral_window("swapped_once") == (sm - 1, sm - 2, sm, sm - 1)
        assert var.spectral_window("variant1") == (sm - 1, sm - 2, sm - 1, sm)
        assert var.spectral_window("variant2") == (sm - 2, sm - 1, sm, sm - 1)


def test_alpha_variants_match_swapped_tableau_contents():
    for m, k, s in [(2, 2, 1), (1, 3, 1)]:
        var = alpha_variants(m, k, s)
        t0 = brick_stack_target(m, k)
        for u, comp in ((1, var.variant1), (2, var.variant2)):
            contents = swapped_inv_max(m * k, u, m * s).content_vector()
            assert spectral_vector_at(comp, t0, Fraction(1, m + 2)) == tuple(
                map(Fraction, contents)
            )


def test_alpha_variants_outside_window_match_base():
    var = alpha_variants(2, 2, 1)
    for name in ("variant1", "variant2"):
        v = var.spectral_table[name]
        base = var.spectral_table["base"]
        for i in range(len(v)):
            if not (var.pivot - 1 <= i + 1 <= var.pivot + 2):
                assert v[i] == base[i]


def test_alpha_variants_param_guard():
    with pytest.raises(BadShapeParams):
        alpha_variants(2, 2, 2)


# -- norms ------------------------------------------------------------------------


def test_norm_conventions():
    for m, k in [(1, 2), (2, 2)]:
        report = norms_and_gamma(m, k)
        s0 = max_inv_source(m, k)
        norm, gamma = report.table[s0.content_vector()]
        assert norm == 1 and gamma == 1
        assert report.steps_checked > 0


def test_gamma_example_by_hand():
    # two-column case: the non-maximal source has a single mixed pair
    fam = family_context(1, 2)
    other = next(
        member
        for member in fam.members
        if member.pair.source != max_inv_source(1, 2)
    )
    assert other.gamma == Fraction(3, 4)
    assert other.source_norm_squared == Fraction(3, 4)


# -- module map --------------------------------------------------------------------


def test_mu_definition_on_point_mass():
    fam = family_context(1, 2)
    s0_idx = next(
        i for i, member in enumerate(fam.members)
        if member.pair.source == max_inv_source(1, 2)
    )
    g = monomial(fam.sigma, (0, 0, 0, 0), s0_idx, Fraction(1))
    image = mu_map(g, 1, 2)
    member = fam.members[s0_idx]
    assert image == member.specialized.scale(member.gamma)


def test_mu_commutation_seeded():
    # the proof counts n images per member and n - 1 transports per member;
    # the seeded sampled reference agrees at the degrees it reaches
    cases = [(1, 2, range(4), 5, 2), (1, 3, range(4), 3, 5), (2, 2, (3,), 2, 14)]
    for m, k, degrees, trials, members in cases:
        n = 2 * m * k
        report = mu_commutation_check(m, k)
        assert (report.dunkl_images, report.transports) == (
            members * n,
            members * (n - 1),
        )
        for degree in degrees:
            checks = mu_commutation_sampled(m, k, degree, trials, seed=degree)
            assert checks == trials * (3 * n - 1)


def test_reverse_map_m1_k2():
    report = reverse_map_qT(1, 2)
    assert report.kappa0 == Fraction(-1, 3)
    # one component per RSYT of the stacked shape (1,1,1,1), a single column
    expected = hook_length_count((1, 1, 1, 1))
    assert expected == 1
    assert len(report.components) == expected
    contents, poly, singular, isotype = report.components[0]
    assert singular
    assert isotype == contents


def test_reverse_map_m2_k2():
    report = reverse_map_qT(2, 2)
    assert report.kappa0 == Fraction(-1, 4)
    # one component per RSYT of the stacked shape (2,2,2,2), 8!/2880 of them
    expected = hook_length_count((2, 2, 2, 2))
    assert expected == 14
    assert len(report.components) == expected
    # each stacked tableau exactly once, none repeated or dropped
    assert sorted(c[0] for c in report.components) == sorted(
        t.content_vector() for t in enumerate_rsyt((2, 2, 2, 2))
    )
    for contents, _, singular, isotype in report.components:
        assert singular
        assert isotype == contents


# -- closure -----------------------------------------------------------------------


def test_closure_m1_k2():
    report = closure_check(1, 2)
    assert report.case_counts["hinge"] >= 1
    assert sum(report.case_counts.values()) == 2 * 3  # two sources, three indices
    # every hinge label certified pole-free by separation specializes
    for m, k, hinges in [(1, 2, 2), (1, 3, 10), (2, 2, 14)]:
        report = closure_check(m, k)
        assert len(report.hinge_labels) == hinges
        for label, tab in report.hinge_labels:
            specialize(construct_jack(label, tab), report.kappa0)


# (same_column, generic, same_row_brick, hinge) counts over every (source, i)
# of the family (m, k, n), from the brick pairs alone
CLOSURE_CASE_COUNTS = {
    (1, 2, 1): (2, 2, 0, 2),
    (1, 3, 1): (5, 10, 0, 10),
    (1, 3, 2): (5, 10, 0, 10),
    (2, 2, 1): (14, 42, 28, 14),
    (1, 4, 1): (14, 42, 0, 42),
    (1, 5, 1): (42, 168, 0, 168),
    (3, 2, 1): (132, 660, 528, 132),
    (2, 3, 1): (132, 660, 396, 264),
}


@pytest.mark.parametrize("m, k, n", sorted(CLOSURE_CASE_COUNTS))
def test_closure_case_of_the_rule_is_the_content_gap_case(m, k, n):
    # the (1, 5), (3, 2) and (2, 3) families are too large to build, so their
    # closure cases are checked here only
    kappa0 = Fraction(n, m + 2)
    counts = Counter()
    for pair in brick_pairs(m, k):
        label = tuple(n * b for b in pair.beta)
        for i in range(1, 2 * m * k):
            case = closure_case(label, pair.tableau, i, kappa0)[0]
            assert case == content_gap_case(pair.source, pair.beta, i), (pair, i)
            counts[case] += 1
    names = ("same_column", "generic", "same_row_brick", "hinge")
    assert tuple(counts[name] for name in names) == CLOSURE_CASE_COUNTS[m, k, n]


# -- the five-variable example ------------------------------------------------------


def test_example_n5():
    report = example_n5()
    assert report.monomial_count == 100
    assert report.spectral == (4, 3, 2, 1, 0)
    assert report.neither_singular and report.neither_invariant
    assert report.combination_singular and report.combination_invariant
    assert report.eigenvalues == (4, 3, 2, 1, 0)


def test_family_context_cache_ignores_default_spelling():
    assert family_context(1, 2) is family_context(1, 2, 1)
    assert family_context(1, 2, n=1) is family_context(1, 2)


# ---------------------------------------------------------------------------
# the certificate's checks raise (and so survive python -O) on forged input
# ---------------------------------------------------------------------------


def test_perturbed_member_fails_the_dunkl_check(monkeypatch):
    import nsjack.singular as singular_module

    fam = family_context(1, 2)
    member = fam.members[0]
    # bump one coefficient of a non-constant monomial
    key = next(k for k in member.specialized.terms if any(k[0]))
    terms = dict(member.specialized.terms)
    terms[key] += 1
    forged = member._replace(specialized=VectorPoly(member.specialized.shape, terms))
    forged_fam = fam._replace(members=(forged,) + fam.members[1:])
    monkeypatch.setattr(singular_module, "family_context", lambda *args: forged_fam)
    with pytest.raises(NonzeroDunklImage):
        singular_family(1, 2)


def test_two_isotype_sum_is_not_isotypic():
    fam = family_context(1, 2)
    first, second = fam.members
    assert first.pair.source != second.pair.source
    with pytest.raises(NotIsotypic):
        isotype_of(first.specialized + second.specialized)
    assert isotype_of(first.specialized.scale(Fraction(-3, 7))) == first.pair.source


def test_spectral_identity_guard(monkeypatch):
    import nsjack.singular as singular_module

    real = singular_module.spectral_vector_at
    monkeypatch.setattr(
        singular_module,
        "spectral_vector_at",
        lambda *args: tuple(z + 1 for z in real(*args)),
    )
    with pytest.raises(NotIsotypic, match="spectral vector"):
        singular_family(1, 2)


def test_brick_content_identity_guard(monkeypatch):
    import nsjack.singular as singular_module

    real = singular_module.rank_permutation
    monkeypatch.setattr(
        singular_module, "rank_permutation", lambda beta: tuple(reversed(real(beta)))
    )
    with pytest.raises(BrickIdentityViolation, match="brick content identity"):
        brick_map(Rsyt([[8, 6, 5, 2], [7, 4, 3, 1]]), 2)


def test_gamma_guard_on_a_degenerate_pair():
    from nsjack.singular import BrickPair, gamma_factor

    source = Rsyt([[4, 3], [2, 1]])
    # entries 1 and 2 share a row (content gap 1) but sit in different bricks
    pair = BrickPair((0, 1, 1, 1), source, source)
    with pytest.raises(BrickIdentityViolation, match="degenerate gamma"):
        gamma_factor(pair)


def forge_family(monkeypatch, field, value, member=1):
    """Serve family_context(1, 2) with one member's field replaced."""
    import nsjack.singular as singular_module

    fam = family_context(1, 2)
    members = list(fam.members)
    members[member] = members[member]._replace(**{field: value})
    forged = fam._replace(members=tuple(members))
    monkeypatch.setattr(singular_module, "family_context", lambda *args: forged)


def forge_factor(monkeypatch, field, value, member=1):
    """Serve the (1, 2) source at ``member`` a forged ``field`` of its
    family member, gamma or source_norm_squared, by replacing the function
    that computes it from the brick pair; value maps the honest one."""
    import nsjack.singular as singular_module

    name, arg_source = {
        "gamma": ("gamma_factor", lambda pair: pair.source),
        "source_norm_squared": ("tableau_norm_squared", lambda source: source),
    }[field]
    source = brick_pairs(1, 2)[member].source
    real = getattr(singular_module, name)
    monkeypatch.setattr(
        singular_module,
        name,
        lambda arg: value(real(arg)) if arg_source(arg) == source else real(arg),
    )


@pytest.mark.parametrize(
    "field, match",
    [("gamma", "gamma recursion"), ("source_norm_squared", "norm recursion")],
)
def test_norm_recursion_rejects_a_forged_member(monkeypatch, field, match):
    # the second source is the lower end of the one permissible step
    forge_factor(monkeypatch, field, lambda honest: 2 * honest)
    with pytest.raises(AssertionError, match=match):
        norms_and_gamma(1, 2)


def test_norm_recursion_rejects_a_forged_top_member(monkeypatch):
    forge_factor(monkeypatch, "gamma", lambda honest: Fraction(1, 2), member=0)
    with pytest.raises(AssertionError, match="top source"):
        norms_and_gamma(1, 2)


@pytest.mark.parametrize("m, k", [(3, 2), (2, 3)])
def test_norms_build_no_jack_polynomial(monkeypatch, m, k):
    # norms and gammas are products over content differences of the brick
    # pairs; constructing either of these families would exhaust memory
    import nsjack.singular as singular_module

    def refuse(*args):
        raise AssertionError("norms built a Jack polynomial")

    monkeypatch.setattr(singular_module, "construct_jack", refuse)
    monkeypatch.setattr(singular_module, "family_context", refuse)
    report = norms_and_gamma(m, k)
    doc = report.to_json()
    assert len(report.table) == len(doc["members"]) == 132
    assert report.steps_checked == 330
    assert report.table[max_inv_source(m, k).content_vector()] == (1, 1)
    assert [member["source"] for member in doc["members"]] == [
        [list(r) for r in pair.source.rows] for pair in brick_pairs(m, k)
    ]


# every single-member label forgery at (1, 2): one member's label replaced by
# another arrangement of its entries
FORGERIES = [
    (member, label)
    for member, pair in enumerate(brick_pairs(1, 2))
    for label in sorted(set(permutations(pair.beta)))
    if label != pair.beta
]
# the first check that rejects each forgery
FORGED_LABELS = {
    (0, (0, 0, 1, 1)): "the rule of label (0, 0, 1, 1) at source ((4, 2), (3, 1)), "
    "i=2 has a pole",
    (0, (0, 1, 0, 1)): "generic case fails at ((4, 2), (3, 1)), i=1",
    (0, (0, 1, 1, 0)): "generic case fails at ((4, 2), (3, 1)), i=1",
    (0, (1, 0, 0, 1)): "hinge label (0, 1, 0, 1) at source ((4, 2), (3, 1)), "
    "i=1 is not separated",
    (0, (1, 0, 1, 0)): "hinge case fails at ((4, 2), (3, 1)), i=1",
    (1, (0, 0, 1, 1)): "generic case fails at ((4, 2), (3, 1)), i=2",
    (1, (0, 1, 0, 1)): "generic case fails at ((4, 2), (3, 1)), i=2",
    (1, (0, 1, 1, 0)): "generic case fails at ((4, 2), (3, 1)), i=2",
    (1, (1, 0, 0, 1)): "generic case fails at ((4, 2), (3, 1)), i=2",
    (1, (1, 1, 0, 0)): "generic case fails at ((4, 2), (3, 1)), i=2",
}


@pytest.mark.parametrize(
    "member, label",
    FORGERIES,
    ids=[f"{member}-{''.join(map(str, label))}" for member, label in FORGERIES],
)
def test_closure_rejects_a_forged_label(monkeypatch, member, label):
    forge_family(monkeypatch, "label", label, member=member)
    match = re.escape(FORGED_LABELS[member, label])
    with pytest.raises(ClosureViolation, match=match):
        closure_check(1, 2)


def test_closure_rejects_a_member_outside_the_first_brick(monkeypatch):
    honest = family_context(1, 2).members[1]
    pair = honest.pair._replace(beta=(1, 0, 0, 1))
    forge_family(monkeypatch, "pair", pair)
    with pytest.raises(ClosureViolation, match="first brick"):
        closure_check(1, 2)


def test_closure_rejects_a_hinge_label_without_separation(monkeypatch):
    import nsjack.singular as singular_module

    real = singular_module.uniqueness_oracle

    def one_collision(beta, tableau, kappa0):
        lower = min(compositions_strictly_below(beta))
        return real(beta, tableau, kappa0)._replace(
            unique=False, collisions=((lower, tableau),)
        )

    monkeypatch.setattr(singular_module, "uniqueness_oracle", one_collision)
    with pytest.raises(ClosureViolation, match="not separated"):
        closure_check(1, 2)


def test_closure_rejects_a_forged_gamma(monkeypatch):
    honest = family_context(1, 2).members[1]
    forge_family(monkeypatch, "gamma", 2 * honest.gamma)
    with pytest.raises(ClosureViolation, match="matrix transport"):
        closure_check(1, 2)


def test_closure_rejects_a_member_without_leading_coefficient_1(monkeypatch):
    # doubling one member and halving its gamma keeps every transport
    # identity; only the generic case's scalar identity sees it
    import nsjack.singular as singular_module

    fam = family_context(1, 2)
    members = list(fam.members)
    members[1] = members[1]._replace(
        specialized=members[1].specialized.scale(Fraction(2)),
        gamma=members[1].gamma / 2,
    )
    forged = fam._replace(members=tuple(members))
    monkeypatch.setattr(singular_module, "family_context", lambda *args: forged)
    with pytest.raises(ClosureViolation, match="generic case fails"):
        closure_check(1, 2)


def test_closure_builds_no_jack_polynomial(monkeypatch):
    # the family is built beforehand; closure itself reads only the family
    import nsjack.singular as singular_module

    family_context(1, 3)

    def refuse(*args):
        raise AssertionError("closure built or specialized a Jack polynomial")

    monkeypatch.setattr(singular_module, "construct_jack", refuse)
    monkeypatch.setattr(singular_module, "specialize", refuse)
    report = closure_check(1, 3)
    assert len(report.hinge_labels) == 10
