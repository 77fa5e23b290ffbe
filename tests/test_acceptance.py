"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  All comparisons are exact; run with -s to watch the
lines appear."""

import random
import time
from fractions import Fraction

from nsjack.combinatorics import (
    ColumnStrictTableau,
    Rsyt,
    enumerate_rsyt,
    max_inv_source,
    transposition,
)
from nsjack.jack import (
    b_value,
    construct_jack,
    spectral_vector_at,
    specialize,
    verify_eigen_equations,
)
from nsjack.operators import cherednik, dunkl, jucys_murphy
from nsjack.ratfunc import KAPPA, RatFunc
from nsjack.singular import (
    alpha_variants,
    brick_map,
    closure_check,
    example_n5,
    family_context,
    mu_commutation_check,
    norms_and_gamma,
    singular_family,
    uniqueness_oracle,
)
from nsjack.vectorpoly import VectorPoly, group_action, tau_context

from oracles import (
    brick_stack_target,
    catalan,
    compositions_of_degree,
    eigensolve_jack,
    layer_composition,
    monomial,
    mu_commutation_sampled,
)


class Stopwatch:
    def __init__(self, number, description, limit):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"{status} criterion {self.number}: {self.description} "
            f"[{elapsed:.2f} s / limit {self.limit}]"
        )
        if exc_type is None and isinstance(self.limit, (int, float)):
            assert elapsed < self.limit, f"criterion {self.number} over time budget"
        return False


def test_criterion_01_catalan_counts():
    with Stopwatch(1, "two-row RSYT counts are Catalan numbers", 1.0):
        assert len(enumerate_rsyt((2, 2))) == 2 == catalan(2)
        assert len(enumerate_rsyt((3, 3))) == 5 == catalan(3)
        assert len(enumerate_rsyt((4, 4))) == 14 == catalan(4)


def test_criterion_02_spectral_identity():
    with Stopwatch(2, "specialized spectral vector equals source contents", 1.0):
        for m, k in [(1, 2), (2, 2), (3, 2)]:
            got = spectral_vector_at(
                layer_composition(m, k), brick_stack_target(m, k), Fraction(1, m + 2)
            )
            want = tuple(map(Fraction, max_inv_source(m, k).content_vector()))
            assert got == want, (m, k)


def test_criterion_03_brick_map_goldens():
    with Stopwatch(3, "brick map reproduces the printed worked examples", 1.0):
        pair = brick_map(
            ColumnStrictTableau(
                [[18, 17, 13, 14, 10, 8, 7, 6, 3], [16, 15, 12, 11, 9, 5, 4, 2, 1]]
            ),
            3,
        )
        assert pair.beta == (2, 2, 2, 2, 1, 2, 2, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0)
        assert pair.tableau.rows == (
            (18, 17, 14),
            (16, 15, 13),
            (12, 10, 8),
            (11, 9, 7),
            (6, 5, 3),
            (4, 2, 1),
        )
        pair2 = brick_map(Rsyt([[8, 6, 5, 2], [7, 4, 3, 1]]), 2)
        assert pair2.beta == (1, 1, 1, 0, 1, 0, 0, 0)
        assert pair2.tableau.rows == ((8, 6), (7, 5), (4, 2), (3, 1))


def test_criterion_04_singular_family_m1_k2():
    with Stopwatch(4, "family of 2 singular members at kappa = 1/3", 10.0):
        cert = singular_family(1, 2)
        assert cert.kappa0 == Fraction(1, 3)
        assert len(cert.members) == 2
        for record in cert.members:
            assert record["pole_free"]
            assert all(img == [] for img in record["dunkl_images"])
            assert record["omega_eigenvalues"] == record["spectral"] or [
                int(z) for z in record["spectral"]
            ] == record["omega_eigenvalues"]


def test_criterion_05_singular_family_m2_k2():
    with Stopwatch(
        5, "family of 14 singular members at kappa = 1/4, with hinge case", 1800.0
    ):
        cert = singular_family(2, 2)
        assert cert.kappa0 == Fraction(1, 4)
        assert len(cert.members) == 14
        for record in cert.members:
            assert record["pole_free"]
            assert all(img == [] for img in record["dunkl_images"])

        # the printed hinge instance: swapping at index 5 fixes the member
        # once the swapped label is certified pole-free
        fam = family_context(2, 2)
        member = next(
            mem
            for mem in fam.members
            if mem.pair.source == Rsyt([[8, 6, 5, 2], [7, 4, 3, 1]])
        )
        assert member.label == (1, 1, 1, 0, 1, 0, 0, 0)
        assert b_value(member.label, member.pair.tableau, 5).evaluate(
            Fraction(1, 4)
        ) == 1
        swapped_label = (1, 1, 1, 0, 0, 1, 0, 0)
        swapped_jack = construct_jack(swapped_label, member.pair.tableau)
        specialize(swapped_jack, Fraction(1, 4))  # must not pole
        s5 = transposition(8, 5, 6)
        assert group_action(s5, member.specialized) == member.specialized

        # closure of the family span under every simple reflection
        report = closure_check(2, 2)
        assert report.case_counts["hinge"] >= 1

        # generic-parameter eigen equations for every member and index
        for mem in fam.members:
            verify_eigen_equations(mem.jack)


def test_criterion_06_scaled_family():
    with Stopwatch(6, "doubled family is singular at kappa = 2/3", 30.0):
        cert = singular_family(1, 2, n=2)
        assert cert.kappa0 == Fraction(2, 3)
        assert len(cert.members) == 2
        for record in cert.members:
            assert record["pole_free"]
            assert all(img == [] for img in record["dunkl_images"])


def test_criterion_07_uniqueness_oracles():
    with Stopwatch(7, "uniqueness verdicts and spectral window tables", 300.0):
        for m, k in [(1, 2), (2, 2)]:
            report = uniqueness_oracle(
                layer_composition(m, k),
                brick_stack_target(m, k),
                Fraction(1, m + 2),
            )
            assert report.unique, (m, k)
            print(
                f"    uniqueness (m={m},k={k}): enumerated "
                f"{report.enumeration_size} candidate labels"
            )
        variants = alpha_variants(2, 2, 1)
        t0 = brick_stack_target(2, 2)
        for u, comp in ((1, variants.variant1), (2, variants.variant2)):
            report = uniqueness_oracle(comp, t0, Fraction(1, 4))
            assert report.unique, u
            print(
                f"    uniqueness variant {u}: enumerated "
                f"{report.enumeration_size} candidate labels"
            )
        s = 1
        sm = s * 2
        assert variants.window(variants.base) == (s, s, s - 1, s - 1)
        assert variants.window(variants.swapped_once) == (s, s - 1, s, s - 1)
        assert variants.window(variants.variant1) == (s, s - 1, s - 1, s)
        assert variants.window(variants.variant2) == (s - 1, s, s, s - 1)
        assert variants.spectral_window("base") == (sm - 1, sm, sm - 2, sm - 1)
        assert variants.spectral_window("swapped_once") == (
            sm - 1,
            sm - 2,
            sm,
            sm - 1,
        )
        assert variants.spectral_window("variant1") == (sm - 1, sm - 2, sm - 1, sm)
        assert variants.spectral_window("variant2") == (sm - 2, sm - 1, sm, sm - 1)


def test_criterion_08_five_variable_example():
    with Stopwatch(8, "five-variable hook example at kappa = 1/2", 120.0):
        report = example_n5()
        assert report.spectral == (4, 3, 2, 1, 0)
        assert report.monomial_count == 100
        assert report.neither_singular and report.neither_invariant
        assert report.combination_singular and report.combination_invariant
        assert report.eigenvalues == (4, 3, 2, 1, 0)


def test_criterion_09_norms_product_vs_recursion():
    with Stopwatch(9, "norm conventions and gamma recursion, both sizes", 60.0):
        for m, k in [(1, 2), (2, 2)]:
            report = norms_and_gamma(m, k)
            norm, gamma = report.table[max_inv_source(m, k).content_vector()]
            assert norm == 1 and gamma == 1
            assert report.steps_checked > 0


def test_criterion_10_mu_commutation():
    with Stopwatch(10, "module map commutes with x_i, s_i, D_i", 300.0):
        report = mu_commutation_check(1, 2)
        assert (report.dunkl_images, report.transports) == (2 * 4, 2 * 3)
        # the sampled reference agrees with the proof
        checks = mu_commutation_sampled(1, 2, degree=2, trials=20, seed=0)
        assert checks == 20 * (4 + 3 + 4)


SHAPE_POOL = [(3,), (2, 1), (2, 2), (3, 1), (2, 1, 1), (4, 1), (3, 1, 1), (2, 2, 1)]


def _random_case(rng):
    shape = SHAPE_POOL[rng.randrange(len(SHAPE_POOL))]
    n = sum(shape)
    dim = len(enumerate_rsyt(shape))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * n
        for _ in range(rng.randint(0, 3)):
            exp[rng.randrange(n)] += 1
        coeff = RatFunc.from_int(rng.randint(-3, 3)) + KAPPA * rng.randint(-1, 1)
        if coeff:
            terms[(tuple(exp), rng.randrange(dim))] = coeff
    if not terms:
        terms[((0,) * n, 0)] = RatFunc.from_int(1)
    return shape, n, VectorPoly(shape, terms)


def test_criterion_11_property_suites():
    with Stopwatch(11, "operator identities, 50 seeded cases each", 300.0):
        rng = random.Random(0)
        for _ in range(50):
            shape, n, p = _random_case(rng)
            i, j = rng.sample(range(1, n + 1), 2)
            assert dunkl(i, dunkl(j, p)) == dunkl(j, dunkl(i, p))
        for _ in range(50):
            shape, n, p = _random_case(rng)
            i, j = rng.sample(range(1, n + 1), 2)
            assert cherednik(i, cherednik(j, p)) == cherednik(j, cherednik(i, p))
        for _ in range(50):
            shape, n, p = _random_case(rng)
            i = rng.randint(1, n - 1)
            s = transposition(n, i, i + 1)
            sp = group_action(s, p)
            assert group_action(s, cherednik(i, sp)) == cherednik(
                i + 1, p
            ) + sp.scale(KAPPA)
        for _ in range(50):
            shape, n, p = _random_case(rng)
            if n < 3:
                continue
            i = rng.randint(1, n - 2)
            a = transposition(n, i, i + 1)
            b = transposition(n, i + 1, i + 2)
            lhs = group_action(a, group_action(b, group_action(a, p)))
            rhs = group_action(b, group_action(a, group_action(b, p)))
            assert lhs == rhs
        for _ in range(50):
            shape = SHAPE_POOL[rng.randrange(len(SHAPE_POOL))]
            ctx = tau_context(shape)
            n = sum(shape)
            t = rng.randrange(ctx.dim)
            i = rng.randint(1, n)
            unit = monomial(shape, (0,) * n, t)
            assert jucys_murphy(i, unit) == unit.scale(
                RatFunc.from_int(ctx.tableaux[t].content(i))
            )


def test_criterion_12_oracle_equivalence():
    with Stopwatch(
        12, "projection constructor matches eigen-solve on all small labels", 600.0
    ):
        kappas = (Fraction(19, 23), Fraction(23, 29))
        checked = 0
        for n in range(1, 5):
            shapes = [s for s in _partitions(n)]
            for shape in shapes:
                tabs = enumerate_rsyt(shape)
                for degree in range(0, 4):
                    for alpha in compositions_of_degree(degree, n):
                        for tab in tabs:
                            jack = construct_jack(alpha, tab)
                            for kappa0 in kappas:
                                assert specialize(jack, kappa0) == eigensolve_jack(
                                    alpha, tab, kappa0
                                ), (alpha, tab.rows, kappa0)
                            checked += 1
        print(f"    oracle equivalence verified on {checked} labels")
        assert checked == 454


def _partitions(n, bound=None):
    bound = bound or n
    if n == 0:
        yield ()
        return
    for part in range(min(bound, n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest
