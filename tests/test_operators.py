"""Operator identities: commutations, conjugations, spectra on constants."""

import hashlib
import random
from fractions import Fraction

import pytest

from nsjack.combinatorics import enumerate_rsyt, transposition
from nsjack.operators import (
    cherednik,
    cherednik_prime,
    dunkl,
    jucys_murphy,
    uprime_column,
)
from nsjack.ratfunc import KAPPA, RatFunc
from nsjack.vectorpoly import VectorPoly, group_action, tau_context, unpack

from oracles import (
    cherednik_from_definition,
    dunkl_fractions,
    exponent_code,
    exponent_of_code,
    group_action_fractions,
    is_singular_at,
    jucys_murphy_fractions,
    monomial,
)


def random_poly(rng, shape, deg=2, nterms=3):
    n = sum(shape)
    dim = len(enumerate_rsyt(shape))
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        tab = rng.randrange(dim)
        coeff = RatFunc.from_int(rng.randint(-3, 3)) + KAPPA * rng.randint(-1, 1)
        if coeff:
            terms[(exp, tab)] = coeff
    return VectorPoly(shape, terms)


SHAPES = [(2, 2), (3, 1), (2, 1, 1), (3, 1, 1)]


def test_dunkl_kills_constants():
    for shape in SHAPES:
        n = sum(shape)
        p = monomial(shape, (0,) * n, 0)
        for i in range(1, n + 1):
            assert dunkl(i, p).is_zero()


def test_cherednik_prime_content_on_constants():
    for shape in SHAPES:
        ctx = tau_context(shape)
        n = sum(shape)
        for t, tab in enumerate(ctx.tableaux):
            p = monomial(shape, (0,) * n, t)
            for i in range(1, n + 1):
                expected = p.scale(RatFunc.from_int(tab.content(i)))
                assert cherednik_prime(i, p) == expected


def test_jucys_murphy_top_is_zero():
    rng = random.Random(0)
    for shape in SHAPES:
        p = random_poly(rng, shape)
        assert jucys_murphy(sum(shape), p).is_zero()


def test_cherednik_identity_vs_definition():
    rng = random.Random(1)
    for shape in [(2, 2), (2, 1, 1)]:
        for _ in range(6):
            p = random_poly(rng, shape)
            for i in range(1, sum(shape) + 1):
                assert cherednik(i, p) == cherednik_from_definition(i, p)


def test_dunkl_commutation():
    rng = random.Random(2)
    for shape in [(2, 2), (2, 1, 1)]:
        for _ in range(4):
            p = random_poly(rng, shape, deg=2, nterms=2)
            n = sum(shape)
            for i, j in [(1, 2), (2, n), (1, n)]:
                assert dunkl(i, dunkl(j, p)) == dunkl(j, dunkl(i, p))


def test_cherednik_commutation():
    rng = random.Random(3)
    shape = (2, 1, 1)
    for _ in range(4):
        p = random_poly(rng, shape, deg=2, nterms=2)
        for i, j in [(1, 3), (2, 4), (1, 4)]:
            assert cherednik(i, cherednik(j, p)) == cherednik(j, cherednik(i, p))


def test_w_conjugates_dunkl():
    rng = random.Random(4)
    shape = (2, 1, 1)
    n = 4
    for _ in range(6):
        p = random_poly(rng, shape, deg=2, nterms=2)
        w = tuple(rng.sample(range(1, n + 1), n))
        i = rng.randint(1, n)
        assert group_action(w, dunkl(i, p)) == dunkl(w[i - 1], group_action(w, p))


def test_braid_style_cherednik_conjugation():
    rng = random.Random(5)
    shape = (2, 2)
    n = 4
    for _ in range(5):
        p = random_poly(rng, shape, deg=2, nterms=2)
        for i in range(1, n):
            s = transposition(n, i, i + 1)
            sp = group_action(s, p)
            # s_i U_i s_i = U_{i+1} + kappa s_i
            lhs = group_action(s, cherednik(i, sp))
            rhs = cherednik(i + 1, p) + sp.scale(KAPPA)
            assert lhs == rhs
            # U_i s_i = s_i U_{i+1} + kappa
            assert cherednik(i, sp) == group_action(s, cherednik(i + 1, p)) + p.scale(
                KAPPA
            )


def test_jucys_murphy_conjugation():
    rng = random.Random(6)
    shape = (3, 1)
    n = 4
    for _ in range(5):
        p = random_poly(rng, shape, deg=1, nterms=2)
        for i in range(1, n):
            s = transposition(n, i, i + 1)
            lhs = group_action(s, jucys_murphy(i, group_action(s, p)))
            assert lhs == jucys_murphy(i + 1, p) + group_action(s, p)
        for i in range(1, n + 1):
            for j in range(1, n):
                if abs(i - j) >= 2:
                    s = transposition(n, j, j + 1)
                    assert group_action(s, jucys_murphy(i, p)) == jucys_murphy(
                        i, group_action(s, p)
                    )


def test_singularity_criterion_equivalence():
    # D_i p = 0 at kappa0 iff U'_i p = omega_i p there
    rng = random.Random(8)
    shape = (2, 2)
    kappa0 = Fraction(2, 7)
    for _ in range(8):
        p = random_poly(rng, shape, deg=2, nterms=3).map_coefficients(
            lambda c: c.evaluate(kappa0)
        )
        for i in range(1, 5):
            d_zero = dunkl(i, p, kappa0).is_zero()
            jm_match = cherednik_prime(i, p, kappa0) == jucys_murphy(i, p)
            assert d_zero == jm_match
    assert is_singular_at(monomial(shape, (0, 0, 0, 0), 0), kappa0)


def test_uprime_column_matches_operator():
    # integer matrix assembly, divided by the shape's transposition
    # denominator D, agrees with the generic operator on single monomials at
    # every index; exponents from 0..4 give both ties and gaps above 1, and
    # the offsets decode back to (exp, row) in the smallest base, degree + 1
    rng = random.Random(9)
    ties = gaps = 0
    for shape in [(2, 2), (3, 1, 1), (2, 2, 2), (1,) * 8, (2, 2, 2, 2)]:
        ctx = tau_context(shape)
        n = sum(shape)
        big_d = ctx.denominator
        for _ in range(3):
            exp = tuple(rng.randint(0, 4) for _ in range(n))
            ties += len(set(exp)) < n
            gaps += any(abs(a - b) > 1 for a in exp for b in exp)
            tab = rng.randrange(ctx.dim)
            p = monomial(shape, exp, tab)
            base = sum(exp) + 1
            origin = exponent_code(exp, base) * ctx.dim
            for i in range(1, n + 1):
                a, b, offsets, bs = uprime_column(i, exp, tab, ctx, base)
                assert len(offsets) == len(bs)
                assert all(type(c) is int for c in (a, b, *offsets, *bs))
                col = {(exp, tab): (a, b)}
                for offset, c in zip(offsets, bs):
                    code, row = divmod(origin + offset, ctx.dim)
                    key = (exponent_of_code(code, base, n), row)
                    assert key not in col and sum(key[0]) == sum(exp)
                    col[key] = (0, c)
                expected = cherednik_prime(i, p)
                rebuilt = VectorPoly(
                    shape,
                    {
                        key: RatFunc.kappa_inverse() * Fraction(a, big_d)
                        + RatFunc.from_fraction(Fraction(b, big_d))
                        for key, (a, b) in col.items()
                    },
                )
                assert rebuilt == expected, (shape, exp, tab, i)
    assert ties and gaps
    # (1^8) is the shape of the (1, 4) construction in the benchmark
    assert tau_context((1,) * 8).denominator == 1
    assert tau_context((2, 2, 2, 2)).denominator == 1296


def random_rational_poly(rng, shape, deg=2, nterms=6, wide=False):
    n = sum(shape)
    dim = len(enumerate_rsyt(shape))
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        if wide:
            top = 1 << 200
            coeff = Fraction(rng.randint(-top, top), rng.randint(1, 1 << 64))
        else:
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        if coeff:
            terms[(exp, rng.randrange(dim))] = coeff
    return VectorPoly(shape, terms)


def random_generic_poly(rng, shape, deg=2, nterms=4, mixed=False):
    """RatFunc coefficients with kappa-numerators up to 2^200 over small
    denominators; with ``mixed``, about half the terms are Fractions."""
    n = sum(shape)
    dim = len(enumerate_rsyt(shape))
    top = 1 << 200
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        if mixed and rng.random() < 0.5:
            coeff = Fraction(rng.randint(-top, top), rng.randint(1, 12))
        else:
            num = [rng.randint(-top, top) for _ in range(rng.randint(1, 3))]
            coeff = RatFunc(num, (rng.randint(1, 9), rng.randint(-4, 4)))
        if coeff:
            terms[(exp, rng.randrange(dim))] = coeff
    return VectorPoly(shape, terms)


def assert_kernels_match(rng, p, kappas):
    n = p.n
    for i in range(1, n + 1):
        for kappa0 in kappas:
            assert dunkl(i, p, kappa0) == dunkl_fractions(i, p, kappa0)
        assert jucys_murphy(i, p) == jucys_murphy_fractions(i, p)
    w = tuple(rng.sample(range(1, n + 1), n))
    assert group_action(w, p) == group_action_fractions(w, p)
    # a list of permutations acts by its sum in the group algebra
    ws = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
    ws.append(ws[0])
    total = VectorPoly.zero(p.shape)
    for v in ws:
        total = total + group_action_fractions(v, p)
    assert group_action(ws, p) == total
    assert group_action([], p).is_zero()


def test_integer_kernels_match_fraction_formulas():
    # dunkl, group_action and jucys_murphy pack each exponent's tableau
    # vector into one integer; compare with the term-by-term formulas of
    # the oracles on small and on wide Fraction coefficients, and on the
    # 1-dim (1^6)
    rng, generic = random.Random(10), random.Random(11)
    for shape in [(2, 2), (3, 1, 1), (2, 2, 2, 2), (1,) * 6]:
        n = sum(shape)
        for kappa0 in (Fraction(2, 7), Fraction(-1, 4), Fraction(3)):
            for wide in (False, False, True):
                p = random_rational_poly(rng, shape, wide=wide)
                assert_kernels_match(rng, p, [kappa0])
        # over Q(kappa) the same kernels run once at a Kronecker point:
        # generic and rational kappa on RatFunc coefficients with numerators
        # up to 2^200, on mixed Fraction and RatFunc terms, and on the zero
        # and a constant polynomial (degree 0, so factor 0)
        constant = RatFunc([3, -(1 << 200)], [1, 5])
        for p in (
            random_generic_poly(generic, shape),
            random_generic_poly(generic, shape, mixed=True),
            VectorPoly.zero(shape),
            monomial(shape, (0,) * n, 0, constant),
        ):
            assert_kernels_match(generic, p, [KAPPA, Fraction(2, 7)])
        with pytest.raises(ValueError, match="rational or KAPPA"):
            dunkl(1, p, 2 * KAPPA)


def test_packed_decode_raises_on_overflow():
    # three digits of width 8 fit; a fourth digit is a residual, and so is
    # a top digit that spills over by its sign
    assert unpack(5 - (3 << 8) + (127 << 16), 8, 3) == [(0, 5), (1, -3), (2, 127)]
    for value in (1 << 24, 128 << 16, -(129 << 16)):
        with pytest.raises(ValueError, match="overflows 3 digits"):
            unpack(value, 8, 3)
    assert unpack(-(128 << 16), 8, 3) == [(2, -128)]


@pytest.mark.parametrize(
    "op",
    [
        lambda i, p: dunkl(i, p),
        lambda i, p: dunkl(i, p, Fraction(1, 3)),
        lambda i, p: jucys_murphy(i, p),
        lambda i, p: cherednik(i, p),
        lambda i, p: cherednik_prime(i, p, Fraction(1, 3)),
    ],
    ids=["dunkl", "dunkl_at_kappa", "jucys_murphy", "cherednik", "cherednik_prime"],
)
@pytest.mark.parametrize("i", [-1, 0, 5])
def test_operator_index_outside_1_to_n_raises(op, i):
    # exp[i - 1] would wrap around for i <= 0 and overrun for i > n
    p = monomial((2, 2), (1, 0, 2, 0), 0, Fraction(1))
    with pytest.raises(ValueError, match="outside 1..4"):
        op(i, p)


def canonical_text(p) -> str:
    """The terms of p in sorted order, each coefficient in lowest terms."""
    lines = []
    for (exp, tab), c in sorted(p.terms.items()):
        if isinstance(c, RatFunc):
            text = f"{list(c.num)}/{list(c.den)}"
        else:
            q = Fraction(c)
            text = f"{q.numerator}/{q.denominator}"
        lines.append(f"{exp} {tab} {text}")
    return "\n".join(lines) + "\n"


# sha256 of the images below as computed before the operators' packed
# bodies became the shared kernels (dunkl_kernel, action_kernel)
IMAGES_SHA256 = "30f2bcddff363cc9b00544f4b59ed9f9ea56df72b61278376223f051e2ae26a7"


def test_operator_images_are_unchanged_on_seeded_inputs():
    rng = random.Random(12)
    digest = hashlib.sha256()
    images = 0
    for shape in [(2, 2), (2, 1, 1), (3, 2), (1,) * 5]:
        n = sum(shape)
        polys = [
            random_rational_poly(rng, shape),
            random_rational_poly(rng, shape, deg=3, wide=True),
            random_generic_poly(rng, shape),
            random_generic_poly(rng, shape, mixed=True),
        ]
        for p in polys:
            for kappa0 in (None, Fraction(2, 7), Fraction(-3, 4)):
                for i in range(1, n + 1):
                    for op in (dunkl, cherednik_prime):
                        digest.update(canonical_text(op(i, p, kappa0)).encode())
                        images += 1
            for i in range(1, n + 1):
                digest.update(canonical_text(jucys_murphy(i, p)).encode())
            ws = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
            for w in (ws[0], ws):
                digest.update(canonical_text(group_action(w, p)).encode())
            images += n + 2
    assert images == 536
    assert digest.hexdigest() == IMAGES_SHA256


@pytest.mark.parametrize("kappa", [0, Fraction(0)])
def test_cherednik_prime_rejects_kappa_zero_on_both_operands(kappa):
    # U'_i has 1/kappa: kappa = 0 is a ValueError, not a ZeroDivisionError
    from nsjack.vectorpoly import pack

    p = monomial((2, 1), (1, 0, 0), 0, Fraction(1))
    with pytest.raises(ValueError, match="kappa = 0"):
        cherednik_prime(1, p, kappa)
    with pytest.raises(ValueError, match="kappa = 0"):
        cherednik_prime((1, 2), pack(tau_context((2, 1)), p.terms, 8), kappa)


# ---------------------------------------------------------------------------
# the one-pass packed U'_i residuals against the per-index VectorPoly operator
# ---------------------------------------------------------------------------


def homogeneous_integer_poly(rng, shape, deg, nterms=6):
    """Integer coefficients on random exponents of degree deg, plus one
    monomial whose one nonzero entry deg + 2 lies above that degree."""
    n = sum(shape)
    dim = len(enumerate_rsyt(shape))
    terms = {}
    for _ in range(nterms):
        exp = [0] * n
        for _ in range(deg):
            exp[rng.randrange(n)] += 1
        coeff = rng.choice([-1, 1]) * rng.randint(1, 9)
        terms[(tuple(exp), rng.randrange(dim))] = coeff
    stray = [0] * n
    stray[rng.randrange(n)] = deg + 2
    terms[(tuple(stray), rng.randrange(dim))] = rng.randint(1, 9)
    return VectorPoly(shape, terms)


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (2, 1), (3, 2)], ids=["dim1", "dim2", "dim5"]
)
def test_packed_cherednik_prime_residuals_match_the_operator(shape):
    # lam D (U'_i - zeta'_i) N from one pass, keyed by exponent codes, equals
    # lam D U'_i N - D (a mu + c lam) N on VectorPoly for every requested
    # index, also when only one index of a pair {i, j} is requested; the
    # stray monomial above the degree makes a base from the degree collide
    from nsjack.operators import cherednik_factor
    from nsjack.vectorpoly import from_packed, pack, packed_width, top_exponent

    rng = random.Random(47)
    n = sum(shape)
    ctx = tau_context(shape)
    big_d = ctx.denominator
    subsets = [tuple(range(1, n + 1)), (1,), (n,), (2,), (n, 1), (2, n - 1, 1)]
    for kappa in (1 << 20, -7, Fraction(-3, 4)):
        lam, mu = Fraction(kappa).as_integer_ratio()
        for deg in (1, 2, 3):
            poly = homogeneous_integer_poly(rng, shape, deg)
            spectrum = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            top = top_exponent(exp for exp, _ in poly.terms)
            assert top == deg + 2
            factor = max(
                cherednik_factor(ctx, i, top, lam, mu)
                + big_d * (abs(a) * mu + abs(c) * abs(lam))
                for i, (a, c) in enumerate(spectrum, 1)
            )
            width = packed_width(sum(map(abs, poly.terms.values())) * factor)
            packed = pack(ctx, poly.terms, width)
            for indices in subsets:
                residuals = cherednik_prime(indices, packed, kappa, spectrum)
                assert len(residuals) == len(indices)
                for i, acc in zip(indices, residuals):
                    a, c = spectrum[i - 1]
                    by_exp = {
                        exponent_of_code(code, top + 1, n): v for code, v in acc.items()
                    }
                    got = from_packed(shape, by_exp, width, 1)
                    operator = cherednik_prime(i, poly, kappa).scale(lam * big_d)
                    want = operator - poly.scale(big_d * (a * mu + c * lam))
                    assert got == want, (kappa, deg, indices, i)
            with pytest.raises(ValueError, match="outside"):
                cherednik_prime((1, n + 1), packed, kappa)
