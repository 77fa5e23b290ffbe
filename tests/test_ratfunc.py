"""Field arithmetic in Q(kappa): canonical forms, axioms, specialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsjack.ratfunc import (
    KAPPA,
    PoleAtKappa,
    RatFunc,
    clear_denominators,
    format_rational,
    parse_rational,
)

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(tuple)


@st.composite
def ratfuncs(draw):
    num = draw(small_polys)
    den = draw(small_polys.filter(lambda t: any(t)))
    return RatFunc(num, den)


def test_examples_from_contract():
    k = KAPPA
    inv_k = RatFunc.kappa_inverse()
    assert inv_k + k == RatFunc((1, 0, 1), (0, 1))  # (1 + k^2)/k
    a = RatFunc((3, 1, 4), (1, 5))
    assert not (a - a)
    assert RatFunc((1, 0, -1), (1, -1)) == RatFunc((1, 1))  # (1-k^2)/(1-k) = 1+k


def test_canonical_form_examples():
    assert RatFunc((2, 2), (2,)) == RatFunc((1, 1))
    assert RatFunc((3,), (2,)).num == (3,)
    assert RatFunc((0, 2), (0, -4)) == RatFunc.from_fraction(Fraction(-1, 2))
    # denominator sign fixed positive
    f = RatFunc((1,), (-1, -2))
    assert f.den[-1] > 0


@settings(max_examples=200)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if a:
        assert a * a.inverse() == RatFunc.from_int(1)
        assert (b / a) * a == b


@settings(max_examples=200)
@given(ratfuncs(), ratfuncs())
def test_canonical_uniqueness(a, b):
    assert (a == b) == (not (a - b))


@settings(max_examples=150)
@given(ratfuncs(), ratfuncs(), st.integers(-6, 6), st.integers(1, 6))
def test_evaluate_is_homomorphism(a, b, p, q):
    x = Fraction(p, q)
    try:
        va, vb = a.evaluate(x), b.evaluate(x)
        vs = (a + b).evaluate(x)
        vm = (a * b).evaluate(x)
    except PoleAtKappa:
        return
    assert vs == va + vb
    assert vm == va * vb


def test_evaluate_examples():
    f = RatFunc((1,), (1, -2))  # 1/(1 - 2k)
    assert f.evaluate(Fraction(1, 4)) == 2
    with pytest.raises(PoleAtKappa):
        f.evaluate(Fraction(1, 2))
    g = RatFunc((0, 1), (-1, 4))  # k/(4k - 1)
    with pytest.raises(PoleAtKappa):
        g.evaluate(Fraction(1, 4))
    assert RatFunc.from_int(0).evaluate(Fraction(7, 3)) == 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFunc.from_int(1) / RatFunc.from_int(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc.from_int(0).inverse()
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), ())


def test_interop_with_int_and_fraction():
    k = KAPPA
    assert 2 * k == k + k
    assert Fraction(1, 2) * k == k / 2
    assert k - 1 == -(1 - k)
    assert (k * 4 + 1).evaluate(Fraction(1, 4)) == 2


def test_json_round_trip():
    f = RatFunc((1, 0, -3), (2, 5))
    assert RatFunc.from_json(f.to_json()) == f
    assert f.to_json() == {"num": ["1", "0", "-3"], "den": ["2", "5"]}


def test_rational_strings():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(5)) == "5"


def test_evaluate_rejects_a_form_that_is_not_reduced():
    forged = RatFunc((-1, 1), (-1, 1), _canonical=True)  # (k - 1) / (k - 1)
    with pytest.raises(ValueError, match="not reduced"):
        forged.evaluate(1)


@settings(max_examples=100)
@given(st.lists(ratfuncs(), min_size=1, max_size=6))
def test_clear_denominators_gives_one_common_multiple(values):
    q, numerators = clear_denominators(values)
    assert q[-1] > 0
    for value, num in zip(values, numerators):
        assert RatFunc(num, q) == value
        # q is a multiple of every denominator
        assert RatFunc(q, value.den).den == (1,)
