"""Dunkl, Cherednik-Dunkl and Jucys-Murphy operators on vector-valued
polynomials.

All operators are exact and work either at generic parameter (RatFunc
coefficients) or at a fixed rational value (int or Fraction coefficients);
pass the matching ``kappa``.  Divided differences are evaluated by the closed
telescoping formula for monomials, which is the exact quotient by
``x_i - x_j``.

The seminormal matrices enter as integers over a common denominator, and at
a rational kappa the Dunkl operator and the group action clear the input's
denominators and run on integers, dividing once per term at the end; a zero
image costs no fraction at all.  The generic eigen equations are checked on
this rational path too: ``jack.verify_eigen_equations`` runs
``cherednik_prime`` at one integer Kronecker point on cleared numerators.
``uprime_column`` builds U'_i columns on the same integer scale for the
projection constructor.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import transposition
from .ratfunc import KAPPA, RatFunc
from .vectorpoly import VectorPoly, group_action, tau_context


def _divided_difference_monomials(exp, i, j):
    """Monomials of x_i * (x^exp - x^{exp swapped at i,j}) / (x_i - x_j),
    yielded as (exponent, sign). Empty when exp_i == exp_j."""
    p, q = exp[i - 1], exp[j - 1]
    if p == q:
        return
    base = list(exp)
    if p > q:
        for t in range(p - q):
            base[i - 1] = q + t + 1
            base[j - 1] = p - 1 - t
            yield tuple(base), 1
    else:
        for t in range(q - p):
            base[i - 1] = p + t + 1
            base[j - 1] = q - 1 - t
            yield tuple(base), -1


def _check_index(i: int, p: VectorPoly) -> None:
    """Operators are indexed 1..n; a ValueError for any other index (the
    Cherednik operators reach this through ``dunkl``)."""
    if not 1 <= i <= p.n:
        raise ValueError(f"operator index {i} outside 1..{p.n}")


def dunkl(i: int, p: VectorPoly, kappa=None) -> VectorPoly:
    """Dunkl operator: partial derivative plus kappa times the sum of divided
    differences twisted by the transposition action.

    The image is accumulated as mu * D * L times its value over the integer
    transposition matrices (D = ``ctx.denominator``).  At a rational kappa =
    lam / mu, rational coefficients are cleared to integers over L and the
    whole sum is integer arithmetic; otherwise lam = kappa, mu = L = 1 and
    the coefficients stay field elements.  One division per term ends it.
    """
    _check_index(i, p)
    ctx = tau_context(p.shape)
    if kappa is None:
        kappa = KAPPA
    cleared = None if isinstance(kappa, RatFunc) else p.cleared()
    if cleared is None:
        den, coeffs, lam, mu = 1, p.terms, kappa, 1
    else:
        kappa = Fraction(kappa)
        (den, coeffs), lam, mu = cleared, kappa.numerator, kappa.denominator
    derivative = mu * ctx.denominator
    tcols = {j: ctx.scaled_transposition(i, j) for j in range(1, p.n + 1) if j != i}
    moves = {}  # exponent -> (transposition columns, monomial, sign) triples
    acc = {}
    for (exp, tab), c in coeffs.items():
        e = exp[i - 1]
        if e:
            key = (exp[: i - 1] + (e - 1,) + exp[i:], tab)
            acc[key] = acc.get(key, 0) + c * (e * derivative)
        exp_moves = moves.get(exp)
        if exp_moves is None:
            # x_i * divided difference carries one extra power of x_i; strip it
            exp_moves = moves[exp] = [
                (cols, m[: i - 1] + (m[i - 1] - 1,) + m[i:], sign)
                for j, cols in tcols.items()
                for m, sign in _divided_difference_monomials(exp, i, j)
            ]
        if exp_moves:
            lc = lam * c
            for cols, key_exp, sign in exp_moves:
                for row, t in cols[tab]:
                    key = (key_exp, row)
                    acc[key] = acc.get(key, 0) + lc * (sign * t)
    return VectorPoly.from_cleared(p.shape, acc, den * derivative)


def jucys_murphy(i: int, p: VectorPoly) -> VectorPoly:
    """Sum of transpositions (i, j) over j > i acting on the module; the
    top index gives the zero operator."""
    _check_index(i, p)
    out = VectorPoly.zero(p.shape)
    for j in range(i + 1, p.n + 1):
        out = out + group_action(transposition(p.n, i, j), p)
    return out


def _x_dunkl(i: int, p: VectorPoly, kappa) -> VectorPoly:
    e_i = tuple(int(t == i - 1) for t in range(p.n))
    return dunkl(i, p, kappa).mul_monomial(e_i)


def cherednik(i: int, p: VectorPoly, kappa=None) -> VectorPoly:
    """Cherednik-Dunkl operator x_i D_i + 1 + kappa * sum_{j>i} (i,j)."""
    if kappa is None:
        kappa = KAPPA
    return _x_dunkl(i, p, kappa) + p + jucys_murphy(i, p).scale(kappa)


def cherednik_prime(i: int, p: VectorPoly, kappa=None) -> VectorPoly:
    """Modified operator (1/kappa) x_i D_i + omega_i, with spectrum
    alpha_i / kappa + content on the Jack basis."""
    if kappa is None:
        inv = RatFunc.kappa_inverse()
        kappa = KAPPA
    else:
        inv = Fraction(1) / Fraction(kappa)
    return _x_dunkl(i, p, kappa).scale(inv) + jucys_murphy(i, p)


# ---------------------------------------------------------------------------
# matrix assembly on a fixed basis (used by the projection constructor)
# ---------------------------------------------------------------------------


def uprime_column(i: int, exp, tab: int, ctx) -> dict:
    """Column of the modified Cherednik-Dunkl operator on one basis monomial,
    times the shape's transposition denominator D = ``ctx.denominator``.

    Entries are integer pairs (a, b) meaning (a * (1/kappa) + b) / D; only
    the diagonal carries a 1/kappa part.  The departing monomial of each
    telescoped difference cancels against the Jucys-Murphy term for j > i,
    so all images stay within the order ideal of the leading exponent.
    """
    consts = {}
    e = exp[i - 1]
    for j in range(1, len(exp) + 1):
        if j == i:
            continue
        tcol = ctx.scaled_transposition(i, j)[tab]
        if exp[j - 1] != e:
            for new_exp, sign in _divided_difference_monomials(exp, i, j):
                for row, c in tcol:
                    key = (new_exp, row)
                    consts[key] = consts.get(key, 0) + sign * c
        if j > i:
            swapped = list(exp)
            swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
            swapped = tuple(swapped)
            for row, c in tcol:
                key = (swapped, row)
                consts[key] = consts.get(key, 0) + c
    col = {key: (0, b) for key, b in consts.items() if b}
    if e:
        col[(exp, tab)] = (e * ctx.denominator, consts.get((exp, tab), 0))
    return col
