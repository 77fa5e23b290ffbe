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
    the diagonal carries a 1/kappa part.  For j != i, with p = exp_i and
    q = exp_j, x_i times the divided difference is the sum of the monomials
    of exp with (exp_i, exp_j) replaced by (v, p + q - v), with sign +1 for
    v in q+1..p when q < p and sign -1 for v in p+1..q when q > p.  The
    Jucys-Murphy swap (j > i) is the same replacement at v = q with sign +1:
    it fixes exp when q = p, adds the term v = q when q < p and cancels it
    when q > p.  The term v = p is exp itself; every other monomial differs
    from exp at exactly the positions i and j, so no two pairs (j, v) meet
    and only the rows at exp accumulate.  All images stay within the order
    ideal of the leading exponent.
    """
    e = exp[i - 1]
    col = {}
    at_exp = {}
    moved = list(exp)
    for j in range(1, len(exp) + 1):
        if j == i:
            continue
        tcol = ctx.scaled_transposition(i, j)[tab]
        q = exp[j - 1]
        if q < e or (q == e and j > i):
            # the telescoped term at exp itself, or the swap fixing exp
            for row, c in tcol:
                at_exp[row] = at_exp.get(row, 0) + c
        # the terms v != p; for j > i the swap adds (q < p) or cancels v = q
        if q < e:
            values, sign = range(q + (j < i), e), 1
        else:
            values, sign = range(e + 1, q + (j < i)), -1
        for v in values:
            moved[i - 1], moved[j - 1] = v, e + q - v
            key_exp = tuple(moved)
            for row, c in tcol:
                col[(key_exp, row)] = (0, sign * c)
        moved[i - 1], moved[j - 1] = e, q
    for row, b in at_exp.items():
        if b:
            col[(exp, row)] = (0, b)
    if e:
        col[(exp, tab)] = (e * ctx.denominator, at_exp.get(tab, 0))
    return col
