"""Dunkl, Cherednik-Dunkl and Jucys-Murphy operators on vector-valued
polynomials.

All operators are exact and work either at generic parameter (RatFunc
coefficients) or at a fixed rational value (int or Fraction coefficients);
pass the matching ``kappa``.  Divided differences are evaluated by the closed
telescoping formula for monomials, which is the exact quotient by
``x_i - x_j``.

The seminormal matrices enter as integers over a common denominator.  The
Dunkl operator and the group action (so also the Jucys-Murphy elements, one
group-algebra sum each) clear the input's denominators and pack each
exponent's tableau vector into one integer (``vectorpoly.packed_columns``):
a transposition's image of an exponent is one sum of
coefficient-times-column products, and each monomial of a divided
difference costs one integer addition.  A digit width proved from the
input's 1-norm makes the packing overflow-free, and one division per term
ends it.  Over Q(kappa) the same kernels run once at the integer Kronecker
point kappa = 2^w on the cleared numerators (``vectorpoly.over_q_kappa``).
The generic eigen equations are checked on the rational path too:
``jack.verify_eigen_equations`` runs ``cherednik_prime`` at one integer
Kronecker point on cleared numerators.  ``uprime_column`` builds U'_i
columns on the same integer scale for the projection constructor, with rows
addressed by integer exponent codes; the operators above do not use it, so
the eigen check stays independent of the constructor.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import transposition
from .ratfunc import KAPPA, RatFunc
from .vectorpoly import (
    VectorPoly,
    by_exponent,
    column_norm,
    from_packed,
    group_action,
    over_q_kappa,
    packed_columns,
    packed_width,
    tau_context,
)


def _check_index(i: int, p: VectorPoly) -> None:
    """Operators are indexed 1..n; a ValueError for any other index (the
    Cherednik operators reach this through ``dunkl``)."""
    if not 1 <= i <= p.n:
        raise ValueError(f"operator index {i} outside 1..{p.n}")


def dunkl(i: int, p: VectorPoly, kappa=None) -> VectorPoly:
    """Dunkl operator: partial derivative plus kappa times the sum of divided
    differences twisted by the transposition action.

    For j != i, with e = exp_i and q = exp_j, the divided difference of a
    monomial is the sum of the monomials of exp with (exp_i, exp_j) replaced
    by (v, e + q - 1 - v) for v in min(e, q)..max(e, q) - 1, with sign +1
    when q < e and -1 when q > e.  At a rational kappa = lam / mu the input
    is cleared to integers over L and each exponent's tableau vector packed
    into one integer; the image is accumulated as mu * D * L times its value
    over the integer transposition matrices D tau(ij) (D =
    ``ctx.denominator``), and one division per term ends it.  The image of
    an exponent under D tau(ij), lam times the packed columns, is formed
    once per j, and each monomial of the divided difference adds it with its
    sign.  Over Q(kappa) (``kappa`` None or ``KAPPA``) the same body runs at
    the Kronecker point lam = K, mu = 1 (``over_q_kappa``), and so does a
    rational kappa on RatFunc coefficients; any other RatFunc kappa is a
    ValueError.

    Digit width.  Let ||c||_1 be the sum of the absolute cleared
    coefficients, deg the largest exponent in the input, and A_j the largest
    column 1-norm of D tau(ij).  A term c x^exp (x) T with e = exp_i sends
    |c| e mu D into one output digit through the derivative and, for each
    j != i, |c| |lam| times a column 1-norm of D tau(ij) into the digits of
    each of its |e - q| <= deg monomials.  So every output digit is at most

        ||c||_1 * factor,  factor = deg * (mu D + |lam| * sum_j A_j)

    in absolute value, and the width holds that bound.  The packed integers
    are the digit vectors at 2^width, a Z-linear map, so ``unpack``
    recovers each digit exactly.  Over Q(kappa) the image of the cleared
    numerators N is R = D E N + kappa D T N (E the derivative, T the
    twisted divided differences), and lam = mu = 1 give the factor that
    bounds its digits for ``over_q_kappa``.
    """
    _check_index(i, p)
    ctx = tau_context(p.shape)
    row = ctx.scaled_transpositions(i)
    tcols = {j: cols for j, cols in enumerate(row, 1) if cols is not None}
    spread = sum(map(column_norm, tcols.values()))
    if kappa is None:
        kappa = KAPPA
    generic = isinstance(kappa, RatFunc)
    if generic and kappa != KAPPA:
        raise ValueError(f"kappa must be rational or KAPPA, not {kappa}")
    lam, mu = (1, 1) if generic else Fraction(kappa).as_integer_ratio()
    scale = mu * ctx.denominator

    def factor(exps, at):
        return max(map(max, exps), default=0) * (scale + abs(at) * spread)

    def packed(cleared, point=None):
        at = point if generic else lam
        den, coeffs = cleared
        groups = by_exponent(coeffs)
        width = packed_width(sum(map(abs, coeffs.values())) * factor(groups, at))
        columns = {j: packed_columns(cols, width, at) for j, cols in tcols.items()}
        acc = {}
        for exp, entries in groups.items():
            e = exp[i - 1]
            if e:
                key = exp[: i - 1] + (e - 1,) + exp[i:]
                vec = sum(c << (width * tab) for tab, c in entries)
                acc[key] = acc.get(key, 0) + e * scale * vec
            moved = list(exp)
            for j, cols in columns.items():
                q = exp[j - 1]
                if q == e:
                    continue
                image = sum(c * cols[tab] for tab, c in entries)
                if q > e:
                    image = -image
                for v in range(min(e, q), max(e, q)):
                    moved[i - 1], moved[j - 1] = v, e + q - 1 - v
                    key = tuple(moved)
                    acc[key] = acc.get(key, 0) + image
                moved[i - 1], moved[j - 1] = e, q
        return from_packed(p.shape, acc, width, den * scale)

    cleared = None if generic else p.cleared()
    if cleared is None:
        return over_q_kappa(p, scale, factor(p.monomial_support(), lam), packed)
    return packed(cleared)


def jucys_murphy(i: int, p: VectorPoly) -> VectorPoly:
    """Sum of transpositions (i, j) over j > i acting on the module, as one
    group-algebra element; the top index gives the zero operator."""
    _check_index(i, p)
    return group_action([transposition(p.n, i, j) for j in range(i + 1, p.n + 1)], p)


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


def uprime_column(i: int, exp, tab: int, ctx, base: int) -> tuple:
    """Column of the modified Cherednik-Dunkl operator on one basis monomial,
    times the shape's transposition denominator D = ``ctx.denominator``, with
    its rows addressed by integer exponent codes.

    Returns (a, b, offsets, bs): the diagonal entry (a * (1/kappa) + b) / D
    at (exp, tab) and the other entries bs[t] / D, the one at (target, row)
    stored at offsets[t] = (code(target) - code(exp)) * dim + row, with
    code(e) = sum_t e_t * base^(t-1) and dim = ``ctx.dim``.  Only the
    diagonal carries a 1/kappa part.

    For j != i, with p = exp_i and q = exp_j, x_i times the divided
    difference is the sum of the monomials of exp with (exp_i, exp_j)
    replaced by (v, p + q - v), with sign +1 for v in q+1..p when q < p and
    sign -1 for v in p+1..q when q > p.  The Jucys-Murphy swap (j > i) is
    the same replacement at v = q with sign +1: it fixes exp when q = p,
    adds the term v = q when q < p and cancels it when q > p.  The term
    v = p is exp itself; every other monomial differs from exp at exactly
    the positions i and j, so no two pairs (j, v) meet and only the rows at
    exp accumulate.  All images stay within the order ideal of the leading
    exponent.

    Codes.  A replacement keeps the degree of exp and leaves entries in
    0..p + q, so when base exceeds the degree of exp, a target's entries
    are the digits of its code in base ``base`` and the code determines
    the target.  The replacement changes the code by
    (v - p) * (base^(i-1) - base^(j-1)), so the offsets of one row over a
    run of v are a ``range`` with that step times dim.
    """
    e = exp[i - 1]
    dim = ctx.dim
    unit = base ** (i - 1) * dim
    offsets, bs = [], []
    at_exp = {}
    for j, (q, tcols) in enumerate(zip(exp, ctx.scaled_transpositions(i)), 1):
        if tcols is None or (q == e and j < i):
            continue  # j = i, or no divided difference and no swap
        tcol = tcols[tab]
        if q <= e:
            # the telescoped term at exp itself, or the swap fixing exp
            for row, c in tcol:
                at_exp[row] = at_exp.get(row, 0) + c
        # the terms v != p; for j > i the swap adds (q < p) or cancels v = q
        if q < e:
            lo, hi, sign = q + (j < i), e, 1
        else:
            lo, hi, sign = e + 1, q + (j < i), -1
        if lo < hi:
            step = unit - base ** (j - 1) * dim
            start, stop = (lo - e) * step, (hi - e) * step
            for row, c in tcol:
                offsets += range(start + row, stop + row, step)
                bs += [sign * c] * (hi - lo)
    b = at_exp.pop(tab, 0)
    for row, c in at_exp.items():
        if c:
            offsets.append(row)
            bs.append(c)
    return e * ctx.denominator, b, offsets, bs
