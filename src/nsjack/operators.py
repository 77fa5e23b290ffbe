"""Dunkl, Cherednik-Dunkl and Jucys-Murphy operators on vector-valued
polynomials.

All operators are exact and work either at generic parameter (RatFunc
coefficients) or at a fixed rational value (int or Fraction coefficients);
pass the matching ``kappa``.  Divided differences are evaluated by the closed
telescoping formula for monomials, which is the exact quotient by
``x_i - x_j``.

The seminormal matrices enter as integers over a common denominator.  Each
operator has one integer-accumulator kernel: ``dunkl_kernel`` here and
``vectorpoly.action_kernel`` for the group action (so also for the
Jucys-Murphy elements, one group-algebra sum each).  A kernel takes the
input cleared of denominators and grouped by exponent, a
``vectorpoly.Packed`` operand, packs tableau vectors into one integer each
at the operand's width, and adds its image to packed accumulators: a
transposition's image of an exponent is one sum of coefficient-times-column
products, and each monomial of a divided difference costs one integer
addition.  The public operators ``dunkl`` and ``group_action`` wrap the
kernels with ``vectorpoly.apply_packed``: a digit width proved from the
input's 1-norm makes the packing overflow-free, and one division per term
ends it.  Over Q(kappa) the kernels run once at the integer Kronecker point
kappa = 2^w on the cleared numerators (``vectorpoly.over_q_kappa``).
``cherednik`` and ``cherednik_prime`` combine ``dunkl`` and
``jucys_murphy`` images.

``jack.verify_eigen_equations`` checks the generic eigen equations on the
packed accumulators of ``cherednik_prime`` applied to a ``Packed`` operand
at one integer Kronecker point, with no unpacking in between.
``uprime_column`` builds U'_i columns on the same integer scale for the
projection constructor, with rows addressed by integer exponent codes; the
operators above do not use it, so the eigen check stays independent of the
constructor.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import transposition
from .ratfunc import KAPPA, RatFunc
from .vectorpoly import (
    Packed,
    VectorPoly,
    action_factor,
    action_kernel,
    apply_packed,
    group_action,
    packed_columns,
    packed_vector,
    tau_context,
)


def _check_index(i: int, n: int) -> None:
    """Operators are indexed 1..n; a ValueError for any other index."""
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} outside 1..{n}")


def dunkl_factor(ctx, i: int, top: int, lam: int, scale: int) -> int:
    """top * (scale + |lam| * ``ctx.spread(i)``): ``dunkl_kernel`` with
    these parameters, on input whose largest exponent is top, sends a term
    of coefficient c at most |c| times this into the output digits."""
    return top * (scale + abs(lam) * ctx.spread(i))


def dunkl_kernel(i: int, p: Packed, lam: int, scale: int, lift: int = 0) -> dict:
    """x_i^lift (scale d/dx_i p + lam sum_{j != i} D tau(ij) dd_ij p) as
    packed accumulators (exponent -> sum_r d_r 2^(width r)); dd_ij is the
    divided difference and D = ``ctx.denominator``.  With kappa = lam / mu and scale = mu D this is
    mu D x_i^lift times the Dunkl image.

    For j != i, with e = exp_i and q = exp_j, the divided difference of a
    monomial is the sum of the monomials of exp with (exp_i, exp_j) replaced
    by (v, e + q - 1 - v) for v in min(e, q)..max(e, q) - 1, with sign +1
    when q < e and -1 when q > e.  The image of an exponent under lam D
    tau(ij), the packed columns, is formed once per j, and each monomial of
    the divided difference adds it with its sign.  Packing is Z-linear, so
    acc[e] is the packed digit vector of the image at e whatever the
    digits' size; only reading the digits back needs them to fit the width.

    Digit width.  A term c x^exp (x) T with e = exp_i sends |c| e scale
    into one output digit through the derivative and, for each j != i,
    |c| |lam| times a column 1-norm of D tau(ij) into the digits of each of
    its |e - q| <= top monomials, top the largest exponent of the input.
    So every output digit is at most ||c||_1 * ``dunkl_factor`` in absolute
    value, ||c||_1 the sum of the absolute input coefficients.
    """
    columns = [
        (j, packed_columns(cols, p.width, lam, p.used))
        for j, cols in enumerate(p.ctx.scaled_transpositions(i), 1)
        if cols is not None
    ]
    acc = {}
    for exp, entries in p.groups.items():
        e = exp[i - 1]
        if e:
            key = exp[: i - 1] + (e - 1 + lift,) + exp[i:]
            vec = packed_vector(entries, p.width)
            acc[key] = acc.get(key, 0) + e * scale * vec
        moved = list(exp)
        for j, cols in columns:
            q = exp[j - 1]
            if q == e:
                continue
            image = sum(c * cols[tab] for tab, c in entries)
            if q > e:
                image, lo, hi = -image, e, q
            else:
                lo, hi = q, e
            for v in range(lo, hi):
                moved[i - 1], moved[j - 1] = v + lift, e + q - 1 - v
                key = tuple(moved)
                acc[key] = acc.get(key, 0) + image
            moved[i - 1], moved[j - 1] = e, q
    return acc


def dunkl(i: int, p: VectorPoly, kappa=None) -> VectorPoly:
    """Dunkl operator: partial derivative plus kappa times the sum of divided
    differences twisted by the transposition action.

    At a rational kappa = lam / mu the input is cleared to integers over L,
    and ``dunkl_kernel`` accumulates mu D L times the image over the integer
    transposition matrices D tau(ij) (D = ``ctx.denominator``); one
    division per term ends it (``apply_packed``).  Over Q(kappa) (``kappa``
    None or ``KAPPA``) the same body runs at the Kronecker point lam = K,
    mu = 1 (``over_q_kappa``), and so does a rational kappa on RatFunc
    coefficients; any other RatFunc kappa is a ValueError.

    Digit width.  Every output digit is at most ||c||_1 * factor in
    absolute value, factor = ``dunkl_factor`` = deg (mu D + |lam| sum_j
    A_j), deg the largest exponent in the input and A_j the largest column
    1-norm of D tau(ij) (proof in ``dunkl_kernel``), and the width holds
    that bound.  The packed integers are the digit vectors at 2^width, a
    Z-linear map, so ``unpack`` recovers each digit exactly.  Over Q(kappa)
    the image of the cleared numerators N is R = D E N + kappa D T N (E the
    derivative, T the twisted divided differences), and lam = mu = 1 give
    the factor that bounds its digits for ``over_q_kappa``.
    """
    _check_index(i, p.n)
    ctx = tau_context(p.shape)
    if kappa is None:
        kappa = KAPPA
    generic = isinstance(kappa, RatFunc)
    if generic and kappa != KAPPA:
        raise ValueError(f"kappa must be rational or KAPPA, not {kappa}")
    lam, mu = (1, 1) if generic else Fraction(kappa).as_integer_ratio()
    scale = mu * ctx.denominator
    return apply_packed(
        p,
        scale,
        lambda top, at: dunkl_factor(ctx, i, top, at, scale),
        lambda packed, at: dunkl_kernel(i, packed, at, scale),
        lam,
        generic,
    )


def _swaps(n: int, i: int) -> list[tuple[int, ...]]:
    """The transpositions (i j), j > i, whose sum is the Jucys-Murphy
    element omega_i."""
    return [transposition(n, i, j) for j in range(i + 1, n + 1)]


def jucys_murphy(i: int, p: VectorPoly) -> VectorPoly:
    """Sum of transpositions (i, j) over j > i acting on the module, as one
    group-algebra element; the top index gives the zero operator."""
    _check_index(i, p.n)
    return group_action(_swaps(p.n, i), p)


def _x_dunkl(i: int, p: VectorPoly, kappa) -> VectorPoly:
    e_i = tuple(int(t == i - 1) for t in range(p.n))
    return dunkl(i, p, kappa).mul_monomial(e_i)


def cherednik(i: int, p: VectorPoly, kappa=None) -> VectorPoly:
    """Cherednik-Dunkl operator x_i D_i + 1 + kappa * sum_{j>i} (i,j)."""
    if kappa is None:
        kappa = KAPPA
    return _x_dunkl(i, p, kappa) + p + jucys_murphy(i, p).scale(kappa)


def cherednik_factor(ctx, i: int, top: int, lam: int, mu: int) -> int:
    """A term of coefficient c sends at most |c| times this into the digits
    of lam D U'_i at kappa = lam / mu (``cherednik_prime`` on a ``Packed``
    operand), top the largest exponent of the input: the sum of the two
    kernels' factors."""
    big_d = ctx.denominator
    return dunkl_factor(ctx, i, top, lam, mu * big_d) + action_factor(
        ctx, _swaps(ctx.n, i), abs(lam) * big_d
    )


def cherednik_prime(i: int, p, kappa=None):
    """Modified operator (1/kappa) x_i D_i + omega_i, with spectrum
    alpha_i / kappa + content on the Jack basis.

    On a ``VectorPoly`` it is the lifted ``dunkl`` image times 1/kappa plus
    ``jucys_murphy``, at a rational kappa and over Q(kappa) alike.  On a
    ``Packed`` operand of integer coefficients and an integer or rational
    kappa = lam / mu, lam != 0, it is one pass of both kernels,

        lam D U'_i p = x_i (mu D Dunkl_i p) + lam D omega_i p,

    the first term from ``dunkl_kernel`` (scale mu D, lift 1) and the
    second from ``action_kernel`` on the transpositions (i j), j > i, at
    scale lam D, which every d_ij divides.  The result is the packed
    accumulators themselves, at the operand's width and not read back, as
    ``jack.verify_eigen_equations`` compares them; every digit is at most
    ||c||_1 * ``cherednik_factor`` in absolute value (the kernels' bounds).
    """
    if kappa is None:
        kappa = KAPPA
    if isinstance(p, Packed):
        _check_index(i, p.ctx.n)
        lam, mu = Fraction(kappa).as_integer_ratio()
        big_d = p.ctx.denominator
        acc = dunkl_kernel(i, p, lam, mu * big_d, lift=1)
        return action_kernel(_swaps(p.ctx.n, i), p, lam * big_d, acc)
    _check_index(i, p.n)
    if isinstance(kappa, RatFunc):
        inv = RatFunc.kappa_inverse()
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
