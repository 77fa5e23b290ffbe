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
kappa = 2^w on the cleared numerators (``vectorpoly.kronecker_pack``), and
each packed digit is read back by its signed base-2^w digits.  On a
``VectorPoly``, ``cherednik`` and ``cherednik_prime`` combine ``dunkl`` and
``jucys_murphy`` images.

``jack.verify_eigen_equations`` checks the generic eigen equations on the
``Packed`` operand of ``vectorpoly.kronecker_pack`` at one integer
Kronecker point: ``cherednik_kernel`` makes one pass over (exponent, pair
i < j) for every index 1..n, forms each exponent's image under D tau(ij)
once for the divided differences of U'_i and U'_j and the swap of omega_i,
and adds it to one packed accumulator per index keyed by integer exponent
codes; nothing is unpacked.  ``uprime_column`` builds U'_i columns on the
same integer scale for the projection constructor, with rows addressed by
exponent codes too; the code above shares none of it, so the eigen check
stays independent of the constructor.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from operator import mul

from .combinatorics import transposition
from .ratfunc import KAPPA, RatFunc
from .vectorpoly import (
    Packed,
    VectorPoly,
    action_factor,
    apply_packed,
    group_action,
    packed_columns,
    packed_vector,
    tau_context,
    top_exponent,
)


def _check_index(i: int, n: int) -> None:
    """Operators are indexed 1..n; a ValueError for any other index."""
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} outside 1..{n}")


def dunkl_factor(ctx, i: int, top: int, lam: int, scale: int) -> int:
    """top * (scale + |lam| * sum_{j != i} A_j), A_j the largest column
    1-norm of D tau(ij) (``action_factor`` at D = ``ctx.denominator``):
    ``dunkl_kernel`` with these parameters, on input whose largest exponent
    is top, sends a term of coefficient c at most |c| times this into the
    output digits."""
    perms = [transposition(ctx.n, i, j) for j in range(1, ctx.n + 1) if j != i]
    return top * (scale + abs(lam) * action_factor(ctx, perms, ctx.denominator))


def dunkl_kernel(i: int, p: Packed, lam: int, scale: int) -> dict:
    """scale d/dx_i p + lam sum_{j != i} D tau(ij) dd_ij p as packed
    accumulators (exponent -> sum_r d_r 2^(width r)); dd_ij is the divided
    difference and D = ``ctx.denominator``.  With kappa = lam / mu and
    scale = mu D this is mu D times the Dunkl image.

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
        (j, packed_columns(cols, p.width, lam))
        for j, cols in enumerate(p.ctx.transpositions(i), 1)
        if cols is not None
    ]
    acc = {}
    for exp, entries in p.groups.items():
        e = exp[i - 1]
        if e:
            key = exp[: i - 1] + (e - 1,) + exp[i:]
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
                moved[i - 1], moved[j - 1] = v, e + q - 1 - v
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
    mu = 1 (``vectorpoly.kronecker_pack``), and so does a rational kappa on
    RatFunc coefficients; any other RatFunc kappa is a ValueError.

    Digit width.  Every output digit is at most ||c||_1 * factor in
    absolute value, factor = ``dunkl_factor`` = deg (mu D + |lam| sum_j
    A_j), deg the largest exponent in the input and A_j the largest column
    1-norm of D tau(ij) (proof in ``dunkl_kernel``), and the width holds
    that bound.  The packed integers are the digit vectors at 2^width, a
    Z-linear map, so ``unpack`` recovers each digit exactly.  Over Q(kappa)
    the image of the cleared numerators N is R = D E N + kappa D T N (E the
    derivative, T the twisted divided differences), and lam = mu = 1 give
    the factor that bounds its digits for ``vectorpoly.kronecker_pack``.
    """
    _check_index(i, p.n)
    if kappa is None:
        kappa = KAPPA
    generic = isinstance(kappa, RatFunc)
    if generic and kappa != KAPPA:
        raise ValueError(f"kappa must be rational or KAPPA, not {kappa}")
    if p.is_zero():  # no seminormal context for the zero image
        return VectorPoly.zero(p.shape)
    ctx = tau_context(p.shape)
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
    of lam D U'_i at kappa = lam / mu (``cherednik_kernel`` without the
    eigen term), top the largest exponent of the input: the sum of the
    factors of ``dunkl_kernel`` and ``action_kernel`` on the swaps."""
    big_d = ctx.denominator
    return dunkl_factor(ctx, i, top, lam, mu * big_d) + action_factor(
        ctx, _swaps(ctx.n, i), abs(lam) * big_d
    )


def cherednik_kernel(p: Packed, lam: int, mu: int, spectrum) -> list:
    """For each index i = 1..n, lam D (U'_i - zeta'_i) p at kappa = lam / mu
    as packed accumulators (code(exp) -> sum_r d_r 2^(width r)), in one list
    by index, D = ``ctx.denominator`` and zeta'_i = a_i / kappa + c_i for
    the pairs (a_t, c_t), t = 1..n, of ``spectrum``.  One pass over the
    exponents serves all the indices:

        lam D U'_i = x_i (mu D d/dx_i) + lam sum_{j != i} D tau(ij) x_i dd_ij
                     + lam sum_{j > i} D tau(ij) s_ij,

    dd_ij the divided difference and s_ij the swap of exp_i and exp_j.  The
    derivative and eigen terms keep each exponent and go in once per
    (exponent, index), as D (mu (e_i - a_i) - lam c_i) times its packed
    tableau vector.  For each pair i < j with e = exp_i != q = exp_j, the
    image of the exponent under lam D tau(ij) (the matrix of the
    transposition, the same for i and j) is formed once and feeds three
    terms.  Write exp(w) for exp with (exp_i, exp_j) replaced by
    (w, e + q - w).  Then x_i dd_ij adds the image at w in min + 1..max
    with sign +1 when q < e and -1 when q > e (min, max of e and q);
    x_j dd_ji adds it with the opposite sign at w in min..max - 1, the
    same run one step lower; and
    the swap adds it with sign +1 at w = q, which extends the run of x_i
    dd_ij to q..e when q < e and cancels its end w = q when q > e.  When
    q = e only the swap is left, at exp itself.  Each accumulator holds the
    same integers as the sum of ``dunkl_kernel`` times x_i and
    ``action_kernel`` on the swaps, minus the eigen term, so every digit is
    at most ||c||_1 * (``cherednik_factor`` + D (|a_i| mu + |c_i| |lam|))
    in absolute value.

    Codes.  Every key is code(exp) = sum_t exp_t B^(t-1) with B = top + 1,
    top the largest entry of any exponent of p.  The derivative and eigen
    terms keep exp, and every exp(w) above has both w and e + q - w in
    min..max, so every key's entries lie in 0..top < B: they are the
    digits of its code in base B, and distinct keys have distinct codes
    whatever the degrees of the monomials.  Moving from exp(w) to
    exp(w + 1) adds step = B^(i-1) - B^(j-1) to the code (nonzero, as e !=
    q makes top >= 1), so each run is one ``range`` of codes.

    lam = 0 (U'_i has 1/kappa) is a ValueError.
    """
    ctx = p.ctx
    n, big_d, width = ctx.n, ctx.denominator, p.width
    if not lam:
        raise ValueError("U'_i has 1/kappa, so kappa = 0 is not a valid value")
    accs = [defaultdict(int) for _ in range(n)]
    base = top_exponent(p.groups) + 1
    powers = [base**t for t in range(n)]
    diagonal = [
        (t, acc, mu * big_d, big_d * (mu * a + lam * c))
        for t, (acc, (a, c)) in enumerate(zip(accs, spectrum))
    ]
    pairs = [
        (
            i - 1,
            j - 1,
            accs[i - 1],
            accs[j - 1],
            powers[i - 1] - powers[j - 1],
            packed_columns(ctx.transpositions(i)[j - 1], width, lam),
        )
        for i in range(1, n)
        for j in range(i + 1, n + 1)
    ]
    for exp, entries in p.groups.items():
        code = sum(map(mul, exp, powers))
        vec = packed_vector(entries, width)
        for t, acc, scale, shift in diagonal:
            acc[code] += (exp[t] * scale - shift) * vec
        for t, u, acc_i, acc_j, step, cols in pairs:
            e, q = exp[t], exp[u]
            image = sum(c * cols[tab] for tab, c in entries)
            if e == q:
                acc_i[code] += image
                continue
            low, high = code + (q - e) * step, code + step
            if q < e:
                # x_i dd_ij and the swap: w = q..e; x_j dd_ji: w = q..e - 1
                for key in range(low, high, step):
                    acc_i[key] += image
                for key in range(low, code, step):
                    acc_j[key] -= image
            else:
                # x_i dd_ij less the swap: w = e + 1..q - 1; x_j dd_ji: w = e..q - 1
                for key in range(high, low, step):
                    acc_i[key] -= image
                for key in range(code, low, step):
                    acc_j[key] += image
    return accs


def cherednik_prime(i, p, kappa=None, spectrum=None):
    """Modified operator (1/kappa) x_i D_i + omega_i, with spectrum
    alpha_i / kappa + content on the Jack basis.

    On a ``VectorPoly`` it is the lifted ``dunkl`` image times 1/kappa plus
    ``jucys_murphy``, at a rational kappa and over Q(kappa) alike.  On a
    ``Packed`` operand of integer coefficients and an integer or rational
    kappa = lam / mu, lam != 0, ``i`` is a sequence of indices and the
    result is one dict per index, in order: the packed accumulators of
    lam D (U'_i - zeta'_i) p keyed by exponent codes, from the one pass of
    ``cherednik_kernel`` for all n indices, at the operand's width and not
    read back, as ``jack.verify_eigen_equations`` compares them.
    ``spectrum`` gives the pairs (a_t, c_t) of zeta'_t = a_t / kappa + c_t
    (zero when None).  kappa = 0 is a ValueError on both operands.
    """
    if isinstance(p, Packed):
        indices = tuple(i)
        for t in indices:
            _check_index(t, p.ctx.n)
        lam, mu = Fraction(kappa).as_integer_ratio()
        accs = cherednik_kernel(p, lam, mu, spectrum or [(0, 0)] * p.ctx.n)
        return [accs[t - 1] for t in indices]
    if kappa is None or isinstance(kappa, RatFunc):
        inv = RatFunc.kappa_inverse()
    elif kappa == 0:
        raise ValueError("U'_i has 1/kappa, so kappa = 0 is not a valid value")
    else:
        inv = 1 / Fraction(kappa)
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
    for j, (q, tcols) in enumerate(zip(exp, ctx.transpositions(i)), 1):
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
