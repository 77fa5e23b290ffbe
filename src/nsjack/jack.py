"""Construction of vector-valued nonsymmetric Jack polynomials over Q(kappa).

The constructor starts from the triangular leading term and applies the
commuting spectral projections

    (U'_i - v) / (zeta(i) - v)

one for each lower label, where v runs over the spectral values that must be
annihilated.  Identical factors act idempotently on the relevant span, so each
distinct (index, value) pair is applied once.

The hot loop works on an invariant basis (the order ideal of the leading
exponent tensored with all tableaux) with coefficients written as integer
polynomials in 1/kappa packed into single big integers (fixed-width signed
digits).  Only the diagonal of U'_i has a 1/kappa part, so a projection step
is one fused multiply-add per diagonal entry and one ``b * u`` per other
entry; a digit-width bound from the column 1-norms (each column's sum of
|a| + |b|) makes the packing provably overflow-free.  The decode divides
out the known linear denominators by trial division, needs no polynomial
gcd and runs once per distinct packed coefficient.  The U'_i columns are
integers over the shape's transposition denominator D (1296 for (2,2,2,2)),
each built once, with its norm, into a ``ColumnTable`` of one shape and one
degree.  Exponents are addressed by integer codes, their entries read as
base |alpha| + 1 digits, so a column holds its entries as integer offsets
and a construction resolves them to the positions of its basis once per
index.  A family's labels permute one partition and share their lower
exponents, so ``family_context`` passes one table to all its constructions
and drops it on return; a lone ``construct_jack`` builds its own.

``verify_eigen_equations`` checks U'_i J = zeta'(i) J without those
columns, by one pass of ``operators.cherednik_prime`` over (exponent, pair
i < j) for all the indices at one integer Kronecker point.

``reflection_rule`` reads off a label, building no polynomial, how a simple
reflection acts on its Jack polynomial; ``singular`` takes its predictions
from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .combinatorics import (
    Rsyt,
    compositions_strictly_below,
    rank_permutation,
)
from .operators import cherednik_factor, cherednik_prime, uprime_column
from .ratfunc import PoleAtKappa, RatFunc
from .vectorpoly import (
    VectorPoly,
    kronecker_pack,
    leading_vector,
    signed_digits,
    tau_context,
    top_exponent,
)


class ZeroDenominator(ZeroDivisionError):
    """Adjacent spectral values coincide identically (invalid label data)."""


# ---------------------------------------------------------------------------
# spectral vectors
# ---------------------------------------------------------------------------


def spectral_pairs(alpha, tableau: Rsyt) -> tuple[tuple[int, int], ...]:
    """Entries of the spectral vector as exact integer pairs (a, c) meaning
    a / kappa + c; equality of pairs is equality in Q(kappa)."""
    alpha = tuple(alpha)
    r = rank_permutation(alpha)
    return tuple(
        (alpha[i], tableau.content(r[i])) for i in range(len(alpha))
    )


def spectral_vector(alpha, tableau: Rsyt) -> tuple[RatFunc, ...]:
    """zeta'(i) = alpha_i / kappa + content(r_alpha(i)) as field elements."""
    return tuple(
        RatFunc((a, c), (0, 1)) if a else RatFunc.from_int(c)
        for a, c in spectral_pairs(alpha, tableau)
    )


def spectral_vector_at(alpha, tableau: Rsyt, kappa0) -> tuple[Fraction, ...]:
    p, q = Fraction(kappa0).as_integer_ratio()  # a / kappa0 + c = (a q + c p) / p
    return tuple(Fraction(a * q + c * p, p) for a, c in spectral_pairs(alpha, tableau))


def b_value(alpha, tableau: Rsyt, i: int) -> RatFunc:
    """Reciprocal spectral gap 1 / (zeta'(i) - zeta'(i+1))."""
    pairs = spectral_pairs(alpha, tableau)
    da = pairs[i - 1][0] - pairs[i][0]
    dc = pairs[i - 1][1] - pairs[i][1]
    if da == 0 and dc == 0:
        raise ZeroDenominator(f"spectral entries {i} and {i + 1} coincide")
    # 1 / (da/kappa + dc) = kappa / (da + dc*kappa)
    return RatFunc((0, 1), (da, dc))


# ---------------------------------------------------------------------------
# result type
# ---------------------------------------------------------------------------


class JackPolynomial(NamedTuple):
    alpha: tuple[int, ...]
    tableau: Rsyt
    poly: VectorPoly
    spectral: tuple[RatFunc, ...]

    @property
    def shape(self):
        return self.tableau.shape

    def monomial_count(self) -> int:
        return len(self.poly.monomial_support())


# ---------------------------------------------------------------------------
# packed polynomials in nu = 1/kappa
# ---------------------------------------------------------------------------


def _try_div_linear(poly: list[int], a: int, b: int) -> list[int] | None:
    """Exact quotient of an integer polynomial by a*nu + b, or None."""
    if not poly:
        return []
    if len(poly) == 1:
        return None
    d = len(poly) - 1
    q = [0] * d
    carry = poly[d]
    for t in range(d, 0, -1):
        if carry % a:
            return None
        qt = carry // a
        q[t - 1] = qt
        carry = poly[t - 1] - b * qt
    if carry:
        return None
    return q


def _decode(packed: int, width: int, denom_linears, denom_int: int) -> RatFunc:
    """The coefficient packed / (denom_int * prod(a*nu + b)) of the
    projection product, with nu = 1/kappa: the digits are divided by every
    linear that divides them exactly, and the rest stay in the denominator."""
    digits = signed_digits(packed, width)
    remaining = []
    for a, b in denom_linears:
        quotient = _try_div_linear(digits, a, b)
        if quotient is None:
            remaining.append((a, b))
        else:
            digits = quotient
    den = [denom_int]
    for a, b in remaining:
        new = [0] * (len(den) + 1)
        for t, c in enumerate(den):
            new[t] += b * c
            new[t + 1] += a * c
        den = new
    return _nu_fraction_to_ratfunc(digits, den)


def _nu_fraction_to_ratfunc(num: list[int], den: list[int]) -> RatFunc:
    """num(nu)/den(nu) with nu = 1/kappa, as a canonical element of Q(kappa).

    The constructor's decode calls it with a nonzero num and with den an
    integer times primitive linears a*nu + b (a != 0), none of which divides
    num in Z[nu].  The fraction is then reduced without a polynomial gcd.

    Proof.  With w the larger of the two lengths, N = kappa^(w-1) num(1/kappa)
    and M = kappa^(w-1) den(1/kappa) are integer polynomials with
    N/M = num/den.  The longer of num and den has a nonzero top coefficient,
    which is the constant term of N or of M, so kappa does not divide both.
    Every other irreducible factor of M over Q is a + b*kappa (b != 0) for a
    linear a*nu + b of den, and a + b*kappa dividing N would make a*nu + b
    divide num over Q; a*nu + b is primitive, so by Gauss's lemma it would
    divide num in Z[nu], which the trial division ruled out.  N and M thus
    share no polynomial factor over Q, and dividing both by the gcd of their
    contents, signed so that M's leading coefficient (the first nonzero
    entry of den) is positive, gives the canonical form.
    """
    width = max(len(num), len(den))
    g = gcd(*num, *den)
    if next(c for c in den if c) < 0:
        g = -g
    num_k = [0] * (width - len(num)) + [c // g for c in reversed(num)]
    den_k = [0] * (width - len(den)) + [c // g for c in reversed(den)]
    return RatFunc(num_k, den_k, _canonical=True)


# ---------------------------------------------------------------------------
# the projection constructor
# ---------------------------------------------------------------------------


def _exponent_code(exp, base: int) -> int:
    """code(exp) = sum_t exp_t * base^(t-1), the exponent's base-``base``
    digits read as one integer."""
    code = 0
    for e in reversed(exp):
        code = code * base + e
    return code


def _jack_basis(alpha, dim: int):
    """Lower exponents, the basis [(exp, tableau)] and the position of each
    basis vector by its key code(exp) * dim + tableau, in basis order, with
    code in base |alpha| + 1 (see ``ColumnTable``)."""
    lower = compositions_strictly_below(alpha)
    exps = sorted(lower) + [tuple(alpha)]
    basis = [(exp, t) for exp in exps for t in range(dim)]
    base = sum(alpha) + 1
    position = {}
    for exp in exps:
        origin = _exponent_code(exp, base) * dim
        for t in range(dim):
            position[origin + t] = len(position)
    return lower, basis, position


def _projection_factors(alpha, tableau, lower, ctx):
    """Deduplicated (index, value) pairs, one annihilating factor for every
    lower label; the smallest separating index is chosen for each."""
    target = spectral_pairs(alpha, tableau)
    n = len(target)
    factors = set()
    for gamma in lower:
        r = rank_permutation(gamma)
        for tab in ctx.tableaux:
            for i in range(n):
                pair = (gamma[i], tab.content(r[i]))
                if pair != target[i]:
                    factors.add((i + 1, pair))
                    break
            else:
                raise AssertionError(
                    f"spectral collision between {(alpha, tableau)} and "
                    f"{(gamma, tab)}"
                )
    return sorted(factors)


class ColumnTable:
    """U'_i columns of one shape and one degree, each built by
    ``uprime_column`` on first use and shared by every construction given
    the table.

    A column is a tuple (norm, a, b, offsets, bs): the diagonal entry
    (a / kappa + b) / D at the column's own (exp, tab), the other entries
    bs[t] / D at the basis vector whose key is code(exp) * dim + offsets[t]
    (only the diagonal carries a 1/kappa part) and norm, the column's sum of
    |a| + |b|.  The key of a basis vector (e, row) is code(e) * dim + row,
    with code(e) = sum_t e_t * B^(t-1), B = degree + 1 and dim the number
    of tableaux.

    Keys are injective.  ``construct_jack`` rejects a label of another
    degree, so the label, every exponent below it and every target of a
    column (``uprime_column``) have the table's degree, and their entries
    lie in 0..degree = 0..B-1.  Those entries are the base-B digits of the
    code, so the code determines the exponent; the row, 0 <= row < dim, is
    the key mod dim and the code the key div dim.
    """

    def __init__(self, shape, degree: int):
        self.ctx = tau_context(tuple(shape))
        self.degree = degree
        self._columns: dict[tuple, tuple] = {}

    def column(self, i: int, exp, tab: int) -> tuple:
        key = (i, exp, tab)
        col = self._columns.get(key)
        if col is None:
            a, b, offsets, bs = uprime_column(i, exp, tab, self.ctx, self.degree + 1)
            norm = abs(a) + abs(b) + sum(map(abs, bs))
            col = self._columns[key] = (norm, a, b, tuple(offsets), tuple(bs))
        return col


def construct_jack(
    alpha, tableau: Rsyt, columns: ColumnTable | None = None
) -> JackPolynomial:
    """The Jack polynomial with the given label, exactly over Q(kappa).

    Leading coefficient is 1, every other exponent is strictly below the
    label in the composition order, and U'_i acts by the spectral value for
    every i (asserted by the test suite against independent solves).

    ``columns`` shares U'_i columns with other constructions of the same
    shape and degree; a table of another shape or degree is a ValueError.
    """
    alpha = tuple(alpha)
    if len(alpha) != tableau.n:
        raise ValueError(f"label length {len(alpha)} != {tableau.n} variables")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if columns is None:
        columns = ColumnTable(tableau.shape, sum(alpha))
    elif columns.ctx.shape != tableau.shape:
        raise ValueError(f"column table for shape {columns.ctx.shape}")
    elif columns.degree != sum(alpha):
        raise ValueError(
            f"column table for degree {columns.degree}, label of degree {sum(alpha)}"
        )
    return _construct(alpha, tableau, columns)


def _construct(alpha, tableau: Rsyt, columns: ColumnTable) -> JackPolynomial:
    """The projection product on packed integers, then the decode.

    Digit width.  Write the vector as integer polynomials in nu = 1/kappa,
    one per basis position, and let |x| be the sum of the absolute values
    of all their digits.  A factor with index i and value v = va / kappa +
    vb multiplies by D (U'_i - v), whose column at a position has entries
    a * nu + b with sum of |a| + |b| at most amp_i + |D va| + |D vb|, amp_i
    being the largest column norm of U'_i on the basis (``ColumnTable``).
    A digit d of the input sends a * d and b * d to two digits of the
    output for each entry, so |x| grows at most by that factor.  The packed
    integers are these polynomials at nu = 2^width, a ring map, so only the
    digits of the result need a bound, and each of them is at most

        |start| * prod_f (amp_i + |D va| + |D vb|)

    for the cleared starting vector start, a number of at most
    bits(|start|) + sum_f bits(amp_i + |D va| + |D vb|) bits.  The width
    adds 16 bits and one bit per factor of slack and is at least 64, so
    every digit lies strictly inside the signed range and
    ``signed_digits`` recovers it exactly.

    Addressing.  Each basis vector (exp, row) has the integer key
    code(exp) * dim + row of ``ColumnTable``, which is injective on the
    label's degree; a column entry's key is its column's key minus the
    column's row plus the entry's offset.  A key with no basis position is
    an image outside the basis, and the construction stops with an
    AssertionError.

    Decode.  Width, ``denom_linears`` and ``denom_int`` are fixed for the
    call and RatFunc is immutable, so the coefficient is a function of its
    packed integer alone; a dict that lives for the call decodes each
    distinct integer once and shares the result among its basis vectors.
    """
    ctx = columns.ctx
    start = leading_vector(alpha, tableau)
    spectral = spectral_vector(alpha, tableau)
    lower, basis, position = _jack_basis(alpha, ctx.dim)
    if not lower:
        return JackPolynomial(alpha, tableau, start, spectral)
    factors = _projection_factors(alpha, tableau, lower, ctx)
    target = spectral_pairs(alpha, tableau)
    big_d = ctx.denominator

    # per index: the largest column norm, the diagonal entries and every
    # column's other entries as (positions, bs); resolving each entry's key
    # to its position checks that the basis is invariant
    matrices = {}
    for i in sorted({i for i, _ in factors}):
        amp, diag_a, diag_b, offdiag = 0, [], [], []
        for (exp, tab), key in zip(basis, position):
            norm, a, b, offsets, bs = columns.column(i, exp, tab)
            if norm > amp:
                amp = norm
            diag_a.append(a)
            diag_b.append(b)
            origin = key - tab
            try:
                offdiag.append(([position[origin + o] for o in offsets], bs))
            except KeyError:
                raise AssertionError("projection basis is not invariant") from None
        matrices[i] = (amp, diag_a, diag_b, offdiag)

    # integer starting vector (constant digits)
    d0, start_ints = start.map_coefficients(RatFunc.as_fraction).cleared()
    base = columns.degree + 1
    vec = [0] * len(basis)
    for (exp, tab), v in start_ints.items():
        vec[position[_exponent_code(exp, base) * ctx.dim + tab]] = v

    # provably sufficient digit width for the whole product (see above)
    bits = sum(map(abs, start_ints.values())).bit_length() + 16
    denom_int = d0
    scaled_factors = []
    for i, (va, vb) in factors:
        za, zc = target[i - 1]
        dz = (za - va, zc - vb)
        if dz == (0, 0):
            raise ZeroDenominator(f"factor {(i, (va, vb))} annihilates the label")
        dva, dvb = big_d * va, big_d * vb
        bits += (matrices[i][0] + abs(dva) + abs(dvb)).bit_length() + 1
        scaled_factors.append((i, dva, dvb, dz))
        denom_int *= big_d
    width = max(64, bits)

    denom_linears = []
    for _, _, _, (dza, dzc) in scaled_factors:
        if dza == 0:
            denom_int *= dzc
            continue
        g = gcd(abs(dza), abs(dzc))
        if dza < 0:
            g = -g
        denom_int *= g
        denom_linears.append((dza // g, dzc // g))

    for i, dva, dvb, _ in scaled_factors:
        _, diag_a, diag_b, offdiag = matrices[i]
        # the diagonal, fused with the factor's -(D va nu + D vb)
        out = [
            (a - dva) * (u << width) + (b - dvb) * u
            for u, a, b in zip(vec, diag_a, diag_b)
        ]
        for u, (targets, bs) in zip(vec, offdiag):
            if u:
                for pos, c in zip(targets, bs):
                    out[pos] += c * u
        vec = out

    # one decode per distinct packed value (see "Decode" above)
    decoded = {}
    terms = {}
    for pos, packed in enumerate(vec):
        if not packed:
            continue
        coeff = decoded.get(packed)
        if coeff is None:
            coeff = decoded[packed] = _decode(packed, width, denom_linears, denom_int)
        terms[basis[pos]] = coeff

    poly = VectorPoly(tableau.shape, terms)
    if poly.tableau_component(alpha) != start.tableau_component(alpha):
        raise AssertionError("projection altered the leading term")
    return JackPolynomial(alpha, tableau, poly, spectral)


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


def specialize(jack: JackPolynomial, kappa0) -> VectorPoly:
    """Evaluate every coefficient at kappa = kappa0.

    Raises PoleAtKappa carrying the offending exponents when any denominator
    vanishes; a pole is a meaningful outcome, not an internal failure.
    """
    kappa0 = Fraction(kappa0)
    out = {}
    poles = set()
    for (exp, tab), coeff in jack.poly.terms.items():
        try:
            out[(exp, tab)] = coeff.evaluate(kappa0)
        except PoleAtKappa:
            poles.add(exp)
    if poles:
        err = PoleAtKappa(kappa0, f"{len(poles)} offending exponents")
        err.exponents = sorted(poles)
        raise err
    return VectorPoly(jack.shape, out)


# ---------------------------------------------------------------------------
# the simple-reflection rule on labels
# ---------------------------------------------------------------------------


class ReflectionRule(NamedTuple):
    b: RatFunc
    scalar: RatFunc  # (s_i - b) J = scalar * J_target, or the eigenvalue
    target: tuple | None  # (alpha', tableau'), None for an eigenvector


def reflection_rule(alpha, tableau: Rsyt, i: int) -> ReflectionRule:
    """How s_i, swapping i and i+1, acts on the Jack polynomial J of the
    label (Dunkl and Luque, SIGMA 7, 2011), with b = ``b_value``.  Unequal
    adjacent exponents are swapped.  Equal ones act on the tableau entries
    j = r_alpha(i) and j+1: s_i J = J if they share a row, -J if they share
    a column, and otherwise they are swapped.  A swap gives (s_i - b) J =
    scalar J' for J' of the target, scalar 1 - b^2 when lowering, else 1."""
    alpha = tuple(alpha)
    if not 1 <= i < len(alpha):
        raise ValueError(f"index {i} out of range 1..{len(alpha) - 1}")
    b = b_value(alpha, tableau, i)
    one = RatFunc.from_int(1)
    if alpha[i - 1] != alpha[i]:
        target = (alpha[: i - 1] + (alpha[i], alpha[i - 1]) + alpha[i + 1 :], tableau)
        lowering = alpha[i - 1] > alpha[i]
    else:
        j = rank_permutation(alpha)[i - 1]
        (rj, cj), (rj1, cj1) = tableau.cell(j), tableau.cell(j + 1)
        if rj == rj1:
            return ReflectionRule(b, one, None)
        if cj == cj1:
            return ReflectionRule(b, -one, None)
        target = (alpha, Rsyt(tableau.swap_entries(j)))
        lowering = cj < cj1
    return ReflectionRule(b, one - b * b if lowering else one, target)


def verify_eigen_equations(jack: JackPolynomial, indices=None):
    """Check U'_i J = zeta'(i) J over Q(kappa) for the given indices (all by
    default), with zeta'(i) = a / kappa + c from ``spectral_pairs``; raise
    AssertionError naming the first index that fails, and ValueError for an
    index outside 1..n.

    No arithmetic in Q(kappa) is done and no equation builds a polynomial.
    The coefficients of J are cleared once: Q is the lcm of their distinct
    denominators and N = Q J has coefficients in Z[kappa].  N is evaluated
    once at the integer point kappa = K = 2^w and grouped by exponent once,
    at a width W shared by all the equations (``vectorpoly.kronecker_pack``,
    which lifts the generic operators too).  One pass of ``cherednik_prime``
    on the packed operand (``operators.cherednik_kernel``) then visits each
    (exponent, pair i < j) once for all the indices: each exponent's tableau
    vector is packed into one integer, its image under K D tau(ij) is formed
    once and added to the divided differences of U'_i and U'_j and to the
    swap of omega_i, and each index keeps its own packed accumulators, keyed
    by injective exponent codes.  Equation i is the integer identity

        x_i (D Dunkl_i N) + K D omega_i N - D (a + c K) N = 0

    at kappa = K on the accumulators of index i, with D =
    ``ctx.denominator``; the first two terms are K D U'_i N.  The
    accumulators hold the same integers as the sum of ``dunkl_kernel`` times
    x_i and ``action_kernel`` on the swaps, so the bounds below hold as
    stated.  No U'_i column of the constructor (``uprime_column``) is used.

    Soundness at K.  U'_i = (1/kappa) E + F with E = x_i d/dx_i and F the
    sum of the seminormal transpositions tau(ij) composed with x_i times the
    divided differences (j != i) and with the swaps s_ij (j > i); neither
    depends on kappa.  U'_i is Q(kappa)-linear, so U'_i J = zeta'(i) J iff
    U'_i N = zeta'(i) N.  Multiply the difference by kappa D, where T = D F
    is an integer map:

        R = D E N + kappa T N - D (a + c kappa) N = S_0 N + kappa S_1 N,

    S_0 = D (E - a) and S_1 = T - D c, integer maps free of kappa; R(K) is
    the left side above.  Every term of S_0 x + S_1 y is at most
    max(||x||_1, ||y||_1) times

        max_i (cherednik_factor(i, e, 1, 1) + D (|a_i| + |c_i|)),

    e the largest exponent: at lam = mu = 1 the kernel's digit bound covers
    D E x + T y, and the eigen terms add D |a_i| ||x||_1 + D |c_i| ||y||_1.
    So ``vectorpoly.kronecker_pack`` with this factor gives a K as in its
    proof: every coefficient r of R has |r| < K / 2.  If R(K) = 0 but
    R != 0, take a key with R nonzero there and its lowest nonzero
    coefficient r_j: then K divides r_j, against 0 < |r_j| < K.  So R(K) =
    0 proves R = 0, the equation over Q(kappa).  The width comes
    from the data, so no fixed point can be fooled by a coefficient that
    vanishes there.

    Soundness of the packing.  Packing is Z-linear, so the packed left side
    at an exponent is sum_r R_r(K) 2^(W r) over the tableau rows r, exactly,
    whatever the size of the R_r(K).  By the kernels' digit bounds every
    R_r(K) is at most

        ||N(K)||_1 * max_i (cherednik_factor(i, e, K, 1) + D (|a_i| + |c_i| K))

    in absolute value (``operators.cherednik_factor``), ||N(K)||_1 the sum
    of the absolute values of N(K); W = bit_length of that bound + 1 makes
    |R_r(K)| < 2^(W - 1) for every index i at once.  If the packed value is
    0 but some R_r(K) is not, the lowest such r gives 2^W | R_r(K), a
    contradiction.  So the packed left side is 0 at every exponent iff
    R(K) = 0.
    """
    pairs = spectral_pairs(jack.alpha, jack.tableau)
    indices = tuple(indices or range(1, len(pairs) + 1))
    ctx = tau_context(jack.shape)
    top = top_exponent(exp for exp, _ in jack.poly.terms)

    def factor(at):
        return max(
            cherednik_factor(ctx, i, top, at, 1)
            + ctx.denominator * (abs(a) + abs(c) * at)
            for i, (a, c) in enumerate(pairs, 1)
        )

    _, w, packed = kronecker_pack(jack.poly, factor(1), factor)
    residuals = cherednik_prime(indices, packed, 1 << w, pairs)
    for i, acc in zip(indices, residuals):
        if any(acc.values()):
            raise AssertionError(
                f"eigen equation fails at index {i} for label "
                f"({jack.alpha}, {jack.tableau.rows})"
            )
