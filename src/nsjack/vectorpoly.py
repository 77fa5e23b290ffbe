"""The module of vector-valued polynomials: scalars tensored with the span of
RSYT of a fixed shape, carrying the symmetric group action
``w(p)(x) = tau(w) p(xw)``.

The tableau span carries Young's seminormal action, realized through the
degree-zero transformation rules: for adjacent entries in the same row a
simple reflection acts by +1, in the same column by -1, and otherwise it
mixes the tableau with the one obtained by swapping the entries, weighted by
the reciprocal content difference.

``group_action`` takes one permutation or a sequence of them, which acts by
their sum in the group algebra.  Its kernel, ``action_kernel``, works on a
``Packed`` operand: integer coefficients grouped by exponent, with a width
at which a tableau vector packs into one integer, sum_r c_r 2^(width r).
It applies the matrices as packed columns and adds the image to packed
accumulators; ``group_action`` wraps it with ``apply_packed``, a proved
width and one read-back.  ``operators.dunkl_kernel`` uses the same
packing, and so does ``operators.cherednik_kernel``, the one pass over
(exponent, pair i < j) whose accumulators, one per index 1..n keyed by
exponent codes, ``jack.verify_eigen_equations`` tests for zero without
unpacking them.
The kernels run on integer coefficients.  ``kronecker_pack`` lifts a
polynomial over Q(kappa) to them: it clears the coefficients once and packs
the numerators' values at the Kronecker point kappa = 2^w at a proved
width.  ``apply_packed`` runs a kernel once on that operand and reads each
packed digit back by its signed base-2^w digits; the eigen check packs
through the same helper.  ``TauContext`` keeps the width-independent data:
each seminormal matrix once, as a ``Seminormal`` record of integer columns
over their least common denominator with the largest column 1-norm.  Every
record but a simple reflection's is one integer ``_product`` of two records:
a transposition (i j) is its neighbour (i j-1) conjugated by s_{j-1}
(Dunkl and Luque, "Vector-valued Jack polynomials from scratch", SIGMA 7,
2011), and any other permutation is folded along its descent word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .combinatorics import (
    Rsyt,
    descent_word,
    enumerate_rsyt,
    normalize_partition,
    perm_inverse,
    rank_permutation,
    transposition,
)
from .ratfunc import RatFunc, clear_denominators


class ShapeMismatch(ValueError):
    """Operands live over different shapes or variable counts."""


# ---------------------------------------------------------------------------
# seminormal action on the tableau span
# ---------------------------------------------------------------------------


class Seminormal(NamedTuple):
    """The seminormal matrix of one permutation as integers over its least
    common denominator d: column t holds the entries (row, c) of c / d, and
    ``norm`` is the largest column 1-norm of the integer columns."""

    columns: tuple
    d: int
    norm: int


def _seminormal(columns: list, d: int) -> Seminormal:
    """The record of the matrix with integer columns over d, with the gcd of
    the entries and d divided out, which leaves d least."""
    g = gcd(d, *(c for col in columns for _, c in col))
    columns = tuple(tuple((row, c // g) for row, c in col) for col in columns)
    norm = max(sum(abs(c) for _, c in col) for col in columns)
    return Seminormal(columns, d // g, norm)


def _product(a: Seminormal, b: Seminormal) -> Seminormal:
    """The record of the matrix product a b, in integers over a.d b.d."""
    cols = []
    for col in b.columns:
        acc = {}
        for mid, c2 in col:
            for row, c1 in a.columns[mid]:
                acc[row] = acc.get(row, 0) + c1 * c2
        cols.append(tuple((r, c) for r, c in acc.items() if c))
    return _seminormal(cols, a.d * b.d)


class TauContext:
    """The seminormal matrices of one shape, each kept once as a
    ``Seminormal`` record of integers over its denominator.

    ``simple(i)`` builds the record of s_i from the degree-zero rules, and
    every other record is a ``_product`` of two records.  ``matrix(w)``
    builds a transposition (i j), j > i + 1, from its neighbour by the
    conjugation (i j) = s_{j-1} (i j-1) s_{j-1}, and any other permutation
    along ``descent_word(w)`` (any word yields the same matrix since the
    generators satisfy the braid relations).  The operator kernels read
    ``transpositions(i)``, the transpositions (i j) over ``denominator``,
    the one D shared by all transpositions (1296 for (2,2,2,2)), and their
    digit bounds read the records' norms.  Every result is cached for the
    instance, which ``tau_context`` keeps for the process.
    """

    def __init__(self, shape):
        self.shape = normalize_partition(shape)
        self.n = sum(self.shape)
        self.tableaux = enumerate_rsyt(self.shape)
        self.index = {t.content_vector(): r for r, t in enumerate(self.tableaux)}
        self.dim = len(self.tableaux)

    def index_of(self, tableau: Rsyt) -> int:
        return self.index[tableau.content_vector()]

    @cache
    def simple(self, i: int) -> Seminormal:
        """The simple reflection swapping i, i+1, by the degree-zero rules.
        With g the content of i less that of i+1 and b = 1/g = g/g^2, it
        sends a tableau T to b T, plus 1 (b > 0) or 1 - b^2 = (g^2 - 1)/g^2
        times the tableau of T's contents with entries i, i+1 swapped when
        |g| >= 2, all over the lcm of the g^2.  That is +1 (g = 1) when i,
        i+1 share a row and -1 (g = -1) when they share a column."""
        gaps = [tab.content(i) - tab.content(i + 1) for tab in self.tableaux]
        d = lcm(*(g * g for g in gaps))
        cols = []
        for t, (tab, g) in enumerate(zip(self.tableaux, gaps)):
            f = d // (g * g)
            col = ((t, g * f),)
            if abs(g) > 1:
                cv = tab.content_vector()
                other = self.index[cv[: i - 1] + (cv[i], cv[i - 1]) + cv[i + 1 :]]
                col += ((other, d if g > 0 else d - f),)
            cols.append(col)
        return _seminormal(cols, d)

    @cache
    def matrix(self, w: tuple) -> Seminormal:
        """The matrix of an arbitrary permutation, a tuple in one-line form."""
        moved = [t for t, v in enumerate(w, 1) if t != v]
        if len(moved) == 2:
            i, j = moved
            s = self.simple(j - 1)
            if j == i + 1:
                return s
            neighbour = self.matrix(transposition(self.n, i, j - 1))
            return _product(s, _product(neighbour, s))
        record = Seminormal(tuple(((t, 1),) for t in range(self.dim)), 1, 1)
        for a in reversed(descent_word(w)):
            record = _product(self.simple(a), record)
        return record

    @cached_property
    def denominator(self) -> int:
        """D, the least common denominator of all transposition matrices."""
        return lcm(
            *(
                self.matrix(transposition(self.n, i, j)).d
                for i in range(1, self.n)
                for j in range(i + 1, self.n + 1)
            )
        )

    @cache
    def transpositions(self, i: int) -> tuple:
        """For j = 1..n, the columns of D times the matrix of (i j), with
        integer entries, in one tuple; None at j = i."""
        row = [None] * self.n
        for j in range(1, self.n + 1):
            if j != i:
                record = self.matrix(transposition(self.n, i, j))
                f = self.denominator // record.d
                cols = record.columns
                row[j - 1] = tuple(tuple((r, c * f) for r, c in col) for col in cols)
        return tuple(row)


@lru_cache(maxsize=None)
def tau_context(shape: tuple[int, ...]) -> TauContext:
    return TauContext(shape)


# ---------------------------------------------------------------------------
# sparse vector-valued polynomials
# ---------------------------------------------------------------------------


class VectorPoly:
    """Finite sum of terms ``coeff * x^exponent (x) basis_tableau``.

    Coefficients are either all RatFunc (generic parameter) or all rational,
    Fraction or int (specialized; divide them through Fraction); terms with
    zero coefficient are never stored.  Instances are immutable; arithmetic
    returns new objects.
    """

    __slots__ = ("shape", "n", "terms")

    def __init__(self, shape, terms=None):
        shape = normalize_partition(shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "n", sum(shape))
        clean = {}
        for (exp, tab), coeff in (terms or {}).items():
            if not coeff:
                continue
            if len(exp) != self.n:
                raise ShapeMismatch(
                    f"exponent length {len(exp)} != {self.n} variables"
                )
            clean[(tuple(exp), tab)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("VectorPoly is immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(shape) -> "VectorPoly":
        return VectorPoly(shape, {})

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_support(self) -> set:
        return {e for e, _ in self.terms}

    def tableau_component(self, exp) -> dict:
        """Mapping tableau index -> coefficient at one exponent."""
        exp = tuple(exp)
        return {t: c for (e, t), c in self.terms.items() if e == exp}

    def sorted_terms(self):
        """Graded lexicographic on exponents (leading first), then basis index."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (-sum(kv[0][0]), tuple(-e for e in kv[0][0]), kv[0][1]),
        )

    # -- arithmetic ----------------------------------------------------------------

    def _require_same(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            new = coeff if acc is None else acc + coeff
            if new:
                out[key] = new
            elif acc is not None:
                del out[key]
        return VectorPoly(self.shape, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VectorPoly(self.shape, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "VectorPoly":
        if not c:
            return VectorPoly.zero(self.shape)
        return VectorPoly(self.shape, {k: c * v for k, v in self.terms.items()})

    def mul_monomial(self, exp_delta) -> "VectorPoly":
        """Multiply by a scalar monomial: shift every exponent."""
        delta = tuple(exp_delta)
        if len(delta) != self.n:
            raise ShapeMismatch("monomial length mismatch")
        out = {}
        for (exp, tab), c in self.terms.items():
            out[tuple(a + d for a, d in zip(exp, delta)), tab] = c
        return VectorPoly(self.shape, out)

    def cleared(self) -> tuple[int, dict] | None:
        """(L, integer terms) with self = terms / L when every coefficient is
        rational, L the least common denominator; None over Q(kappa)."""
        coeffs = self.terms.values()
        if any(isinstance(c, RatFunc) for c in coeffs):
            return None
        den = lcm(*(c.denominator for c in coeffs))
        return den, {
            key: c.numerator * (den // c.denominator) for key, c in self.terms.items()
        }

    def map_coefficients(self, fn) -> "VectorPoly":
        return VectorPoly(self.shape, {k: fn(c) for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, VectorPoly)
            and self.shape == other.shape
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"VectorPoly(shape={self.shape}, terms={len(self.terms)})"

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> list:
        # the zero polynomial builds no seminormal context
        tableaux = tau_context(self.shape).tableaux if self.terms else ()
        out = []
        for (exp, tab), coeff in self.sorted_terms():
            if isinstance(coeff, RatFunc):
                cj = coeff.to_json()
            else:
                q = Fraction(coeff)
                cj = f"{q.numerator}/{q.denominator}"
            out.append(
                {
                    "exp": list(exp),
                    "tableau": list(tableaux[tab].content_vector()),
                    "coeff": cj,
                }
            )
        return out

    @staticmethod
    def from_json(obj, shape=None) -> "VectorPoly":
        """The polynomial of ``to_json``'s list; a ValueError for an exponent
        that is not a list of nonnegative integers, tableau contents that are
        not integers or not of the shape, or a zero denominator."""
        from .combinatorics import rsyt_from_contents

        terms = {}
        for item in obj:
            contents = tuple(item["tableau"])
            if not all(type(c) is int for c in contents):
                raise ValueError(f"tableau contents {list(contents)} are not integers")
            tableau = rsyt_from_contents(contents)
            if shape is None:
                shape = tableau.shape
            ctx = tau_context(normalize_partition(shape))
            exp = tuple(item["exp"])
            if not all(type(e) is int and e >= 0 for e in exp):
                raise ValueError(f"exponent {list(exp)} is not of nonnegative integers")
            coeff = item["coeff"]
            try:
                if isinstance(coeff, str):
                    p, _, q = coeff.partition("/")
                    value = Fraction(int(p), int(q or 1))
                else:
                    value = RatFunc.from_json(coeff)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {coeff!r}") from None
            if contents not in ctx.index:
                raise ValueError(
                    f"tableau contents {list(contents)} are not of shape {ctx.shape}"
                )
            key = (exp, ctx.index[contents])
            terms[key] = terms.get(key, 0) + value if key in terms else value
        if shape is None:
            raise ValueError("cannot infer shape from an empty polynomial")
        return VectorPoly(shape, terms)


# ---------------------------------------------------------------------------
# tableau vectors packed into one integer per exponent
# ---------------------------------------------------------------------------


class Packed(NamedTuple):
    """Integer terms in the operators' packed form at one width: ``groups``
    maps each exponent to its tableau entries [(r, c_r)]."""

    ctx: TauContext
    groups: dict
    width: int


def pack(ctx: TauContext, terms: dict, width: int) -> Packed:
    """Integer terms grouped by exponent once, for the kernels at width."""
    groups = {}
    for (exp, tab), c in terms.items():
        groups.setdefault(exp, []).append((tab, c))
    return Packed(ctx, groups, width)


def packed_vector(entries, width: int) -> int:
    """The tableau entries [(r, c_r)] of one exponent as the one integer
    sum_r c_r 2^(width r)."""
    return sum(c << (width * tab) for tab, c in entries)


def packed_columns(cols, width: int, scale: int) -> list[int]:
    """Every column of an integer matrix times ``scale``, column t as the
    one integer sum_r scale * c_r * 2^(width * r), in one list by t."""
    return [sum(scale * c << (width * row) for row, c in col) for col in cols]


def packed_width(bound: int) -> int:
    """The least width whose signed digits hold every integer of absolute
    value at most ``bound``."""
    return bound.bit_length() + 1


def signed_digits(value: int, width: int) -> list[int]:
    """The unique digits d_r, -2^(width - 1) <= d_r < 2^(width - 1), with
    value = sum_r d_r 2^(width r), lowest first; the last is nonzero."""
    out = []
    base = 1 << width
    mask, half = base - 1, base >> 1
    while value:
        d = value & mask
        if d >= half:
            d -= base
        out.append(d)
        value = (value - d) >> width
    return out


def unpack(value: int, width: int, dim: int) -> list[tuple[int, int]]:
    """The nonzero signed digits (r, d_r) of value = sum_r d_r 2^(width r),
    each |d_r| < 2^(width - 1), for r < dim.  A ValueError when a residual
    is left after dim digits: the digits overflowed the width."""
    digits = signed_digits(value, width)
    if len(digits) > dim:
        raise ValueError(f"packed value overflows {dim} digits of width {width}")
    return [(row, d) for row, d in enumerate(digits) if d]


def from_packed(shape, acc: dict, width: int, den: int) -> VectorPoly:
    """The polynomial with, at each exponent, the tableau vector unpacked
    from acc[exp] and divided by den; a digit that den divides stays an
    int."""
    dim = tau_context(shape).dim
    out = {}
    for exp, value in acc.items():
        for row, d in unpack(value, width, dim):
            q, r = divmod(d, den)
            out[exp, row] = Fraction(d, den) if r else q
    return VectorPoly(shape, out)


def top_exponent(exps) -> int:
    """The largest entry of any exponent."""
    return max(map(max, exps), default=0)


def kronecker_pack(p: VectorPoly, factor: int, width_factor) -> tuple:
    """(Q, w, N(K) packed) for p = N / Q cleared once, N in Z[kappa]
    (coefficients that are not RatFunc are coerced to it): w is the width
    that holds |N| * factor, K = 2^w is the Kronecker point, and N(K) is
    packed at the width that holds ||N(K)||_1 * ``width_factor(K)``.

    Proof of the point.  Let a kernel map cleared coefficients c to S c
    with S = S_0 + kappa S_1 for integer maps S_0 and S_1 free of kappa,
    every term of S_0 x + S_1 y at most max(||x||_1, ||y||_1) * factor in
    absolute value.  Evaluation at K is a ring map, so the kernel at K
    sends N(K) to R(K) for R = S_0 N + kappa S_1 N in Z[kappa].  With |N|
    the sum of the absolute values of all coefficients of N, the kappa^t
    plane of R is S_0 N_t + S_1 N_(t-1), so each of its terms R_t is at
    most |N| * factor in absolute value, which w holds: |R_t| < K / 2, so
    the R_t are the signed base-K digits of R(K) and ``signed_digits``
    reads them back exactly.
    """
    q, numerators = clear_denominators(
        c if isinstance(c, RatFunc) else RatFunc.from_fraction(c)
        for c in p.terms.values()
    )
    w = packed_width(sum(abs(c) for num in numerators for c in num) * factor)
    point = {
        key: packed_vector(enumerate(num), w) for key, num in zip(p.terms, numerators)
    }
    width = packed_width(sum(map(abs, point.values())) * width_factor(1 << w))
    return q, w, pack(tau_context(p.shape), point, width)


def apply_packed(p: VectorPoly, scale: int, factor, kernel, lam=1, generic=False):
    """The image of p under an operator given by its packed kernel.

    ``kernel(packed, at)`` returns fresh packed accumulators holding scale
    times the image of the ``Packed`` operand, and ``factor(top, at)``
    bounds their digit growth: every digit is at most ||c||_1 * factor in
    absolute value, ||c||_1 the sum of the absolute input coefficients and
    top the largest exponent.  Rational coefficients are cleared to
    integers over L and packed at the width that holds this bound, the
    kernel runs at ``at`` = lam, and one division by L * scale per term
    ends it.

    RatFunc coefficients, and every input when the operator is taken at
    kappa itself (``generic``, S_1 != 0 only then), are lifted once by
    ``kronecker_pack`` with the factor at lam, p = N / Q.  The kernel runs
    once, at ``at`` = K when generic and at lam otherwise; its digits are
    scale R(K), each read back by its signed base-K digits into the
    coefficient R / (scale * Q).
    """
    ctx = tau_context(p.shape)
    top = top_exponent(exp for exp, _ in p.terms)
    cleared = None if generic else p.cleared()
    if cleared is not None:
        den, coeffs = cleared
        width = packed_width(sum(map(abs, coeffs.values())) * factor(top, lam))
        acc = kernel(pack(ctx, coeffs, width), lam)
        return from_packed(p.shape, acc, width, den * scale)
    q, w, packed = kronecker_pack(
        p, factor(top, lam), lambda point: factor(top, point if generic else lam)
    )
    den = tuple(scale * c for c in q)
    out = {}
    for exp, value in kernel(packed, (1 << w) if generic else lam).items():
        for row, d in unpack(value, packed.width, ctx.dim):
            out[exp, row] = RatFunc(signed_digits(d, w), den)
    return VectorPoly(p.shape, out)


def _permutations(w, n: int) -> list[tuple[int, ...]]:
    """w as a list of permutations: [w] for one permutation in one-line
    form, else the permutations of the sequence w; a ValueError for any
    that is not a permutation of 1..n."""
    w = list(w)
    perms = [tuple(w)] if w and isinstance(w[0], int) else [tuple(v) for v in w]
    ident = list(range(1, n + 1))
    for v in perms:
        if sorted(v) != ident:
            raise ValueError(f"{v} is not a permutation of 1..{n}")
    return perms


def _mover(v):
    """exp -> v . exp as one itemgetter, (v . exp)_t = exp_{v^{-1}(t)}."""
    if len(v) < 2:
        return tuple
    return itemgetter(*(t - 1 for t in perm_inverse(v)))


def action_factor(ctx: TauContext, perms, scale: int) -> int:
    """sum_v (scale / d_v) A_v, A_v the largest column 1-norm of d_v tau(v)
    (the ``norm`` of ``ctx.matrix(v)``): ``action_kernel`` at ``scale``
    sends a term of coefficient c at most |c| times this into the output
    digits."""
    return sum(scale // r.d * r.norm for r in map(ctx.matrix, perms))


def action_kernel(perms, p: Packed, scale: int) -> dict:
    """scale * sum_v v(p) as fresh packed accumulators (exponent ->
    sum_r d_r 2^(width r)); each denominator d_v of ``ctx.matrix(v)`` must
    divide scale.

    The image of a basis tableau under (scale / d_v) d_v tau(v) is one
    packed column, so an exponent costs one sum of coefficient-times-column
    products per permutation.  Packing is Z-linear, so acc[e] is the packed
    digit vector of the image at e whatever the digits' size; only reading
    the digits back needs them to fit the width (``action_factor``).
    """
    acc = {}
    for v in perms:
        record = p.ctx.matrix(v)
        columns = packed_columns(record.columns, p.width, scale // record.d)
        move = _mover(v)
        for exp, entries in p.groups.items():
            key = move(exp)
            acc[key] = acc.get(key, 0) + sum(c * columns[tab] for tab, c in entries)
    return acc


def group_action(w, p: VectorPoly) -> VectorPoly:
    """w(p)(x) = tau(w) p(xw); exponents permute as (w.exp)_i = exp_{w^{-1}(i)}.

    ``w`` is one permutation in one-line form, or a sequence of them, which
    acts by their sum in the group algebra (an empty sequence by zero).

    Rational coefficients are cleared to integers over L, and
    ``action_kernel`` accumulates d times the image, d the lcm of the
    matrices' denominators; one division per term ends it.  Over Q(kappa)
    the same body runs once at a Kronecker point (``apply_packed``).

    Digit width.  Let ||c||_1 be the sum of the absolute cleared
    coefficients.  A term of coefficient c sends, through each v, |c| times
    a column 1-norm of d tau(v) into the output digits, so every output
    digit is at most ||c||_1 * factor in absolute value, factor =
    ``action_factor(ctx, perms, d)``, and the width holds that bound.  The
    packed sums are the digit vectors at 2^width, a Z-linear map, so
    ``unpack`` recovers each digit exactly.
    """
    perms = _permutations(w, p.n)
    if p.is_zero():  # no seminormal context for the zero image
        return VectorPoly.zero(p.shape)
    ctx = tau_context(p.shape)
    d = lcm(*(ctx.matrix(v).d for v in perms))
    factor = action_factor(ctx, perms, d)
    return apply_packed(
        p,
        d,
        lambda top, at: factor,
        lambda packed, at: action_kernel(perms, packed, d),
    )


def leading_vector(alpha, tableau: Rsyt) -> VectorPoly:
    """x^alpha tensored with tau(r_alpha^{-1}) applied to the tableau: the
    triangular leading term of the Jack polynomial labelled (alpha, T)."""
    ctx = tau_context(tableau.shape)
    r_inv = perm_inverse(rank_permutation(alpha))
    record = ctx.matrix(r_inv)
    return VectorPoly(
        tableau.shape,
        {
            (tuple(alpha), row): RatFunc.from_fraction(Fraction(c, record.d))
            for row, c in record.columns[ctx.index_of(tableau)]
        },
    )
