"""Independent test oracles: exact linear algebra over Q and a brute-force
simultaneous-eigenvector solve for Jack polynomials at fixed rational
parameter values, which deliberately avoid the projection constructor;
reference formulas for the operators; combinatorial helpers only tests use;
simple reflections applied to Jack polynomials over Q(kappa), the reference
for ``jack.reflection_rule``; the content-gap classification of the closure
cases, the reference for ``singular.closure_case``; the sampled
module-map check that the proof in ``mu_commutation_check`` replaced;
``monomial``, the one-term polynomial the tests build; and ``family``, the
families that tests share instead of building each one again.

References that no command reads, each kept under test:
``layer_composition`` and ``brick_stack_target`` (of the top label, the
brick map of ``max_inv_source``), ``reflection_case`` (the six cases of
``jack.reflection_rule``), ``compare_order`` (the order of
``compositions_strictly_below`` and its pool),
``perm_apply_to_composition`` (the itemgetter of ``vectorpoly._mover``),
``swapped_inv_max`` (of ``singular.alpha_variants``), the paper's reduction
lemma ``reduce_by_permissible_steps``, the module map ``mu_map``, and the
paper's reverse module map ``reverse_map_qT``."""

import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import factorial
from typing import NamedTuple

from nsjack.combinatorics import (
    BadShapeParams,
    ColumnStrictTableau,
    Rsyt,
    _composition_pool,
    apply_permissible_step,
    descent_word,
    enumerate_rsyt,
    inv_statistic,
    max_inv_source,
    normalize_partition,
    rank_permutation,
    sort_descending,
    transposition,
)
from nsjack.jack import (
    JackPolynomial,
    reflection_rule,
    spectral_vector,
    spectral_vector_at,
    verify_eigen_equations,
)
from nsjack.operators import cherednik_prime, dunkl
from nsjack.ratfunc import KAPPA, RatFunc
from nsjack.singular import (
    ClosureViolation,
    FamilyContext,
    NonzeroDunklImage,
    NotIsotypic,
    family_context,
    isotype_of,
    tableau_norm_squared,
)
from nsjack.vectorpoly import VectorPoly, group_action, leading_vector, tau_context


def catalan(n: int) -> int:
    num = 1
    for i in range(n):
        num = num * (2 * n - i) // (i + 1)
    return num // (n + 1)


def hook_length_count(shape):
    """Number of standard (equivalently, reverse standard) Young tableaux of
    the given shape, by the hook-length formula."""
    shape = tuple(shape)
    n = sum(shape)
    prod = 1
    for r, length in enumerate(shape):
        for c in range(length):
            arm = length - c - 1
            leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
            prod *= arm + leg + 1
    return factorial(n) // prod


def monomial(shape, exp, tab_index: int, coeff=None) -> VectorPoly:
    """coeff x^exp (x) the tableau of index tab_index, coeff 1 in Q(kappa)
    by default."""
    if coeff is None:
        coeff = RatFunc.from_int(1)
    return VectorPoly(shape, {(tuple(exp), tab_index): coeff})


def compositions_of_degree(degree, nvars):
    """All exponent vectors of the given total degree, lexicographic."""
    if degree == 0:
        return [(0,) * nvars]
    out = []
    for slots in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for s in slots:
            exp[s] += 1
        out.append(tuple(exp))
    return sorted(set(out))


def exponent_code(exp, base):
    """sum_t exp_t * base^(t-1): the key the projection constructor gives an
    exponent whose entries are below base."""
    return sum(e * base**t for t, e in enumerate(exp))


def exponent_of_code(code, base, nvars):
    """The exponent with nvars entries in 0..base-1 and the given code."""
    exp = []
    for _ in range(nvars):
        code, digit = divmod(code, base)
        exp.append(digit)
    assert code == 0, "code too large for nvars digits"
    return tuple(exp)


def nullspace(rows):
    """Basis of the right nullspace of a matrix of Fractions (list of rows)."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


@lru_cache(maxsize=None)
def _uprime_matrices(shape, degree, kappa0):
    """Dense matrices of every modified Cherednik-Dunkl operator on the full
    monomial (x) tableau basis of one homogeneous degree, at a fixed rational
    parameter.  Assembled through the generic operator path."""
    ctx = tau_context(shape)
    n = sum(shape)
    exps = compositions_of_degree(degree, n)
    basis = [(e, t) for e in exps for t in range(ctx.dim)]
    index = {key: pos for pos, key in enumerate(basis)}
    dim = len(basis)
    mats = []
    for i in range(1, n + 1):
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for col, (exp, tab) in enumerate(basis):
            image = cherednik_prime(i, monomial(shape, exp, tab, Fraction(1)), kappa0)
            for key, coeff in image.terms.items():
                mat[index[key]][col] += coeff
        mats.append(mat)
    return basis, index, mats


@lru_cache(maxsize=None)
def _first_eigenspace(shape, degree, kappa0, theta):
    _, _, mats = _uprime_matrices(shape, degree, kappa0)
    m = mats[0]
    dim = len(m)
    rows = [
        [m[r][c] - (theta if r == c else 0) for c in range(dim)]
        for r in range(dim)
    ]
    return tuple(tuple(v) for v in nullspace(rows))


def eigensolve_jack(alpha, tableau, kappa0) -> VectorPoly:
    """Brute-force Jack polynomial at a fixed rational parameter: intersect
    the eigenspaces of the modified Cherednik-Dunkl matrices, then normalize
    the leading coefficient to match the triangular leading term."""
    kappa0 = Fraction(kappa0)
    shape = tableau.shape
    n = sum(shape)
    alpha = tuple(alpha)
    zeta = spectral_vector_at(alpha, tableau, kappa0)
    basis, index, mats = _uprime_matrices(shape, sum(alpha), kappa0)
    dim = len(basis)

    space = [list(v) for v in _first_eigenspace(shape, sum(alpha), kappa0, zeta[0])]
    for i in range(2, n + 1):
        if not space:
            break
        m = mats[i - 1]
        k = len(space)
        rows = []
        for r in range(dim):
            row = []
            for vec in space:
                val = sum(m[r][c] * vec[c] for c in range(dim) if vec[c])
                row.append(val - zeta[i - 1] * vec[r])
            rows.append(row)
        combos = nullspace(rows)
        space = [
            [
                sum(combo[j] * space[j][c] for j in range(k))
                for c in range(dim)
            ]
            for combo in combos
        ]
    assert len(space) == 1, f"joint eigenspace dimension {len(space)}"
    vec = space[0]

    lead = leading_vector(alpha, tableau).map_coefficients(
        lambda c: c.evaluate(kappa0)
    )
    pin_key, pin_val = next(iter(lead.terms.items()))
    scale = pin_val / vec[index[pin_key]]
    return VectorPoly(
        shape,
        {basis[c]: scale * vec[c] for c in range(dim) if vec[c]},
    )


def perm_apply_to_composition(w, alpha) -> tuple[int, ...]:
    """(w . alpha)_i = alpha_{w^{-1}(i)}, so that (xw)^alpha = x^{w.alpha}."""
    out = [0] * len(alpha)
    for i, a in enumerate(alpha):
        out[w[i] - 1] = a
    return tuple(out)


class Comparison(Enum):
    LESS = "less"  # first argument strictly below in the composition order
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _prefix_leq(alpha, beta) -> bool:
    return all(s <= t for s, t in zip(accumulate(alpha), accumulate(beta)))


def compare_order(alpha, beta) -> Comparison:
    """Compare in the order on compositions refined from dominance.

    alpha < beta iff |alpha| = |beta| and either the sorted rearrangement of
    alpha is strictly dominated by that of beta, or the rearrangements agree
    and alpha itself has weakly smaller prefix sums.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if alpha == beta:
        return Comparison.EQUAL
    if len(alpha) != len(beta) or sum(alpha) != sum(beta):
        return Comparison.INCOMPARABLE
    ap, bp = sort_descending(alpha), sort_descending(beta)
    if ap == bp:
        ap, bp = alpha, beta
    if _prefix_leq(ap, bp):
        return Comparison.LESS
    if _prefix_leq(bp, ap):
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def compositions_strictly_below_by_order(alpha):
    """compositions_strictly_below by its definition: every member of the
    pool that ``compare_order`` puts strictly below alpha, in pool order."""
    alpha = tuple(alpha)
    return tuple(
        g
        for g in _composition_pool(sort_descending(alpha))
        if compare_order(g, alpha) is Comparison.LESS
    )


# ---------------------------------------------------------------------------
# distinguished tableaux and one-swap classes of the two-row rectangle, and
# the paper's reduction lemma: every tableau of a class reaches the class's
# inv-maximal member by permissible steps, each raising inv by one
# ---------------------------------------------------------------------------


def layer_composition(m: int, k: int) -> tuple[int, ...]:
    """((k-1)^{2m}, (k-2)^{2m}, ..., 0^{2m}): the brick layer of each entry
    slot; the reference for the beta of the top label, the brick map of
    ``max_inv_source(m, k)``."""
    return tuple(k - 1 - i // (2 * m) for i in range(2 * m * k))


def brick_stack_target(m: int, k: int) -> Rsyt:
    """Stack of k standard 2 x m bricks, each filled column by column, of
    shape (m^(2k)); the reference for the tableau of the top label."""
    rows = []
    for level in range(k):
        base = 2 * m * (k - level)
        rows.append(tuple(base - 2 * j for j in range(m)))
        rows.append(tuple(base - 1 - 2 * j for j in range(m)))
    return Rsyt(rows)


class DistinguishedTableaux(NamedTuple):
    source_max: Rsyt
    target_stack: Rsyt
    layers: tuple[int, ...]
    swapped: dict  # (j, n) -> ColumnStrictTableau, n = m*s for 1 <= s <= k-1


def distinguished_tableaux(m: int, k: int) -> DistinguishedTableaux:
    if m < 1 or k < 2:
        raise BadShapeParams(f"need m >= 1 and k >= 2, got m={m}, k={k}")
    swapped = {
        (j, m * s): swapped_inv_max(m * k, j, m * s)
        for s in range(1, k)
        for j in (1, 2)
    }
    return DistinguishedTableaux(
        source_max=max_inv_source(m, k),
        target_stack=brick_stack_target(m, k),
        layers=layer_composition(m, k),
        swapped=swapped,
    )


def swapped_inv_max(num_cols: int, j: int, n: int) -> ColumnStrictTableau:
    """The inv-maximal member of the one-swap class: column filling of the
    two-row shape with the 2x2 block at columns n, n+1 rearranged; the
    reference for ``singular.alpha_variants``."""
    if not (1 <= n < num_cols) or j not in (1, 2):
        raise BadShapeParams(f"need 1 <= n < {num_cols} and j in {{1,2}}")
    top, bot = list(range(2 * num_cols, 0, -2)), list(range(2 * num_cols - 1, 0, -2))
    v = 2 * num_cols - 2 * n
    if j == 1:
        block = ((v + 1, v + 2), (v, v - 1))
    else:
        block = ((v + 2, v + 1), (v - 1, v))
    top[n - 1], top[n] = block[0]
    bot[n - 1], bot[n] = block[1]
    return ColumnStrictTableau((top, bot))


def enumerate_one_swap_class(num_cols: int, j: int, n: int) -> tuple:
    """All column-strict tableaux one row-swap (at row j, columns n, n+1)
    away from an RSYT of the two-row rectangle."""
    out = []
    for t in enumerate_rsyt((num_cols, num_cols)):
        rows = [list(r) for r in t.rows]
        rows[j - 1][n - 1], rows[j - 1][n] = rows[j - 1][n], rows[j - 1][n - 1]
        try:
            out.append(ColumnStrictTableau(rows))
        except ValueError:
            continue
    return tuple(out)


class NotReducible(ValueError):
    """Tableau is not reducible by permissible steps (wrong shape or class)."""


def _row_violation(tab) -> tuple[int, int] | None:
    """The unique adjacent row inversion (row, col), if there is exactly one."""
    bad = [
        (r + 1, c + 1) for r, row in enumerate(tab.rows) for c in range(len(row) - 1)
        if row[c] < row[c + 1]
    ]
    return bad[0] if len(bad) == 1 else None


def reduce_by_permissible_steps(tab) -> list[int]:
    """Indices of permissible steps carrying the tableau to the inv-maximal
    element of its class (the column filling, or its one-swap variant).

    Works on two-row column-strict tableaux: RSYT reduce to the column-by-
    column filling, and one-row-swap tableaux to the corresponding swapped
    filling.  Each returned step raises inv by exactly 1.
    """
    if len(tab.shape) != 2 or tab.shape[0] != tab.shape[1]:
        raise NotReducible(f"need a two-row rectangle, got shape {tab.shape}")
    num_cols = tab.shape[0]
    violation = _row_violation(tab)
    jrow = swap_col = None
    if not isinstance(tab, Rsyt):
        if violation is None:
            try:
                tab = Rsyt(tab.rows)
            except ValueError as exc:
                raise NotReducible("not an RSYT nor one row swap away") from exc
        else:
            jrow, swap_col = violation
            fixed = [list(r) for r in tab.rows]
            row = fixed[jrow - 1]
            row[swap_col - 1], row[swap_col] = row[swap_col], row[swap_col - 1]
            try:
                Rsyt(fixed)
            except ValueError as exc:
                raise NotReducible("not an RSYT nor one row swap away") from exc

    steps = []
    current = tab

    def step(i):
        nonlocal current
        before = inv_statistic(current)
        current = apply_permissible_step(current, i)
        if inv_statistic(current) != before + 1:
            raise NotReducible(f"step {i} does not raise the inversion count by one")
        steps.append(i)

    # fix columns left to right: raise the bottom entry until it is one below
    # the top.  For the swapped class, stop before the displaced block.
    limit = num_cols - 1 if swap_col is None else swap_col - 1
    for col in range(1, limit + 1):
        while current.entry(2, col) < current.entry(1, col) - 1:
            step(current.entry(2, col))
    # fix columns right to left: lower the top entry until one above the bottom
    if swap_col is not None:
        for col in range(num_cols, swap_col + 1, -1):
            while current.entry(1, col) > current.entry(2, col) + 1:
                step(current.entry(1, col) - 1)
        done = current == swapped_inv_max(num_cols, jrow, swap_col)
    else:
        done = current == max_inv_source(1, num_cols)
    if not done:
        raise NotReducible(f"reduction ends at {current.rows}, not at the top")
    return steps


# ---------------------------------------------------------------------------
# seminormal matrices in Fraction arithmetic
# ---------------------------------------------------------------------------


def tau_action(w, tab_index: int, shape) -> dict[int, Fraction]:
    """Image of a basis tableau under the seminormal action of w, as a
    mapping from basis index to coefficient."""
    record = tau_context(normalize_partition(shape)).matrix(w)
    return {row: Fraction(c, record.d) for row, c in record.columns[tab_index]}


def seminormal_fractions(shape, w):
    """The seminormal matrix of w as Fraction columns {row: c}, composed
    along ``descent_word(w)`` from the degree-zero rules: s_i fixes a
    tableau with i, i+1 in one row, negates it with them in one column, and
    otherwise sends it to b T + (1 if b > 0 else 1 - b^2) T', with b = 1/g
    for the content gap g of i and i+1 and T' the tableau with them
    swapped."""
    tableaux = enumerate_rsyt(shape)
    index = {tab.content_vector(): t for t, tab in enumerate(tableaux)}

    def simple(i):
        cols = []
        for t, tab in enumerate(tableaux):
            (ri, ci), (rj, cj) = tab.cell(i), tab.cell(i + 1)
            if ri == rj or ci == cj:
                cols.append({t: Fraction(1 if ri == rj else -1)})
            else:
                b = Fraction(1, (ci - ri) - (cj - rj))
                other = index[Rsyt(tab.swap_entries(i)).content_vector()]
                cols.append({t: b, other: 1 if b > 0 else 1 - b * b})
        return cols

    out = [{t: Fraction(1)} for t in range(len(tableaux))]
    for a in reversed(descent_word(w)):
        s = simple(a)
        composed = []
        for col in out:
            acc = {}
            for mid, c2 in col.items():
                for row, c1 in s[mid].items():
                    acc[row] = acc.get(row, 0) + c1 * c2
            composed.append({r: c for r, c in acc.items() if c})
        out = composed
    return out


# ---------------------------------------------------------------------------
# reference formulas for the packed operator kernels, term by term over any
# coefficient ring (int, Fraction or RatFunc, mixed)
# ---------------------------------------------------------------------------


def _add_term(acc, key, value):
    acc[key] = acc.get(key, 0) + value


def group_action_fractions(w, p):
    """w(p) term by term: tau(w) on the tableau and
    (w.exp)_i = exp_{w^{-1}(i)} on the exponent."""
    record = tau_context(p.shape).matrix(w)
    acc = {}
    for (exp, tab), coeff in p.terms.items():
        new_exp = [0] * len(exp)
        for i, a in enumerate(exp):
            new_exp[w[i] - 1] = a
        for row, c in record.columns[tab]:
            _add_term(acc, (tuple(new_exp), row), Fraction(c, record.d) * coeff)
    return VectorPoly(p.shape, {k: v for k, v in acc.items() if v})


def jucys_murphy_fractions(i, p):
    """Sum over j > i of the transposition (i j), term by term."""
    acc = {}
    for j in range(i + 1, p.n + 1):
        for key, c in group_action_fractions(transposition(p.n, i, j), p).terms.items():
            _add_term(acc, key, c)
    return VectorPoly(p.shape, {k: v for k, v in acc.items() if v})


def dunkl_fractions(i, p, kappa0=KAPPA):
    """D_i p = d/dx_i p + kappa0 * sum_{j != i} tau((i j)) applied to
    (p(x) - p(x (i j))) / (x_i - x_j), with each divided difference expanded
    monomial by monomial; kappa0 is rational or KAPPA."""
    ctx = tau_context(p.shape)
    acc = {}
    for (exp, tab), coeff in p.terms.items():
        if exp[i - 1]:
            d = list(exp)
            d[i - 1] -= 1
            _add_term(acc, (tuple(d), tab), coeff * exp[i - 1])
        for j in range(1, p.n + 1):
            a, b = exp[i - 1], exp[j - 1]
            if j == i or a == b:
                continue
            # (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j), by the geometric sum
            sign, hi, lo = (1, a, b) if a > b else (-1, b, a)
            for t in range(hi - lo):
                mono = list(exp)
                mono[i - 1] = lo + t
                mono[j - 1] = hi - 1 - t
                record = ctx.matrix(transposition(p.n, i, j))
                for row, c in record.columns[tab]:
                    term = kappa0 * coeff * sign * Fraction(c, record.d)
                    _add_term(acc, (tuple(mono), row), term)
    return VectorPoly(p.shape, {k: v for k, v in acc.items() if v})


# ---------------------------------------------------------------------------
# operator identities and eigen equations in Q(kappa) arithmetic, on the
# reference formulas above (no code shared with the packed kernels)
# ---------------------------------------------------------------------------


def _unit(i, n):
    return tuple(int(t == i - 1) for t in range(n))


def cherednik_from_definition(i, p, kappa=KAPPA):
    """The defining expression D_i(x_i p) - kappa * sum_{j<i} (i,j) p; equals
    cherednik(i, p)."""
    out = dunkl_fractions(i, p.mul_monomial(_unit(i, p.n)), kappa)
    for j in range(1, i):
        out = out - group_action_fractions(transposition(p.n, i, j), p).scale(kappa)
    return out


def is_singular_at(p, kappa0, indices=None):
    """Whether every Dunkl operator kills the (specialized) polynomial."""
    kappa0 = Fraction(kappa0)
    for i in indices or range(1, p.n + 1):
        if not dunkl(i, p, kappa0).is_zero():
            return False
    return True


def verify_eigen_equations_ratfunc(jack, indices=None):
    """Assert U'_i J = zeta'(i) J over Q(kappa) for the given indices, with
    U'_i = (1/kappa) x_i D_i + omega_i applied term by term in RatFunc
    arithmetic, comparing canonical forms."""
    inv = RatFunc.kappa_inverse()
    for i in indices or range(1, len(jack.alpha) + 1):
        x_dunkl = dunkl_fractions(i, jack.poly).mul_monomial(_unit(i, jack.poly.n))
        lhs = x_dunkl.scale(inv) + jucys_murphy_fractions(i, jack.poly)
        rhs = jack.poly.scale(jack.spectral[i - 1])
        if lhs != rhs:
            raise AssertionError(
                f"eigen equation fails at index {i} for label "
                f"({jack.alpha}, {jack.tableau.rows})"
            )


# ---------------------------------------------------------------------------
# simple reflections applied to Jack polynomials over Q(kappa): the reference
# for ``jack.reflection_rule``
# ---------------------------------------------------------------------------


class ReflectionCase(Enum):
    EXPONENT_RAISE = "exponent_raise"  # alpha_{i+1} > alpha_i
    EXPONENT_LOWER = "exponent_lower"  # alpha_i > alpha_{i+1}
    ROW_EIGENVECTOR = "row_eigenvector"  # adjacent entries share a row: +1
    COLUMN_EIGENVECTOR = "column_eigenvector"  # share a column: -1
    TABLEAU_RAISE = "tableau_raise"  # entry swap valid, reciprocal gap > 0
    TABLEAU_LOWER = "tableau_lower"  # entry swap valid, reciprocal gap < 0


def reflection_case(alpha, tableau, i) -> ReflectionCase:
    """Which case of ``reflection_rule`` s_i meets at the label: unequal
    exponents i, i+1 are swapped, and equal ones act on the tableau entries
    j = r_alpha(i) and j+1."""
    if alpha[i - 1] != alpha[i]:
        if alpha[i] > alpha[i - 1]:
            return ReflectionCase.EXPONENT_RAISE
        return ReflectionCase.EXPONENT_LOWER
    j = rank_permutation(alpha)[i - 1]
    (rj, cj), (rj1, cj1) = tableau.cell(j), tableau.cell(j + 1)
    if rj == rj1:
        return ReflectionCase.ROW_EIGENVECTOR
    if cj == cj1:
        return ReflectionCase.COLUMN_EIGENVECTOR
    if cj > cj1:
        return ReflectionCase.TABLEAU_RAISE
    return ReflectionCase.TABLEAU_LOWER


class ReflectionResult(NamedTuple):
    case: ReflectionCase
    b: RatFunc
    scalar: RatFunc  # (s_i - b) J = scalar * J_new, or the eigenvalue
    result: JackPolynomial


def apply_simple_reflection(i, jack, verify=True) -> ReflectionResult:
    """Transform a Jack polynomial by the simple reflection swapping i, i+1
    as ``reflection_rule`` predicts: (s_i - b) J / scalar labelled by the
    rule's target, or s_i J / scalar labelled like J when J is an
    eigenvector (so J itself when the rule is right).  The leading term is
    checked, and with ``verify`` the eigen equations of the label."""
    rule = reflection_rule(jack.alpha, jack.tableau, i)
    poly = group_action(transposition(len(jack.alpha), i, i + 1), jack.poly)
    if rule.target is not None:
        poly = poly - jack.poly.scale(rule.b)
    if rule.scalar != 1:
        poly = poly.scale(rule.scalar.inverse())
    label = rule.target or (jack.alpha, jack.tableau)
    result = _labelled(*label, poly, verify)
    case = reflection_case(jack.alpha, jack.tableau, i)
    return ReflectionResult(case, rule.b, rule.scalar, result)


def _labelled(alpha, tableau, poly, verify):
    jack = JackPolynomial(tuple(alpha), tableau, poly, spectral_vector(alpha, tableau))
    lead = leading_vector(alpha, tableau)
    if poly.tableau_component(alpha) != lead.tableau_component(alpha):
        raise AssertionError(
            f"leading term of label ({tuple(alpha)}, {tableau.rows}) is not the "
            "triangular one"
        )
    if verify:
        verify_eigen_equations(jack)
    return jack


def content_gap_case(source, beta, i):
    """The closure case of s_i at the brick pair (beta, source) from the
    source's content gap d = content(i) - content(i+1) alone: same_column for
    d = -1, generic for |d| >= 2, and for d = 1 same_row_brick inside a brick
    (beta_i = beta_{i+1}) or hinge across bricks (beta_i > beta_{i+1}); None
    otherwise."""
    contents = source.content_vector()
    diff = contents[i - 1] - contents[i]
    if diff == -1:
        return "same_column"
    if abs(diff) >= 2:
        return "generic"
    if diff == 1 and beta[i - 1] == beta[i]:
        return "same_row_brick"
    if diff == 1 and beta[i - 1] > beta[i]:
        return "hinge"
    return None


# ---------------------------------------------------------------------------
# the families, shared across tests
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def family(m: int, k: int, n: int = 1) -> FamilyContext:
    """``family_context(m, k, n)``, built once per test process for the
    tests that only read it; keyed by the arguments as spelled, so tests
    pass n positionally."""
    return family_context(m, k, n)


# ---------------------------------------------------------------------------
# the module map, sampled: the reference for the proof in
# ``singular.mu_commutation_check``; and the paper's reverse module map, which
# no command reports, so it stays a test of the paper's claim
# ---------------------------------------------------------------------------


def mu_map(g: VectorPoly, m: int, k: int) -> VectorPoly:
    """Linear map sending f (x) S to f * gamma_S * J_S at kappa = 1/(m+2)."""
    fam = family(m, k)
    if g.shape != fam.sigma:
        raise BadShapeParams(f"input must live on shape {fam.sigma}")
    out = VectorPoly.zero((m,) * (2 * k))
    for (exp, s_idx), coeff in g.terms.items():
        member = fam.members[s_idx]
        out = out + member.specialized.mul_monomial(exp).scale(coeff * member.gamma)
    return out


def random_source_polynomial(rng: random.Random, m: int, k: int, degree: int):
    """Sparse random element of the two-row module with small Fraction
    coefficients and total degree at most ``degree``."""
    sigma = (m * k, m * k)
    dim = len(enumerate_rsyt(sigma))
    n = 2 * m * k
    terms = {}
    for _ in range(4):
        total = rng.randint(0, degree)
        exp = [0] * n
        for _ in range(total):
            exp[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if coeff:
            key = (tuple(exp), rng.randrange(dim))
            terms[key] = terms.get(key, Fraction(0)) + coeff
    return VectorPoly(sigma, {k_: v for k_, v in terms.items() if v})


def mu_commutation_sampled(m, k, degree, trials, seed) -> int:
    """Compare mu with every coordinate multiplication, simple reflection
    and Dunkl operator on ``trials`` seeded random sources of degree at most
    ``degree``; raises ClosureViolation at the first failure, and returns
    the number of checks."""
    fam = family(m, k)
    rng = random.Random(seed)
    n = 2 * m * k
    checks = 0
    for _ in range(trials):
        g = random_source_polynomial(rng, m, k, degree)
        mu_g = mu_map(g, m, k)
        for i in range(1, n + 1):
            e_i = _unit(i, n)
            if mu_map(g.mul_monomial(e_i), m, k) != mu_g.mul_monomial(e_i):
                raise ClosureViolation(f"mu fails to commute with x_{i}")
            checks += 1
        for i in range(1, n):
            w = transposition(n, i, i + 1)
            if mu_map(group_action(w, g), m, k) != group_action(w, mu_g):
                raise ClosureViolation(f"mu fails to commute with s_{i}")
            checks += 1
        for i in range(1, n + 1):
            if mu_map(dunkl(i, g, fam.kappa0), m, k) != dunkl(i, mu_g, fam.kappa0):
                raise ClosureViolation(f"mu fails to commute with D_{i}")
            checks += 1
    return checks


class ReverseMapReport(NamedTuple):
    m: int
    k: int
    kappa0: Fraction  # -1/(m+2)
    # one (tableau contents, poly, singular, isotype contents) per RSYT T of
    # tau = (m^{2k}): #RSYT(tau) entries, 1 for (1,2) and 14 for (2,2)
    components: tuple


def reverse_map_qT(m: int, k: int) -> ReverseMapReport:
    """For each RSYT T of the stacked shape tau = (m^{2k}), assemble the
    polynomial q_T with values in V_sigma, sigma = (mk, mk), whose components
    are p_{S,T} * norm(T)^2 / norm(S)^2, and certify empirically that it is
    singular at kappa = -1/(m+2) with isotype given by T itself.

    There is one component per T, so #RSYT(tau) in all: 1 for (m, k) = (1, 2)
    and 14 for (2, 2)."""
    fam = family(m, k)
    tau_tabs = enumerate_rsyt((m,) * (2 * k))
    kappa_neg = Fraction(-1, m + 2)
    components = []
    for t_idx, t_tab in enumerate(tau_tabs):
        norm_t = tableau_norm_squared(t_tab)
        terms = {}
        for s_idx, member in enumerate(fam.members):
            ratio = norm_t / member.source_norm_squared
            terms.update(
                ((exp, s_idx), coeff * member.gamma * ratio)
                for (exp, tab), coeff in member.specialized.terms.items()
                if tab == t_idx
            )
        q = VectorPoly(fam.sigma, {k_: v for k_, v in terms.items() if v})
        if not all(dunkl(i, q, kappa_neg).is_zero() for i in range(1, q.n + 1)):
            raise NonzeroDunklImage(f"reverse component of {t_tab.rows} is not singular")
        isotype = isotype_of(q)
        if isotype != t_tab:
            raise NotIsotypic(f"reverse isotype {isotype.rows} != {t_tab.rows}")
        components.append((t_tab.content_vector(), q, True, isotype.content_vector()))
    return ReverseMapReport(m, k, kappa_neg, tuple(components))
