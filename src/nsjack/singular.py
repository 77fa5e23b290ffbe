"""Singular-polynomial machinery for rectangular shapes.

For a two-row rectangle with mk columns and the stacked shape with 2k rows of
width m, every RSYT of the two-row shape maps to a label (composition,
stacked tableau) whose Jack polynomial specializes without poles at
kappa = n/(m+2), is killed by every Dunkl operator there, and carries the
source tableau as its isotype.  This module constructs the family as a value,
certifies those properties of a given family exactly, proves (not samples)
that its module map commutes with x_i, s_i and D_i, and runs uniqueness oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .combinatorics import (
    BadShapeParams,
    ColumnStrictTableau,
    Rsyt,
    compositions_strictly_below,
    enumerate_rsyt,
    inv_statistic,
    max_inv_source,
    rank_permutation,
    rsyt_from_contents,
    transposition,
)
from .jack import (
    ColumnTable,
    JackPolynomial,
    construct_jack,
    reflection_rule,
    spectral_pairs,
    spectral_vector_at,
    specialize,
)
from .operators import cherednik_prime, dunkl, jucys_murphy
from .ratfunc import PoleAtKappa, format_rational
from .vectorpoly import VectorPoly, group_action, tau_context


class NotIsotypic(ValueError):
    """The polynomial is not a simultaneous Jucys-Murphy eigenfunction."""


class ClosureViolation(AssertionError):
    """The family span is not closed under a simple reflection as predicted."""


class NonzeroDunklImage(AssertionError):
    """A claimed singular polynomial is not killed by some Dunkl operator."""


class BrickIdentityViolation(AssertionError):
    """A brick pair breaks the content identity or has a degenerate gamma
    factor: a failed check of the library, not a bad parameter."""


# ---------------------------------------------------------------------------
# brick map
# ---------------------------------------------------------------------------


class BrickPair(NamedTuple):
    """Label (beta, tableau) attached to a two-row source tableau: beta is a
    permutation of the layer composition and the stacked tableau satisfies
    (m+2) beta_i + content(r_beta(i)) = content(i, source) for every i."""

    beta: tuple[int, ...]
    tableau: Rsyt
    source: ColumnStrictTableau | Rsyt


def brick_map(source, m: int) -> BrickPair:
    """Per brick (2 x m block of columns), record the brick index in beta at
    the positions of the block's entries and re-rank the block into the
    corresponding block of the stacked shape."""
    if len(source.shape) != 2 or source.shape[0] != source.shape[1]:
        raise BadShapeParams(f"need a two-row rectangle, got {source.shape}")
    if m < 1 or source.shape[0] % m:
        raise BadShapeParams(f"need m >= 1 dividing {source.shape[0]}, got m={m}")
    k = source.shape[0] // m
    if k < 2:
        raise BadShapeParams(f"need at least two bricks, got k={k}")
    n = 2 * m * k
    beta = [0] * n
    rows = [[0] * m for _ in range(2 * k)]
    for level in range(k):
        block = [
            source.entry(r, c)
            for r in (1, 2)
            for c in range(level * m + 1, (level + 1) * m + 1)
        ]
        for r in (0, 1):
            for c in range(m - 1):
                if block[r * m + c] <= block[r * m + c + 1]:
                    raise BadShapeParams(
                        f"entries in brick {level} do not decrease along rows"
                    )
        for v in block:
            beta[v - 1] = level
        offset = 2 * (k - 1 - level) * m
        for pos, v in enumerate(block):
            local_rank = sum(1 for u in block if u <= v)
            rows[2 * level + pos // m][pos % m] = local_rank + offset
    tableau = Rsyt(rows)
    beta = tuple(beta)
    r = rank_permutation(beta)
    for i in range(n):
        if (m + 2) * beta[i] + tableau.content(r[i]) != source.content(i + 1):
            raise BrickIdentityViolation(
                f"brick content identity fails at entry {i + 1}"
            )
    return BrickPair(beta, tableau, source)


# ---------------------------------------------------------------------------
# norms and gamma factors
# ---------------------------------------------------------------------------


def tableau_norm_squared(tab) -> Fraction:
    """Product over entry pairs i < j with content gap <= -2 of
    1 - 1/(content difference)^2."""
    cv = tab.content_vector()
    out = Fraction(1)
    for i in range(tab.n):
        for j in range(i + 1, tab.n):
            d = cv[i] - cv[j]
            if d <= -2:
                out *= 1 - Fraction(1, d * d)
    return out


def gamma_factor(pair: BrickPair) -> Fraction:
    """Product over pairs i < j with beta_i < beta_j of the same factors;
    relates the source-side norm to the Jack-side norm."""
    cv = pair.source.content_vector()
    out = Fraction(1)
    for i in range(len(pair.beta)):
        for j in range(i + 1, len(pair.beta)):
            if pair.beta[i] < pair.beta[j]:
                d = cv[i] - cv[j]
                if abs(d) < 2:
                    raise BrickIdentityViolation(
                        f"degenerate gamma factor at {i + 1}, {j + 1}"
                    )
                out *= 1 - Fraction(1, d * d)
    return out


# ---------------------------------------------------------------------------
# the singular family
# ---------------------------------------------------------------------------


def brick_pairs(m: int, k: int) -> list[BrickPair]:
    """The brick pair of every source tableau of the two-row rectangle
    (mk, mk), in ``enumerate_rsyt`` order: the family's combinatorics, with
    no Jack polynomial.  BadShapeParams unless m >= 1 and k >= 2."""
    if m < 1 or k < 2:
        raise BadShapeParams(f"need m >= 1, k >= 2, got ({m}, {k})")
    return [brick_map(source, m) for source in enumerate_rsyt((m * k, m * k))]


class FamilyMember(NamedTuple):
    pair: BrickPair
    label: tuple[int, ...]  # n * beta
    jack: JackPolynomial
    specialized: VectorPoly
    gamma: Fraction
    source_norm_squared: Fraction


class FamilyContext(NamedTuple):
    m: int
    k: int
    n: int
    kappa0: Fraction
    members: tuple[FamilyMember, ...]  # ordered like enumerate_rsyt(sigma)

    @property
    def sigma(self):
        return (self.m * self.k, self.m * self.k)


def family_context(m: int, k: int, n: int = 1) -> FamilyContext:
    """Construct (without verifying) every family member at kappa = n/(m+2),
    uncached: the value that each certificate below takes."""
    pairs = brick_pairs(m, k)
    if n < 1 or gcd(n, m + 2) != 1:
        raise BadShapeParams(f"need n >= 1 coprime to m+2, got n={n}")
    kappa0 = Fraction(n, m + 2)
    # every label permutes one partition: the members share their U'_i columns
    columns = ColumnTable((m,) * (2 * k), n * sum(pairs[0].beta))
    members = []
    for pair in pairs:
        label = tuple(n * b for b in pair.beta)
        jack = construct_jack(label, pair.tableau, columns)
        spec = specialize(jack, kappa0)
        members.append(
            FamilyMember(
                pair=pair,
                label=label,
                jack=jack,
                specialized=spec,
                gamma=gamma_factor(pair),
                source_norm_squared=tableau_norm_squared(pair.source),
            )
        )
    return FamilyContext(m, k, n, kappa0, tuple(members))


class SingularCertificate(NamedTuple):
    m: int
    k: int
    n: int
    kappa0: Fraction
    members: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "kappa": format_rational(self.kappa0),
            "family_size": len(self.members),
            "members": list(self.members),
        }


def singular_family(fam: FamilyContext) -> SingularCertificate:
    """Verify the whole family at its kappa0 = n/(m+2): no poles, every Dunkl
    image zero, Jucys-Murphy eigenvalues equal to the source contents.
    Raises on any failure; the certificate carries complete evidence."""
    records = []
    for member in fam.members:
        spec, source = member.specialized, member.pair.source
        dunkl_images = []
        for i in range(1, 2 * fam.m * fam.k + 1):
            image = dunkl(i, spec, fam.kappa0)
            if not image.is_zero():
                raise NonzeroDunklImage(
                    f"Dunkl index {i} does not kill the member of source "
                    f"{source.rows}"
                )
            dunkl_images.append(image.to_json())
        isotype = isotype_of(spec)
        if isotype != source:
            raise NotIsotypic(f"isotype {isotype.rows} != source {source.rows}")
        zeta = spectral_vector_at(member.label, member.pair.tableau, fam.kappa0)
        if zeta != tuple(map(Fraction, source.content_vector())):
            raise NotIsotypic(f"spectral vector of {member.label} != source contents")
        records.append(
            {
                "source": [list(r) for r in source.rows],
                "beta": list(member.label),
                "tableau": [list(r) for r in member.pair.tableau.rows],
                "spectral": [format_rational(z) for z in zeta],
                "dunkl_images": dunkl_images,
                "omega_eigenvalues": list(source.content_vector()),
                "gamma": format_rational(member.gamma),
                "source_norm_squared": format_rational(member.source_norm_squared),
                "pole_free": True,
                "polynomial": spec.to_json(),
            }
        )
    return SingularCertificate(fam.m, fam.k, fam.n, fam.kappa0, tuple(records))


# ---------------------------------------------------------------------------
# isotype
# ---------------------------------------------------------------------------


def isotype_of(p: VectorPoly) -> Rsyt:
    """The tableau whose content vector lists the Jucys-Murphy eigenvalues of
    p; its shape is the isotype.  Raises NotIsotypic when p is not a
    simultaneous eigenfunction with integer eigenvalues.

    p is cleared of denominators and scaled by the shape's transposition
    denominator, so that every Jucys-Murphy image has integer coefficients;
    an eigenvalue is checked to be an integer before p times it is
    compared with the image."""
    if p.is_zero():
        raise NotIsotypic("zero polynomial has no isotype")
    cleared = p.cleared()
    if cleared is None:
        raise NotIsotypic("only a polynomial with rational coefficients has an isotype")
    scale = tau_context(p.shape).denominator
    p = VectorPoly(p.shape, {key: c * scale for key, c in cleared[1].items()})
    key, base = next(iter(p.terms.items()))
    contents = []
    for i in range(1, p.n + 1):
        image = jucys_murphy(i, p)
        q, r = divmod(image.terms.get(key, 0), base)
        if r:
            raise NotIsotypic(
                f"non-integer eigenvalue {Fraction(image.terms[key], base)} "
                f"at index {i}"
            )
        if image != p.scale(q):
            raise NotIsotypic(f"not an eigenfunction of the index-{i} element")
        contents.append(q)
    try:
        return rsyt_from_contents(tuple(contents))
    except Exception as exc:
        raise NotIsotypic(f"eigenvalues {contents} are not a content vector") from exc


# ---------------------------------------------------------------------------
# uniqueness oracle
# ---------------------------------------------------------------------------


class UniquenessReport(NamedTuple):
    beta: tuple[int, ...]
    tableau: Rsyt
    kappa0: Fraction
    unique: bool
    collisions: tuple
    enumeration_size: int

    def to_json(self) -> dict:
        return {
            "beta": list(self.beta),
            "tableau": [list(r) for r in self.tableau.rows],
            "kappa": format_rational(self.kappa0),
            "unique": self.unique,
            "enumeration_size": self.enumeration_size,
            "collisions": [
                {"gamma": list(g), "tableau": [list(r) for r in t.rows]}
                for g, t in self.collisions
            ],
        }


def uniqueness_oracle(beta, tableau: Rsyt, kappa0) -> UniquenessReport:
    """Exhaustively enumerate all labels (gamma, T') with gamma below-or-equal
    beta of the same degree and T' of the same shape, and report every label
    whose specialized spectral vector coincides with that of (beta, tableau).

    At kappa0 = p / q spectral entry i of (gamma, T') is (gamma_i q + c p) / p,
    c the content of entry r_gamma(i) of T'.  So the target's integers t_i fix the
    content of entry r_gamma(i) of a colliding T' as (t_i - gamma_i q) / p:
    one ``rank_permutation`` per composition, and no tableau as soon as one
    of these is not an integer."""
    beta = tuple(beta)
    kappa0 = Fraction(kappa0)
    p, q = kappa0.as_integer_ratio()
    target = [a * q + c * p for a, c in spectral_pairs(beta, tableau)]
    ctx = tau_context(tableau.shape)
    candidates = list(compositions_strictly_below(beta)) + [beta]
    collisions = []
    for gamma in candidates:
        contents = [0] * len(gamma)
        for t, a, r in zip(target, gamma, rank_permutation(gamma)):
            c, rem = divmod(t - a * q, p)
            if rem:
                break
            contents[r - 1] = c
        else:
            row = ctx.index.get(tuple(contents))
            if row is not None and (gamma, ctx.tableaux[row]) != (beta, tableau):
                collisions.append((gamma, ctx.tableaux[row]))
    return UniquenessReport(
        beta=beta,
        tableau=tableau,
        kappa0=kappa0,
        unique=not collisions,
        collisions=tuple(collisions),
        enumeration_size=len(candidates) * ctx.dim,
    )


# ---------------------------------------------------------------------------
# the two swapped label variants
# ---------------------------------------------------------------------------


def _swap(comp, i):
    out = list(comp)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


class AlphaVariants(NamedTuple):
    m: int
    k: int
    s: int
    pivot: int  # 2m(k-s)
    base: tuple[int, ...]  # the layer composition
    swapped_once: tuple[int, ...]
    variant1: tuple[int, ...]
    variant2: tuple[int, ...]
    spectral_table: dict  # name -> full spectral vector at 1/(m+2)

    def window(self, comp) -> tuple[int, ...]:
        return tuple(comp[self.pivot - 2 : self.pivot + 2])

    def spectral_window(self, name) -> tuple[Fraction, ...]:
        v = self.spectral_table[name]
        return tuple(v[self.pivot - 2 : self.pivot + 2])


def alpha_variants(m: int, k: int, s: int) -> AlphaVariants:
    """The two compositions reached from the layer composition, the top
    label's beta, by two simple swaps around the boundary of bricks s-1 and
    s, together with their specialized spectral vectors at the top label's
    tableau; their spectral vectors reproduce the content vectors of the
    one-swap inv-maximal tableaux."""
    if not 1 <= s <= k - 1:
        raise BadShapeParams(f"need 1 <= s <= k-1, got s={s}")
    top = brick_map(max_inv_source(m, k), m)
    lam, t0 = top.beta, top.tableau
    i0 = 2 * m * (k - s)
    swapped = _swap(lam, i0)
    variant1 = _swap(swapped, i0 + 1)
    variant2 = _swap(swapped, i0 - 1)
    kappa0 = Fraction(1, m + 2)
    table = {
        "base": spectral_vector_at(lam, t0, kappa0),
        "swapped_once": spectral_vector_at(swapped, t0, kappa0),
        "variant1": spectral_vector_at(variant1, t0, kappa0),
        "variant2": spectral_vector_at(variant2, t0, kappa0),
    }
    return AlphaVariants(
        m=m,
        k=k,
        s=s,
        pivot=i0,
        base=lam,
        swapped_once=swapped,
        variant1=variant1,
        variant2=variant2,
        spectral_table=table,
    )


# ---------------------------------------------------------------------------
# norms: product formula against step recursion
# ---------------------------------------------------------------------------


class NormReport(NamedTuple):
    m: int
    k: int
    table: dict  # source content vector -> (norm^2, gamma), in family order
    steps_checked: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "steps_checked": self.steps_checked,
            "members": [
                {
                    "source": [list(r) for r in rsyt_from_contents(contents).rows],
                    "norm_squared": format_rational(norm),
                    "gamma": format_rational(gamma),
                }
                for contents, (norm, gamma) in self.table.items()
            ],
        }


def norms_and_gamma(m: int, k: int) -> NormReport:
    """Norms and gamma factors for every member, with the product formula
    cross-checked against the permissible-step recursion over every edge of
    the reduction graph (hence path-independently).  Both are products over
    content differences of the brick pairs, so no Jack polynomial is built.
    A step takes b and its gamma factor from ``jack.reflection_rule`` at the
    higher label, whose spectral vector at kappa = 1/(m+2) is its source's.

    The recursion is anchored at the top source s0 = ``max_inv_source``,
    whose norm and gamma are 1.  Every step low -> high is checked to raise
    ``inv_statistic`` by exactly one, and s0 to be the only source with no
    step.  So a walk along steps from any source raises inv at each step,
    and, the sources being finite, ends at a source with no step: at s0.
    Each edge of that walk was checked, so by induction from s0 down the
    walk every source's product-formula values are those of the recursion."""
    from .combinatorics import apply_permissible_step, is_permissible_step

    by_source = {pair.source: pair for pair in brick_pairs(m, k)}
    table = {
        source.content_vector(): (tableau_norm_squared(source), gamma_factor(pair))
        for source, pair in by_source.items()
    }
    s0 = max_inv_source(m, k)
    if table[s0.content_vector()] != (1, 1):
        raise AssertionError(f"norm or gamma of the top source {s0.rows} is not 1")
    kappa0 = Fraction(1, m + 2)
    steps = 0
    stuck = []
    for low, low_pair in by_source.items():
        norm, gamma = table[low.content_vector()]
        inv, steps_before = inv_statistic(low), steps
        for i in range(1, 2 * m * k):
            if not is_permissible_step(low, i):
                continue
            high = by_source[apply_permissible_step(low, i)]
            if inv_statistic(high.source) != inv + 1:
                raise AssertionError(
                    f"step {i} at {low.rows} does not raise inv by one"
                )
            high_norm, high_gamma = table[high.source.content_vector()]
            rule = reflection_rule(high.beta, high.tableau, i)
            if rule.target != (low_pair.beta, low_pair.tableau):
                raise AssertionError(f"step {i} at {low.rows} is not the rule's target")
            b = rule.b.evaluate(kappa0)
            if not 0 < b <= Fraction(1, 2):
                raise AssertionError(f"step {i} at {low.rows} has gap {1 / b} < 2")
            if norm != (1 - b * b) * high_norm:
                raise AssertionError(f"norm recursion fails at {low.rows}, step {i}")
            if gamma != rule.scalar.evaluate(kappa0) * high_gamma:
                raise AssertionError(f"gamma recursion fails at {low.rows}, step {i}")
            steps += 1
        if steps == steps_before:
            stuck.append(low.rows)
    if stuck != [s0.rows]:
        raise AssertionError(
            f"the sources with no permissible step are {stuck}, "
            f"not the top source {s0.rows} alone"
        )
    return NormReport(m=m, k=k, table=table, steps_checked=steps)


# ---------------------------------------------------------------------------
# the module map
# ---------------------------------------------------------------------------


class MuCommutationReport(NamedTuple):
    m: int
    k: int
    kappa0: Fraction
    dunkl_images: int
    transports: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "kappa": format_rational(self.kappa0),
            "dunkl_images": self.dunkl_images,
            "transports": self.transports,
            "all_commute": True,
        }


def mu_commutation_check(fam: FamilyContext) -> MuCommutationReport:
    """Prove that the module map mu, the P-linear map f (x) S -> f gamma_S J_S
    from the two-row module to the stacked one, commutes with every x_i, s_i
    and D_i in every degree, from the two certificates of the one family
    ``fam`` at its kappa0 (1/(m+2) for ``mu verify``); counts their zero
    Dunkl images and transports, and raises what they raise.

    (a) mu commutes with each x_i by definition, because it is P-linear.
    (b) mu is S_N-equivariant in every degree iff it is equivariant in
    degree 0 for the simple reflections, i.e. iff gamma_S s_i J_S =
    sum_R sigma(s_i)_{R,S} gamma_R J_R for every (S, i): the "matrix
    transport" check of ``closure_check``.  The s_i generate S_N, and
    w(f q) = (w f)(w q), so mu(w(f (x) S)) = (w f) mu(sigma(w) S) = w mu(f (x) S).
    (c) With dd_ij(f) = (f - s_ij f) / (x_i - x_j), the product rule is
    D_i(f J) = (d_i f) J + f D_i J + kappa sum_{j != i} dd_ij(f) s_ij J, and
    on the source D_i(f (x) S) = (d_i f) (x) S + kappa sum_{j != i}
    dd_ij(f) sigma(s_ij) S.  So with D_i J_S = 0, which ``singular_family``
    checks, D_i mu = mu D_i follows from (a) and (b).

    Neither certificate suffices alone: a family with one member or its
    gamma scaled is still singular, but breaks a transport."""
    cert, closure = singular_family(fam), closure_check(fam)
    images = sum(len(record["dunkl_images"]) for record in cert.members)
    transports = sum(closure.case_counts.values())
    return MuCommutationReport(fam.m, fam.k, fam.kappa0, images, transports)


# ---------------------------------------------------------------------------
# closure of the family span under simple reflections
# ---------------------------------------------------------------------------


class ClosureReport(NamedTuple):
    m: int
    k: int
    kappa0: Fraction
    case_counts: dict
    hinge_labels: tuple  # labels certified pole-free by separation at kappa0

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "kappa": format_rational(self.kappa0),
            "case_counts": dict(self.case_counts),
            "hinge_labels": [
                {"beta": list(b), "tableau": [list(r) for r in t.rows]}
                for b, t in self.hinge_labels
            ],
        }


def closure_case(label, tableau: Rsyt, i: int, kappa0: Fraction) -> tuple:
    """(case, b, scalar, target) of s_i at the label: ``jack.reflection_rule``
    at kappa0, where a pole raises PoleAtKappa.  With no target the case is
    same_column (b = -1) or same_row_brick (b = 1), with one it is generic,
    or hinge when the scalar vanishes."""
    rule = reflection_rule(label, tableau, i)
    b, scalar = rule.b.evaluate(kappa0), rule.scalar.evaluate(kappa0)
    if rule.target is None:
        return ("same_column" if b == -1 else "same_row_brick"), b, scalar, None
    return ("generic" if scalar else "hinge"), b, scalar, rule.target


def closure_check(fam: FamilyContext) -> ClosureReport:
    """Classify every (source, index) pair by ``closure_case`` and verify the
    predicted action of the simple reflection on the family span, from the
    family ``fam`` alone: no Jack polynomial is built or specialized here.

    Cases.  With J_S the member of source S at kappa0, transport checks
    gamma_S s_i J_S = sum_R (c / d) gamma_R J_R over the integer column
    ((R, c), ...) over d of the seminormal matrix sigma(s_i) at S, in
    integers: as d s_i N_S = sum_R c N_R, with N_S = L gamma_S J_S cleared
    over one common L.  Every case then checks the column against the rule
    at the label of S, (s_i - b) J_S = scalar J' (``closure_case``): it is
    ((S, b)), plus (S', c) with c gamma_S' = scalar gamma_S and S' the source
    of the target J' in the generic case.  An eigenvector, with no target,
    has b = -1 or 1 (gamma_S != 0, see ``gamma_factor``), and a hinge's
    scalar vanishes at kappa0.

    Hinges.  There J' drops out if the target, the hinge label L0 = (beta, T),
    has no pole at kappa0, which holds when its spectral vector at kappa0 is
    unique (``uniqueness_oracle``).  Each label L = (gamma, T') with gamma
    strictly below beta has an index i_L separating it from L0 at kappa0,
    hence over Q(kappa).  U'_i is triangular on span{x^gamma (x) T' :
    gamma <= beta} (Dunkl and Luque, "Vector-valued
    Jack polynomials from scratch", SIGMA 7, 2011), so, as ``jack._construct``
    uses, J_L0 is prod_L (U'_{i_L} - zeta_{i_L}(L)) / (zeta_{i_L}(L0) -
    zeta_{i_L}(L)) applied to the rational leading vector.  U'_i has its
    only pole at kappa = 0 and every denominator is nonzero at kappa0."""
    sigma_ctx = tau_context(fam.sigma)
    counts = {"generic": 0, "same_column": 0, "same_row_brick": 0, "hinge": 0}
    hinges = []
    nvars = 2 * fam.m * fam.k
    row_of_label = {(x.label, x.pair.tableau): r for r, x in enumerate(fam.members)}
    scaled = [x.specialized.scale(x.gamma) for x in fam.members]
    big_l = lcm(*(c.denominator for p in scaled for c in p.terms.values()))
    cleared = [p.map_coefficients(lambda c: int(c * big_l)) for p in scaled]
    for s_idx, member in enumerate(fam.members):
        source, beta, tab = member.pair.source, member.pair.beta, member.pair.tableau
        if beta[-1] != 0:
            raise ClosureViolation(f"top entry of {source.rows} is not in the first brick")
        for i in range(1, nvars):
            # the rescaled family transforms with the seminormal source-side
            # matrices, uniformly across all cases
            simple = sigma_ctx.simple(i)
            weighted = tuple(
                (r, Fraction(c, simple.d) * fam.members[r].gamma)
                for r, c in simple.columns[s_idx]
            )
            # sum_R c N_R - d s_i N_S on integer dicts
            swapped = group_action(transposition(nvars, i, i + 1), cleared[s_idx])
            residual = {key: -simple.d * v for key, v in swapped.terms.items()}
            for row, c in simple.columns[s_idx]:
                for key, v in cleared[row].terms.items():
                    residual[key] = residual.get(key, 0) + c * v
            if any(residual.values()):
                raise ClosureViolation(
                    f"matrix transport fails at source {source.rows}, i={i}"
                )
            try:
                case, b, scalar, target = closure_case(member.label, tab, i, fam.kappa0)
            except PoleAtKappa:
                raise ClosureViolation(
                    f"the rule of label {member.label} at source {source.rows}, "
                    f"i={i} has a pole at kappa = {fam.kappa0}"
                ) from None
            # s_i J_S = b J_S + scalar J', J' the member of the rule's target
            predicted = ((s_idx, b),)
            if case == "generic":
                predicted += ((row_of_label.get(target), scalar),)
            elif case == "hinge":
                if not uniqueness_oracle(*target, fam.kappa0).unique:
                    raise ClosureViolation(
                        f"hinge label {target[0]} at source {source.rows}, "
                        f"i={i} is not separated at kappa = {fam.kappa0}"
                    )
                hinges.append(target)
            counts[case] += 1
            if weighted != tuple((row, c * member.gamma) for row, c in predicted):
                raise ClosureViolation(f"{case} case fails at {source.rows}, i={i}")
    return ClosureReport(fam.m, fam.k, fam.kappa0, counts, tuple(hinges))


# ---------------------------------------------------------------------------
# the five-variable example: a singular sum that is not one Jack polynomial
# ---------------------------------------------------------------------------


class HookExampleReport(NamedTuple):
    kappa0: Fraction
    spectral: tuple
    monomial_count: int
    neither_singular: bool
    neither_invariant: bool
    combination_singular: bool
    combination_invariant: bool
    eigenvalues: tuple

    def to_json(self) -> dict:
        return {
            "kappa": format_rational(self.kappa0),
            "shared_spectral_vector": [format_rational(z) for z in self.spectral],
            "first_label_monomials": self.monomial_count,
            "neither_singular": self.neither_singular,
            "neither_invariant": self.neither_invariant,
            "combination_singular": self.combination_singular,
            "combination_invariant": self.combination_invariant,
            "combination_eigenvalues": [
                format_rational(z) for z in self.eigenvalues
            ],
        }


def example_n5() -> HookExampleReport:
    """Five variables, hook shape (3,1,1): two distinct labels share the
    spectral vector (4,3,2,1,0) at kappa = 1/2, neither is singular alone,
    but their 1:2 combination is singular and invariant with modified
    Cherednik-Dunkl eigenvalue 5 - i."""
    kappa0 = Fraction(1, 2)
    t = rsyt_from_contents((-2, -1, 2, 1, 0))
    t_prime = rsyt_from_contents((-2, 2, 1, -1, 0))
    alpha = (3, 2, 0, 0, 0)
    beta = (1, 1, 2, 1, 0)
    j1 = construct_jack(alpha, t)
    j2 = construct_jack(beta, t_prime)
    p1 = specialize(j1, kappa0)
    p2 = specialize(j2, kappa0)
    z1 = spectral_vector_at(alpha, t, kappa0)
    z2 = spectral_vector_at(beta, t_prime, kappa0)
    if not z1 == z2 == tuple(map(Fraction, (4, 3, 2, 1, 0))):
        raise AssertionError(f"spectral vectors {z1} and {z2} are not (4,3,2,1,0)")

    def singular(p):
        return all(dunkl(i, p, kappa0).is_zero() for i in range(1, 6))

    def invariant(p):
        return all(
            group_action(transposition(5, i, i + 1), p) == p for i in range(1, 5)
        )

    combo = p1 + p2.scale(Fraction(2))
    eigen = []
    for i in range(1, 6):
        image = cherednik_prime(i, combo, kappa0)
        if image != combo.scale(Fraction(5 - i)):
            raise AssertionError(f"U'_{i} of the combination is not {5 - i} times it")
        eigen.append(Fraction(5 - i))
    report = HookExampleReport(
        kappa0=kappa0,
        spectral=z1,
        monomial_count=j1.monomial_count(),
        neither_singular=not singular(p1) and not singular(p2),
        neither_invariant=not invariant(p1) and not invariant(p2),
        combination_singular=singular(combo),
        combination_invariant=invariant(combo),
        eigenvalues=tuple(eigen),
    )
    if not (
        report.neither_singular
        and report.neither_invariant
        and report.combination_singular
        and report.combination_invariant
        and report.monomial_count == 100
    ):
        raise AssertionError(f"five-variable example failed: {report}")
    return report
