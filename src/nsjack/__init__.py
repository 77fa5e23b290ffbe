"""Exact vector-valued nonsymmetric Jack polynomials for the symmetric group,
with coefficients in Q(kappa), and verification of their singular families on
rectangular shapes."""

from .combinatorics import (
    BadShapeParams,
    ColumnStrictTableau,
    NoSuchTableau,
    Rsyt,
    compositions_strictly_below,
    enumerate_rsyt,
    inv_statistic,
    max_inv_source,
    rank_permutation,
    rsyt_from_contents,
)
from .jack import (
    JackPolynomial,
    ZeroDenominator,
    b_value,
    construct_jack,
    reflection_rule,
    spectral_vector,
    spectral_vector_at,
    specialize,
)
from .operators import cherednik, cherednik_prime, dunkl, jucys_murphy
from .ratfunc import KAPPA, PoleAtKappa, RatFunc, parse_rational
from .singular import (
    BrickIdentityViolation,
    BrickPair,
    ClosureViolation,
    NonzeroDunklImage,
    NotIsotypic,
    alpha_variants,
    brick_map,
    closure_check,
    example_n5,
    family_context,
    isotype_of,
    mu_commutation_check,
    norms_and_gamma,
    singular_family,
    uniqueness_oracle,
)
from .vectorpoly import ShapeMismatch, VectorPoly, group_action

__version__ = "0.1.0"
