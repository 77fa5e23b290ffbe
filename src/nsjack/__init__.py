"""Exact vector-valued nonsymmetric Jack polynomials for the symmetric group,
with coefficients in Q(kappa), and verification of their singular families on
rectangular shapes."""

from .combinatorics import (
    BadShapeParams,
    ColumnStrictTableau,
    Comparison,
    NoSuchTableau,
    NotReducible,
    Rsyt,
    brick_of,
    brick_stack_target,
    compare_order,
    compositions_strictly_below,
    enumerate_rsyt,
    inv_statistic,
    layer_composition,
    max_inv_source,
    rank_permutation,
    reduce_by_permissible_steps,
    rsyt_from_contents,
    swapped_inv_max,
)
from .jack import (
    JackPolynomial,
    ReflectionCase,
    ZeroDenominator,
    b_value,
    construct_jack,
    reflection_rule,
    spectral_vector,
    spectral_vector_at,
    specialize,
)
from .operators import cherednik, cherednik_prime, dunkl, jucys_murphy
from .ratfunc import KAPPA, ONE, ZERO, PoleAtKappa, RatFunc, parse_rational
from .singular import (
    BadParams,
    BrickIdentityViolation,
    BrickPair,
    ClosureViolation,
    NonzeroDunklImage,
    NotIsotypic,
    OrderViolation,
    alpha_variants,
    brick_map,
    closure_check,
    example_n5,
    family_context,
    isotype_of,
    mu_commutation_check,
    mu_map,
    norms_and_gamma,
    pair_tableau,
    reverse_map_qT,
    singular_family,
    uniqueness_oracle,
)
from .vectorpoly import ShapeMismatch, VectorPoly, group_action

__version__ = "0.1.0"
