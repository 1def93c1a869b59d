"""Exact-arithmetic toolkit for monomial-evaluation embeddings, power
subspaces, subspace-family independence, generalized dual arcs, and the
associated point-column linear codes over GF(p^m) and Q."""

from .errors import (
    AmbientMismatch,
    BadCharacteristic,
    BadParams,
    BudgetExceeded,
    DegreeMismatch,
    DivisionByZero,
    DuplicateMember,
    FieldMismatch,
    IndexOutOfRange,
    InfiniteField,
    LengthMismatch,
    NonPrimeP,
    OddQForHyperoval,
    SingularT,
    UnknownCheck,
    VerolabError,
)
from .field import (
    FieldSpec,
    Scalar,
    enumerate_elements,
    field_make,
    int_in_field,
    parse_field,
    rationals,
)
from .linalg import (
    Matrix,
    Subspace,
    annihilator,
    contains,
    enumerate_vectors,
    format_family,
    format_subspace,
    full_subspace,
    parse_family_text,
    parse_subspace,
    projective_points,
    rank,
    rref,
    span,
    subspace_intersect,
    subspace_le,
    subspace_sum,
    zero_subspace,
)
from .monomials import (
    enumerate_exponents,
    eval_monomial,
    exponent_index,
    index_exponent,
    multinomial,
    num_monomials,
)
from .polyalgebra import (
    HomogPoly,
    component_space,
    format_poly,
    parse_poly,
    poly_mul,
    poly_pow,
    power_intersection_check,
    power_subspace,
    product_space,
    sigma_iso,
    substitute,
    sym_power,
)
from .veronese import (
    lift_functional,
    rho_d,
    veronese_equivariance_check,
    veronese_point,
    veronese_subspace,
    veronese_vector,
)
from .independence import (
    IndependenceReport,
    SubspaceFamily,
    check_image_independence,
    is_r_independent,
    max_independence,
)
from .constructions import (
    DualArcReport,
    WedgeSpace,
    conic,
    derived_family,
    desarguesian_spread,
    dual_arc_ad,
    dual_arc_ik,
    dual_family,
    elliptic_ovoid,
    enumerate_ik,
    gda_profile,
    hyperoval,
    is_regular,
    is_strongly_regular,
    rational_normal_curve,
    wedge_family,
)
from .vcode import (
    CheckMatrix,
    classify_supports,
    min_weight,
    minimal_supports,
    powerpoint_check_matrix,
    veronese_check_matrix,
)
from .harness import CheckResult, run_check, run_suite

__version__ = "0.1.0"
