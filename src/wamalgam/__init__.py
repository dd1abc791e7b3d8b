"""Computable Wiener amalgam spaces on concrete locally compact groups."""

__version__ = "0.1.0"

from .amalgam import (
    AmalgamSpace,
    DiscreteMeasure,
    OperatorNormBound,
    amalgam_norm,
    calibrate_equivalence_bracket,
    control_function,
    discrete_amalgam_norm,
    estimate_translation_operator_norm,
    involution,
    translate,
)
from .axb import (
    BallWeightTable,
    compute_ball_weights,
    lpq_discrete_norm,
    right_translation_bound,
    translation_bound_weight,
)
from .components import (
    OVERFLOW,
    DiscreteSequence,
    MixedLpq,
    WeightedLp,
    WeightFunction,
    ball_integral,
    check_doubling,
    check_submultiplicative,
    constant_weight,
    exponential_weight,
    is_overflow,
    p_exponent_from_quasi_constant,
    power_weight,
    quasi_constant_from_p_exponent,
    quasi_norm,
    sequence_norm,
    sequence_norms,
    shifted_power_weight,
    table_weight,
)
from .convolution import (
    EmbeddingReport,
    convolve,
    convolve_measure,
    convolve_point,
    demonstrate_lp_failure,
    graded_lp_norm,
    verify_embedding,
)
from .discretization import (
    Bupu,
    WellSpreadSet,
    build_axb_lattice,
    build_bupu,
    bupu_to_csv,
    check_density,
    check_relatively_separated,
    euclidean_lattice,
    verify_bupu,
)
from .families import build_family, delta_comb, generator
from .groups import (
    AxbGrid,
    AxbGroup,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    SampledFunction,
    UniformGrid,
    element,
    haar_integral,
)
from .relations import (
    RELATIONS,
    RelationSettings,
    exhaustive_lp_algebra,
    verify_axb_convolution,
)
from .windows import AxbWindow, BoxWindow
