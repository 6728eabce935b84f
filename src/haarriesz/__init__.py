"""Desk-scale workbench for dyadic Haar projections, Riesz transforms,
multiscale operator decompositions and their interpolatory estimates."""

from .grid import (
    Direction,
    DyadicCube,
    GridFunction,
    all_directions,
    axis_direction,
    embed,
    lp_norm,
)
from .haar import (
    HaarCoefficients,
    bmo_d_norm,
    conditional_expectation,
    directional_project,
    haar_analyze,
    haar_synthesize,
    square_function,
)
from .fourier import (
    ResolvingKernel,
    delta_conv,
    derivative,
    riesz,
    riesz_inverse,
    smoothing_conv,
)
from .multiscale import (
    LinearFieldOp,
    OpNormResult,
    default_even_family,
    op_norm2_estimate,
    rearrangement_operator,
    ring_cover,
    ring_norm,
    ring_projection_operator,
    t_ell,
    t_ell_operator,
)
from .sharpness import (
    BlockSpec,
    SquareCollection,
    bessel_lower_bound,
    build_collection,
    f_eps_field,
    gram_norm2,
    sharpness_experiment_pge2,
    single_block_experiment_ple2,
)
from .semiconvexity import (
    Integrand,
    VectorField,
    a0_apply,
    check_separately_convex,
    jensen_range_check,
    registry_integrands,
    semicontinuity_experiment,
)

__version__ = "0.1.0"
