"""Strengthened-ellipticity analysis for second-order elliptic systems.

Pointwise and integral admissibility forms indexed by an exponent p (via
t = 1 - 2/p), their estimated margins and admissible intervals, closed-form
constants for the linear-elasticity system, and solvability-range
arithmetic for boundary-value extrapolation and periodic homogenization.
"""

__version__ = "0.1.0"

from .conditions import (
    MarginResult,
    SearchConfig,
    Witness,
    lh_form_value,
    lh_margin,
    margin_curve,
    scalar_p_margin,
    strong_form_value,
    strong_margin,
)
from .errors import (
    DimensionMismatchError,
    GenerationError,
    InputError,
    NumericalFailureError,
    PellipticError,
)
from .integral import (
    Counterexample,
    TestFunctionGrid,
    discrete_quotient,
    falsify_integral,
    lambda_p_estimate,
    power_identity_bounds_slack,
    power_identity_residual,
    random_test_grid,
)
from .lame import (
    AdmissibilityReport,
    LameSufficiency,
    OscillationReport,
    admissibility,
    dissipativity_bounds,
    lame_cubic_roots,
    lame_tensor,
    necessary_constant,
    oscillation_scan,
    sufficient_constant,
)
from .oracle import OracleConfig, brute_margin, random_elliptic_tensor
from .prange import (
    PRange,
    condition_range,
    duality_residual,
    field_range,
    p_of_t,
    t_of_p,
)
from .solvability import (
    SolvabilityQuery,
    SolvabilityReport,
    WorstRatioResult,
    extrapolation_range,
    homogenization_range,
    lame_dirichlet_upper,
    worst_case_over_ratio,
)
from .tensors import (
    CoefficientTensor,
    GradientState,
    TensorField,
    UnitState,
    adjoint,
    hermitian_part,
    project_state,
    real_pairing,
    sample_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
