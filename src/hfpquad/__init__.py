"""Finite-part quadrature for periodic integrands and supersingular
integral-equation solvers built on it."""

from .em_constants import bernoulli_even, zeta_at, zeta_even_rational
from .errors import (
    DerivativesRequiredError,
    EvaluationError,
    HfpquadError,
    InsufficientPreFloorDataError,
    OrderTooLargeError,
    ReferenceConvergenceError,
    SingularSystemError,
    UnsupportedZetaArgumentError,
)
from .harness import (
    ConvergenceReport,
    FloorCheck,
    RateFit,
    ReportRow,
    convergence_table,
    convergence_table_for,
    empirical_rate,
    floor_check,
)
from .ie_solver import (
    CollocationSolution,
    CollocationSystem,
    PeriodicKernel,
    ak_coefficients,
    build_advanced_system,
    build_simple_system,
    cardinal_derivative_matrix,
    dirichlet_kernel,
    dirichlet_kernel_deriv,
    manufactured_rhs,
    solve_collocation,
    supersingular_cotangent_kernel,
)
from .integrands import (
    PoissonKernelU,
    TrigPolynomial,
    random_trig_polynomial,
    singular_periodic_integrand,
)
from .oracles import (
    GeometricKernelCase,
    exact_hfp,
    exact_supersingular,
    fourier_symbol,
    hfp_power_integral,
    hfp_reference,
)
from .quadrature import (
    COMPACT_PAIRS,
    CompactRule,
    ExtrapolationWeights,
    PeriodicIntegrand,
    RuleSpec,
    compact_rule,
    correction_sum,
    extrapolation_weights,
    max_compact_level,
    midpoint_sum,
    plain_trap_sum,
    roundoff_floor,
    t_hat,
    wrap_to_fundamental,
)

__version__ = "0.1.0"
