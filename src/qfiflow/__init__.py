"""QFI flow for time-local master equations.

Integrates rho(theta;t) jointly with its theta-derivative under a
(possibly non-Markovian) GKSL-form generator with time-dependent and
parameter-dependent ingredients, evaluates the symmetric logarithmic
derivative and the quantum Fisher information along the trajectory,
decomposes the QFI time-derivative into per-channel subflows, and
quantifies when that decomposition is exact.
"""

from .estimation import SldResult, qfi, sld
from .flow import (
    FlowTable,
    IntervalReport,
    classify_intervals,
    fd_flow_oracle,
    flow_records,
    full_flow,
    hamiltonian_term,
    residual_T,
    subflow_J,
)
from .model import (
    Channel,
    ConstantScalar,
    FixedRyStateFamily,
    JcLorentzianScalar,
    LinearStateFamily,
    ModelSpec,
    RyStateFamily,
    ScalarPoleError,
    SinusoidalScalar,
    ThetaScaledScalar,
    TimeDependentOperator,
    apply_generator,
    apply_generator_theta_derivative,
    builtin_model,
    constant_operator,
    modulated_operator,
    probe_theta_dependence,
    validate_model,
    zero_operator,
)
from .operators import (
    DensityValidationError,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NotHermitianError,
    ToleranceConfig,
    TraceDeviationError,
    anticommutator,
    commutator,
    hermitize,
    validate_density,
)
from .propagation import (
    PropagationError,
    Trajectory,
    fd_theta_consistency,
    propagate,
    step_rk4,
)

__version__ = "0.1.0"
