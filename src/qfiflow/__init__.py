"""QFI flow for time-local master equations.

Integrates rho(theta;t) jointly with its theta-derivative under a
(possibly non-Markovian) GKSL-form generator with time-dependent and
parameter-dependent ingredients, evaluates the symmetric logarithmic
derivative and the quantum Fisher information along the trajectory,
decomposes the QFI time-derivative into per-channel subflows, and
quantifies when that decomposition is exact.
"""

from .config import builtin_model
from .flow import (
    FlowTable,
    IntervalReport,
    classify_intervals,
    full_flow,
    hamiltonian_term,
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
    constant_operator,
    modulated_operator,
    probe_theta_dependence,
    scalar_values,
    zero_operator,
)
from .operators import (
    DensityValidationError,
    DimensionMismatchError,
    ModelError,
    NegativeEigenvalueError,
    NotHermitianError,
    ToleranceConfig,
    TraceDeviationError,
    hermitize,
    validate_density,
)
from .propagation import (
    PropagationError,
    Trajectory,
    propagate,
)

__version__ = "0.1.0"
