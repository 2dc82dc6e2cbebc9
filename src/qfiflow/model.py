"""Time-local master-equation models and their parameter derivatives.

A model bundles the generator ingredients H(theta;t), the dissipative
channels {gamma_i(theta;t), A_i(theta;t)}, the analytic theta-derivatives of
all three, and a parametric initial-state family rho0(theta).  Operator
time/theta dependence is restricted to sums of (scalar function) x (constant
matrix), which keeps configurations serializable and derivative rules exact.

:func:`compile_generator` turns a model into a :class:`CompiledGenerator`:
the constant matrices of the effective Hamiltonian and of the jump
sandwiches, collected once, and scalar coefficients evaluated per time for
the generator K and for its theta-derivative dK/dtheta, the latter from the
declared derivative fields.  ``apply_generator`` (K rho) and
``apply_generator_theta_derivative`` (d/dtheta of K rho) are thin wrappers
over it for one state at one time.  Units are dimensionless with hbar = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .operators import (
    DEFAULT_TOLERANCES,
    SIGMA_MINUS,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    ToleranceConfig,
    as_operator,
    commutator,
    dagger,
    hermiticity_defect,
    validate_density,
)

__all__ = [
    "ScalarPoleError",
    "ConstantScalar",
    "SinusoidalScalar",
    "JcLorentzianScalar",
    "ThetaScaledScalar",
    "TimeDependentScalar",
    "scan_scalar_poles",
    "scalar_values",
    "scalar_is_zero",
    "scalar_from_config",
    "scalar_to_config",
    "matrix_to_config",
    "model_to_config",
    "OperatorTerm",
    "TimeDependentOperator",
    "constant_operator",
    "zero_operator",
    "modulated_operator",
    "Channel",
    "RyStateFamily",
    "FixedRyStateFamily",
    "LinearStateFamily",
    "StateFamily",
    "ModelSpec",
    "COEFFICIENT_BYTES",
    "CompiledGenerator",
    "compile_generator",
    "apply_generator",
    "apply_generator_theta_derivative",
    "builtin_model",
    "BUILTIN_MODEL_NAMES",
    "ThetaDependence",
    "probe_theta_dependence",
    "validate_model",
    "ry_rotation",
]


class ScalarPoleError(ArithmeticError):
    """A time-dependent rate was evaluated too close to a pole of its closed form."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class ConstantScalar:
    """t |-> c."""

    c: float

    def __call__(self, t: float, theta: float = 0.0) -> float:
        return self.c


@dataclass(frozen=True)
class SinusoidalScalar:
    """t |-> c0 * (1 + a * sin(omega * t + phi))."""

    c0: float
    a: float
    omega: float
    phi: float = 0.0

    def __call__(self, t: float, theta: float = 0.0) -> float:
        return self.c0 * (1.0 + self.a * math.sin(self.omega * t + self.phi))


@dataclass(frozen=True)
class JcLorentzianScalar:
    """Exact decay rate of a damped qubit coupled to a Lorentzian reservoir.

    t |-> 2*gamma0*lam*sinh(d*t/2) / (d*cosh(d*t/2) + lam*sinh(d*t/2)) with
    d = sqrt(lam^2 - 2*gamma0*lam).  For lam < 2*gamma0 the root is imaginary
    and the rate oscillates (sinh(ix) = i sin x), diverging at finite times;
    evaluation raises :class:`ScalarPoleError` when the denominator is below
    1e-9 in the pole-free normal form.
    """

    gamma0: float
    lam: float

    def _pieces(self, t: float) -> tuple[complex, complex]:
        d = cmath.sqrt(complex(self.lam * self.lam - 2.0 * self.gamma0 * self.lam))
        z = 0.5 * d * t
        # sinh(z)/z, series near z=0 so the critically-damped point lam = 2*gamma0 stays finite
        if abs(z) < 1e-8:
            sinhc = 1.0 + z * z / 6.0
        else:
            sinhc = cmath.sinh(z) / z
        half_t_sinhc = 0.5 * t * sinhc
        return half_t_sinhc, cmath.cosh(z) + self.lam * half_t_sinhc

    def denominator(self, t: float) -> float:
        """Pole-free normal form of the denominator; real for real parameters and
        vanishing exactly at the true poles of the rate."""
        return self._pieces(t)[1].real

    def __call__(self, t: float, theta: float = 0.0) -> float:
        half_t_sinhc, den = self._pieces(t)
        if abs(den) < 1e-9:
            raise ScalarPoleError(
                f"lorentzian rate denominator |{abs(den):.3e}| < 1e-9 at t={t!r}", t
            )
        val = 2.0 * self.gamma0 * self.lam * half_t_sinhc / den
        return float(val.real)


@dataclass(frozen=True)
class ThetaScaledScalar:
    """(theta, t) |-> theta * base(t); the analytic derivative in theta is base."""

    base: "TimeDependentScalar"

    def __call__(self, t: float, theta: float = 0.0) -> float:
        return theta * self.base(t)


TimeDependentScalar = Union[
    ConstantScalar, SinusoidalScalar, JcLorentzianScalar, ThetaScaledScalar
]


def scalar_is_zero(s: TimeDependentScalar) -> bool:
    """Structurally identically zero (used for declared-derivative bookkeeping)."""
    if isinstance(s, ConstantScalar):
        return s.c == 0.0
    if isinstance(s, SinusoidalScalar):
        return s.c0 == 0.0
    if isinstance(s, JcLorentzianScalar):
        return s.gamma0 == 0.0 or s.lam == 0.0
    if isinstance(s, ThetaScaledScalar):
        return scalar_is_zero(s.base)
    raise TypeError(f"unknown scalar form {type(s).__name__}")


def scan_scalar_poles(scalar: TimeDependentScalar, times) -> None:
    """Reject a run interval containing a pole of a lorentzian-form rate.

    A pole strictly between samples shows up as a sign change of the
    normal-form denominator; a near-zero value at a sample is caught
    directly.  Other scalar forms are pole-free.
    """
    if isinstance(scalar, ThetaScaledScalar):
        scan_scalar_poles(scalar.base, times)
        return
    if not isinstance(scalar, JcLorentzianScalar):
        return
    den = _jc_pieces(scalar, np.asarray(times, dtype=float))[1].real
    if np.all(np.isfinite(den) & (np.abs(den) >= 1e-9)) and not np.any(den[1:] * den[:-1] < 0.0):
        return
    # point by point, to raise at the first failing time with the scalar's message
    prev: float | None = None
    for t in times:
        den = scalar.denominator(float(t))
        if abs(den) < 1e-9 or (prev is not None and den * prev < 0.0):
            raise ScalarPoleError(
                f"run interval contains a pole of the lorentzian rate near t={t!r}",
                float(t),
            )
        prev = den


_SCALAR_FIELDS = {
    "constant": ("c",),
    "sinusoidal": ("c0", "a", "omega", "phi"),
    "jc_lorentzian": ("gamma0", "lambda"),
    "theta_scaled": ("base",),
}

_SCALAR_OPTIONAL = {"phi"}


def scalar_from_config(obj) -> TimeDependentScalar:
    """Build a scalar form from its JSON representation (a bare number means constant)."""
    if isinstance(obj, bool):
        raise ValueError("scalar must be a number or an object with a 'form' key")
    if isinstance(obj, (int, float)):
        return ConstantScalar(float(obj))
    if not isinstance(obj, dict):
        raise ValueError("scalar must be a number or an object with a 'form' key")
    form = obj.get("form")
    if form not in _SCALAR_FIELDS:
        raise ValueError(
            f"unknown scalar form {form!r}; expected one of {sorted(_SCALAR_FIELDS)}"
        )
    allowed = set(_SCALAR_FIELDS[form]) | {"form"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} for scalar form {form!r}")
    missing = [
        k for k in _SCALAR_FIELDS[form] if k not in obj and k not in _SCALAR_OPTIONAL
    ]
    if missing:
        raise ValueError(f"missing key(s) {missing} for scalar form {form!r}")
    if form == "theta_scaled":
        base = scalar_from_config(obj["base"])
        if isinstance(base, ThetaScaledScalar):
            raise ValueError("theta_scaled base must itself be theta-independent")
        return ThetaScaledScalar(base)
    vals = {}
    for k in _SCALAR_FIELDS[form]:
        if k in _SCALAR_OPTIONAL and k not in obj:
            continue
        v = obj[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"scalar field {k!r} must be a finite number")
        vals[k] = float(v)
    if form == "constant":
        return ConstantScalar(vals["c"])
    if form == "sinusoidal":
        return SinusoidalScalar(vals["c0"], vals["a"], vals["omega"], vals.get("phi", 0.0))
    return JcLorentzianScalar(vals["gamma0"], vals["lambda"])


def scalar_to_config(s: TimeDependentScalar) -> dict:
    """Inverse of :func:`scalar_from_config`."""
    if isinstance(s, ConstantScalar):
        return {"form": "constant", "c": s.c}
    if isinstance(s, SinusoidalScalar):
        return {"form": "sinusoidal", "c0": s.c0, "a": s.a, "omega": s.omega, "phi": s.phi}
    if isinstance(s, JcLorentzianScalar):
        return {"form": "jc_lorentzian", "gamma0": s.gamma0, "lambda": s.lam}
    if isinstance(s, ThetaScaledScalar):
        return {"form": "theta_scaled", "base": scalar_to_config(s.base)}
    raise TypeError(f"unknown scalar form {type(s).__name__}")


def matrix_to_config(m: np.ndarray) -> list:
    """Square complex matrix as row-major nested arrays of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def operator_to_config(op: TimeDependentOperator) -> list:
    """Operator as an array of {"matrix", "modulation"} terms."""
    return [
        {"matrix": matrix_to_config(term.base), "modulation": scalar_to_config(term.modulation)}
        for term in op.terms
    ]


def channel_to_config(ch: Channel) -> dict:
    return {
        "label": ch.label,
        "A": operator_to_config(ch.A),
        "gamma": scalar_to_config(ch.gamma),
        "dA_dtheta": operator_to_config(ch.dA_dtheta),
        "dgamma_dtheta": scalar_to_config(ch.dgamma_dtheta),
    }


def model_to_config(model: ModelSpec) -> dict:
    """Inline-model JSON representation; parses back to an equivalent ModelSpec."""
    return {
        "dim": model.dim,
        "hamiltonian": operator_to_config(model.H),
        "dH_dtheta": operator_to_config(model.dH_dtheta),
        "channels": [channel_to_config(ch) for ch in model.channels],
        "rho0_family": model.rho0_family.to_config(),
        "theta": model.theta,
    }


@dataclass(frozen=True, eq=False)
class OperatorTerm:
    base: np.ndarray
    modulation: TimeDependentScalar


@dataclass(frozen=True, eq=False)
class TimeDependentOperator:
    """Sum of (scalar modulation) x (constant matrix) terms sharing one dimension."""

    dim: int
    terms: tuple[OperatorTerm, ...] = ()

    def __post_init__(self):
        for term in self.terms:
            if term.base.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"operator term has shape {term.base.shape}, expected ({self.dim}, {self.dim})"
                )

    def evaluate(self, t: float, theta: float = 0.0) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for term in self.terms:
            out += term.modulation(t, theta) * term.base
        return out

    def evaluate_many(self, times: np.ndarray, theta: float = 0.0) -> np.ndarray:
        """The operator at every time, shape ``(len(times), dim, dim)``, summed as in evaluate."""
        out = np.zeros((len(times), self.dim, self.dim), dtype=complex)
        for term in self.terms:
            out += np.multiply.outer(scalar_values(term.modulation, times, theta), term.base)
        return out

    @property
    def is_zero(self) -> bool:
        return all(
            scalar_is_zero(term.modulation) or not np.any(term.base)
            for term in self.terms
        )


def constant_operator(matrix) -> TimeDependentOperator:
    m = as_operator(matrix)
    return TimeDependentOperator(m.shape[0], (OperatorTerm(m, ConstantScalar(1.0)),))


def zero_operator(dim: int) -> TimeDependentOperator:
    return TimeDependentOperator(dim, ())


def modulated_operator(matrix, scalar: TimeDependentScalar) -> TimeDependentOperator:
    m = as_operator(matrix)
    return TimeDependentOperator(m.shape[0], (OperatorTerm(m, scalar),))


@dataclass(frozen=True, eq=False)
class Channel:
    """One dissipative channel: rate gamma(theta;t), Lindblad operator A(theta;t),
    and their analytic theta-derivatives."""

    label: str
    A: TimeDependentOperator
    gamma: TimeDependentScalar
    dA_dtheta: TimeDependentOperator
    dgamma_dtheta: TimeDependentScalar


def ry_rotation(angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_y / 2)."""
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class RyStateFamily:
    """Pure qubit family R_y(theta)|0><0|R_y(theta)†; theta is the estimated angle."""

    name: str = field(default="ry", init=False)

    def rho0(self, theta: float) -> np.ndarray:
        ket = ry_rotation(theta)[:, :1]
        return ket @ dagger(ket)

    def drho0_dtheta(self, theta: float) -> np.ndarray:
        return -0.5j * commutator(SIGMA_Y, self.rho0(theta))

    def dim(self) -> int:
        return 2

    def to_config(self) -> dict:
        return {"family": "ry"}


@dataclass(frozen=True)
class FixedRyStateFamily:
    """Theta-independent qubit state R_y(angle)|0><0|R_y(angle)†."""

    angle: float
    name: str = field(default="ry_fixed", init=False)

    def rho0(self, theta: float) -> np.ndarray:
        ket = ry_rotation(self.angle)[:, :1]
        return ket @ dagger(ket)

    def drho0_dtheta(self, theta: float) -> np.ndarray:
        return np.zeros((2, 2), dtype=complex)

    def dim(self) -> int:
        return 2

    def to_config(self) -> dict:
        return {"family": "ry_fixed", "angle": self.angle}


@dataclass(frozen=True, eq=False)
class LinearStateFamily:
    """First-order family rho0(theta) = base + (theta - theta_ref) * slope.

    Escape hatch for arbitrary dimensions; valid as a density matrix in a
    neighbourhood of theta_ref wide enough for finite-difference probes.
    """

    base: np.ndarray
    slope: np.ndarray
    theta_ref: float
    name: str = field(default="linear", init=False)

    def rho0(self, theta: float) -> np.ndarray:
        return self.base + (theta - self.theta_ref) * self.slope

    def drho0_dtheta(self, theta: float) -> np.ndarray:
        return np.array(self.slope, dtype=complex)

    def dim(self) -> int:
        return self.base.shape[0]

    def to_config(self) -> dict:
        return {
            "family": "linear",
            "rho0": matrix_to_config(self.base),
            "drho0_dtheta": matrix_to_config(self.slope),
            "theta_ref": self.theta_ref,
        }


StateFamily = Union[RyStateFamily, FixedRyStateFamily, LinearStateFamily]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Generator ingredients, their theta-derivatives, and the initial-state family."""

    dim: int
    H: TimeDependentOperator
    dH_dtheta: TimeDependentOperator
    channels: tuple[Channel, ...]
    rho0_family: StateFamily
    theta: float

    def __post_init__(self):
        ops = [("H", self.H), ("dH_dtheta", self.dH_dtheta)]
        for ch in self.channels:
            ops.append((f"channel {ch.label!r} A", ch.A))
            ops.append((f"channel {ch.label!r} dA_dtheta", ch.dA_dtheta))
        for what, op in ops:
            if op.dim != self.dim:
                raise DimensionMismatchError(
                    f"{what} has dimension {op.dim}, model has {self.dim}"
                )
        if self.rho0_family.dim() != self.dim:
            raise DimensionMismatchError(
                f"initial-state family has dimension {self.rho0_family.dim()}, "
                f"model has {self.dim}"
            )


def _check_state_dim(model: ModelSpec, rho: np.ndarray) -> None:
    if rho.shape != (model.dim, model.dim):
        raise DimensionMismatchError(
            f"state has shape {rho.shape}, model dimension is {model.dim}"
        )


# Bytes of generator operators evaluated ahead at once: bounds their storage
# independently of the run length.
COEFFICIENT_BYTES = 2**20


def _flat(matrices, d: int) -> np.ndarray:
    return np.array(matrices, dtype=complex).reshape(len(matrices), d * d)


def _jc_pieces(s: JcLorentzianScalar, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``JcLorentzianScalar._pieces`` at every time, with numpy's complex functions;
    an overflow gives a non-finite value instead of raising."""
    d = cmath.sqrt(complex(s.lam * s.lam - 2.0 * s.gamma0 * s.lam))
    z = 0.5 * d * times
    with np.errstate(all="ignore"):
        sinhc = np.where(np.abs(z) < 1e-8, 1.0 + z * z / 6.0, np.sinh(z) / z)
        half_t_sinhc = 0.5 * times * sinhc
        return half_t_sinhc, np.cosh(z) + s.lam * half_t_sinhc


def scalar_values(s: TimeDependentScalar, times: np.ndarray, theta: float):
    """s at every time (one number if constant), with the arithmetic of its scalar form."""
    if isinstance(s, ConstantScalar):
        return s.c
    if isinstance(s, SinusoidalScalar):
        return s.c0 * (1.0 + s.a * np.sin(s.omega * times + s.phi))
    if isinstance(s, ThetaScaledScalar):
        return theta * scalar_values(s.base, times, theta)
    half_t_sinhc, den = _jc_pieces(s, times)
    with np.errstate(all="ignore"):
        values = (2.0 * s.gamma0 * s.lam * half_t_sinhc / den).real
    if np.all(np.isfinite(values)) and np.all(np.abs(den) >= 1e-9):
        return values
    # point by point: the closed form raises at the first pole or overflow
    return np.array([s(t, theta) for t in times.tolist()], dtype=float)


@dataclass(frozen=True, eq=False)
class CompiledGenerator:
    """The generator of a model as scalar coefficients on constant matrices.

    With L_0 = 1 and jump operators L_1..L_n -- every term of every channel's
    A and, with ``derivative``, every term of its dA_dtheta -- a generator
    acts on a Hermitian X as

        K X = T + T†,   T = sum_a L_a X R_a,

    where R_0 = G† for the effective Hamiltonian
    G = -i sum_k h_k H_k - 1/2 sum_ab W_ab L_a† L_b, and
    R_a = 1/2 sum_b W_ab L_b† carries half the jump sandwiches; that is
    K X = G X + (G X)† + sum_ab W_ab L_a X L_b†.  Only h and W depend on
    (theta, t).  For K they are the H modulations and W_ab = gamma_i f_a f_b
    for terms a, b of channel i; for dK/dtheta they are the dH_dtheta
    modulations and the theta-derivative of gamma_i f_a f_b, taken from the
    declared dgamma_dtheta and dA_dtheta.

    A stack of members X_s evolves as X_o' = sum_s K_so X_s.  With one state
    per theta, K_so is K(theta_s) on the diagonal; with ``derivative``, each
    theta contributes the pair (rho, drho_dtheta) under the block-triangular
    [[K, 0], [dK/dtheta, K]].
    """

    dim: int
    derivative: bool
    jumps: np.ndarray  # ((1 + n) d, d): L_0, ..., L_n stacked vertically
    ham: np.ndarray  # (n_h, d*d): (-i H_k)†, then (-i dH_k)† with derivative
    pairs: tuple[np.ndarray, np.ndarray]  # (a, b) of every same-channel pair
    effective: np.ndarray  # (len(pairs), d*d): (-1/2 L_a† L_b)† for each pair
    adjoints: np.ndarray  # (n, d*d): L_b†
    same_channel: np.ndarray  # (n, n) bool
    forms: tuple[TimeDependentScalar, ...]
    # Columns of the form values (len(forms) reads 0) giving the h
    # coefficients, and per jump operator its channel's rate and its term's
    # modulation: for K (h, rate, f), then for dK/dtheta (dh, drate, g).
    columns: tuple[np.ndarray, ...]

    def _members(self, n_thetas: int) -> int:
        return 2 * n_thetas if self.derivative else n_thetas

    def times_per_block(self, n_thetas: int) -> int:
        """How many times of :meth:`operators` fit in COEFFICIENT_BYTES (at least one).

        Per time: the k x k member blocks of m = 1 + n operators, the factors
        R_0..R_n of K and of dK/dtheta with the three real products that make
        each R_0, the m x m coefficient temporaries and the form values.
        """
        d, m, k = self.dim, len(self.jumps) // self.dim, self._members(n_thetas)
        factors = 32 * m * d * d + 48 * d * d
        per_time = 16 * k * k * m * d * d + factors + 96 * m * m + 16 * (len(self.forms) + 1)
        return max(1, COEFFICIENT_BYTES // per_time)

    def map_steps_per_block(self, n_thetas: int) -> int:
        """How many RK4 step maps in real coordinates fit COEFFICIENT_BYTES next to
        the unit map (0 if not even one does).

        Per step: operators at two half-grid times with their m x m
        coefficient temporaries, k d^2 x k d^2 real maps S and the RK4
        products of them, coordinates and states.  The unit map
        is 2 m d^2 x d^4 reals for m = 1 + n jump operators; building it takes
        eight times that, plus the 2 m d^2 real unit operators.
        """
        d, m, k = self.dim, len(self.jumps) // self.dim, self._members(n_thetas)
        n = k * d * d
        unit = 128 * m * d**6 + 32 * (m * d * d) ** 2
        step = 64 * n * n + 32 * k * k * m * d * d + 192 * m * m + 64 * n
        return max(0, (COEFFICIENT_BYTES - unit) // step)

    def _factors(self, h: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """R_0 (T, d, d) and R_1..R_n (T, n, d, d) from h (T, n_h) and W (T, n, n)."""
        d, n = self.dim, len(self.adjoints)
        # real coefficients times complex matrices, as real products on the (re, im) views
        w_pairs = w[:, self.pairs[0], self.pairs[1]]
        r0 = h @ self.ham.view(float) + w_pairs @ self.effective.view(float)
        rj = (0.5 * w).reshape(len(w) * n, n) @ self.adjoints.view(float)
        return r0.view(complex).reshape(len(w), d, d), rj.view(complex).reshape(len(w), n, d, d)

    def operators(self, times, thetas) -> np.ndarray:
        """The stack's generator at every time, shape ``times.shape + (k, k (1+n) d, d)``.

        For each output member o, rows run over (member s, jump a, index) and
        hold R_0..R_n of K_so.  One matrix product per output member keeps
        each product small, below where a threaded BLAS splits it.
        """
        times = np.asarray(times, dtype=float)
        ts = times.ravel()
        d, m = self.dim, len(self.jumps) // self.dim
        k = self._members(len(thetas))
        out = np.zeros((len(ts), k, k, m, d, d), dtype=complex)
        v = np.zeros((len(ts), len(self.forms) + 1))
        for i, theta in enumerate(thetas):
            for j, form in enumerate(self.forms):
                v[:, j] = scalar_values(form, ts, theta)
            h, rate, f, dh, drate, g = (v[:, c] for c in self.columns)
            ff = self.same_channel * f[:, :, None] * f[:, None, :]
            k_factors = self._factors(h, rate[:, :, None] * ff)
            if self.derivative:
                gf = self.same_channel * g[:, :, None] * f[:, None, :]
                dw = drate[:, :, None] * ff + rate[:, :, None] * (gf + gf.swapaxes(1, 2))
                s = 2 * i
                blocks = [
                    (s, s, k_factors),
                    (s, s + 1, self._factors(dh, dw)),
                    (s + 1, s + 1, k_factors),
                ]
            else:
                blocks = [(i, i, k_factors)]
            for s, o, (r0, rj) in blocks:
                out[:, o, s, 0] = r0
                out[:, o, s, 1:] = rj
        return out.reshape(times.shape + (k, k * m * d, d))

    def act(self, operators: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The stack's time derivative for Hermitian x of shape (..., k, d, d).

        ``operators`` comes from :meth:`operators` at the matching times.
        """
        d = self.dim
        lead = x.shape[:-3]
        p = (self.jumps @ x).reshape(x.shape[:-2] + (-1, d, d))  # L_a X_s: (..., k, 1+n, d, d)
        p = p.swapaxes(-2, -3).swapaxes(-3, -4).reshape(lead + (1, d, -1))
        t = p @ operators
        return t + t.conj().swapaxes(-1, -2)


def compile_generator(model: ModelSpec, derivative: bool = True) -> CompiledGenerator:
    """Collect the model's constant matrices once; ``derivative`` adds what dK/dtheta needs."""
    d = model.dim
    h_terms = list(model.H.terms)
    dh_terms = list(model.dH_dtheta.terms) if derivative else []
    channels = list(enumerate(model.channels))
    a_terms = [(i, t) for i, ch in channels for t in ch.A.terms]
    c_terms = [(i, t) for i, ch in channels for t in ch.dA_dtheta.terms] if derivative else []
    terms = a_terms + c_terms
    ops = [t.base for _, t in terms]
    channel = np.array([i for i, _ in terms], dtype=int)
    n_ch = len(model.channels)
    forms = [t.modulation for t in h_terms + dh_terms] + [ch.gamma for ch in model.channels]
    if derivative:
        forms += [ch.dgamma_dtheta for ch in model.channels]
    forms += [t.modulation for _, t in terms]
    zero = len(forms)
    n_h, n_dh = len(h_terms), len(dh_terms)
    rate = n_h + n_dh + channel
    term = zero - len(terms) + np.arange(len(terms))
    is_a = np.arange(len(terms)) < len(a_terms)
    columns = (
        np.r_[np.arange(n_h), np.full(n_dh, zero)],
        rate,
        np.where(is_a, term, zero),
        np.r_[np.full(n_h, zero), n_h + np.arange(n_dh)],
        rate + n_ch if derivative else np.full(len(terms), zero),
        np.where(is_a, zero, term),
    )
    same_channel = channel[:, None] == channel[None, :]
    pair_a, pair_b = np.nonzero(same_channel)
    return CompiledGenerator(
        dim=d,
        derivative=derivative,
        jumps=np.concatenate([np.eye(d, dtype=complex)] + ops, axis=0),
        ham=_flat([1j * dagger(t.base) for t in h_terms + dh_terms], d),
        pairs=(pair_a, pair_b),
        effective=_flat([-0.5 * dagger(ops[b]) @ ops[a] for a, b in zip(pair_a, pair_b)], d),
        adjoints=_flat([dagger(op) for op in ops], d),
        same_channel=same_channel,
        forms=tuple(forms),
        columns=columns,
    )


def apply_generator(model: ModelSpec, theta: float, t: float, rho: np.ndarray) -> np.ndarray:
    """K(t) rho = -i[H, rho] + sum_i gamma_i (A_i rho A_i† - 1/2 {A_i†A_i, rho}).

    Hermitian and traceless output for Hermitian input (the only input the
    compiled form is defined for).
    """
    rho = np.asarray(rho, dtype=complex)
    _check_state_dim(model, rho)
    gen = compile_generator(model, derivative=False)
    return gen.act(gen.operators(t, (theta,)), rho[None])[0]


def apply_generator_theta_derivative(
    model: ModelSpec,
    theta: float,
    t: float,
    rho: np.ndarray,
    drho_dtheta: np.ndarray,
) -> np.ndarray:
    """d/dtheta (K rho) = (dK/dtheta) rho + K drho_dtheta for Hermitian rho and drho_dtheta.

    dK/dtheta is assembled from the declared derivative fields dH_dtheta,
    dgamma_dtheta and dA_dtheta.
    """
    rho = np.asarray(rho, dtype=complex)
    sig = np.asarray(drho_dtheta, dtype=complex)
    _check_state_dim(model, rho)
    _check_state_dim(model, sig)
    gen = compile_generator(model)
    return gen.act(gen.operators(t, (theta,)), np.stack([rho, sig]))[1]


_ZERO_SCALAR = ConstantScalar(0.0)


def _number(params: dict, key: str, default: float) -> float:
    v = params.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"parameter {key!r} must be a finite number, got {v!r}")
    return float(v)


def _reject_unknown(params: dict, allowed: set[str], name: str) -> None:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValueError(f"unknown parameter(s) {unknown} for model {name!r}")


def _amplitude_damping_channel(gamma: TimeDependentScalar, dgamma: TimeDependentScalar) -> Channel:
    return Channel(
        label="ad",
        A=constant_operator(SIGMA_MINUS),
        gamma=gamma,
        dA_dtheta=zero_operator(2),
        dgamma_dtheta=dgamma,
    )


def _build_ad_nm(params: dict) -> ModelSpec:
    _reject_unknown(params, {"gamma0", "a", "omega", "phi", "omega0", "theta"}, "ad-nm")
    gamma0 = _number(params, "gamma0", 1.0)
    a = _number(params, "a", 1.5)
    omega = _number(params, "omega", 2.0)
    phi = _number(params, "phi", 0.0)
    omega0 = _number(params, "omega0", 1.0)
    theta = _number(params, "theta", math.pi / 4)
    return ModelSpec(
        dim=2,
        H=constant_operator(0.5 * omega0 * SIGMA_Z),
        dH_dtheta=zero_operator(2),
        channels=(
            _amplitude_damping_channel(
                SinusoidalScalar(gamma0, a, omega, phi), _ZERO_SCALAR
            ),
        ),
        rho0_family=RyStateFamily(),
        theta=theta,
    )


def _build_ad_jc(params: dict) -> ModelSpec:
    _reject_unknown(params, {"gamma0", "lambda", "omega0", "theta"}, "ad-jc")
    gamma0 = _number(params, "gamma0", 1.0)
    lam = _number(params, "lambda", 3.0)
    omega0 = _number(params, "omega0", 1.0)
    theta = _number(params, "theta", math.pi / 4)
    return ModelSpec(
        dim=2,
        H=constant_operator(0.5 * omega0 * SIGMA_Z),
        dH_dtheta=zero_operator(2),
        channels=(
            _amplitude_damping_channel(JcLorentzianScalar(gamma0, lam), _ZERO_SCALAR),
        ),
        rho0_family=RyStateFamily(),
        theta=theta,
    )


def _build_phase_dephasing(params: dict) -> ModelSpec:
    _reject_unknown(params, {"theta", "gamma0", "a", "omega", "phi"}, "phase-dephasing")
    theta = _number(params, "theta", 0.3)
    gamma0 = _number(params, "gamma0", 0.2)
    a = _number(params, "a", 0.5)
    omega = _number(params, "omega", 2.0)
    phi = _number(params, "phi", 0.0)
    channels: tuple[Channel, ...] = ()
    if gamma0 != 0.0:
        channels = (
            Channel(
                label="dz",
                A=constant_operator(SIGMA_Z),
                gamma=SinusoidalScalar(gamma0, a, omega, phi),
                dA_dtheta=zero_operator(2),
                dgamma_dtheta=_ZERO_SCALAR,
            ),
        )
    return ModelSpec(
        dim=2,
        H=modulated_operator(0.5 * SIGMA_Z, ThetaScaledScalar(ConstantScalar(1.0))),
        dH_dtheta=constant_operator(0.5 * SIGMA_Z),
        channels=channels,
        rho0_family=FixedRyStateFamily(angle=math.pi / 2),
        theta=theta,
    )


def _build_rate_estimation(params: dict) -> ModelSpec:
    _reject_unknown(params, {"theta", "g", "omega0", "alpha"}, "rate-estimation")
    theta = _number(params, "theta", 1.0)
    omega0 = _number(params, "omega0", 1.0)
    alpha = _number(params, "alpha", math.pi / 2)
    g_param = params.get("g", 1.0)
    try:
        g = scalar_from_config(g_param)
    except ValueError as exc:
        raise ValueError(f"parameter 'g': {exc}") from exc
    if isinstance(g, ThetaScaledScalar):
        raise ValueError("parameter 'g' must be theta-independent (theta scaling is implied)")
    return ModelSpec(
        dim=2,
        H=constant_operator(0.5 * omega0 * SIGMA_Z),
        dH_dtheta=zero_operator(2),
        channels=(_amplitude_damping_channel(ThetaScaledScalar(g), g),),
        rho0_family=FixedRyStateFamily(angle=alpha),
        theta=theta,
    )


_BUILTIN_BUILDERS = {
    "ad-nm": _build_ad_nm,
    "ad-jc": _build_ad_jc,
    "phase-dephasing": _build_phase_dephasing,
    "rate-estimation": _build_rate_estimation,
}

BUILTIN_MODEL_NAMES = tuple(sorted(_BUILTIN_BUILDERS))


def builtin_model(name: str, params: dict | None = None) -> ModelSpec:
    """Instantiate one of the built-in demonstration models by name."""
    if name not in _BUILTIN_BUILDERS:
        raise ValueError(f"unknown model {name!r}; expected one of {BUILTIN_MODEL_NAMES}")
    return _BUILTIN_BUILDERS[name](dict(params or {}))


@dataclass(frozen=True)
class ThetaDependence:
    """Finite-difference probe of one generator ingredient's theta dependence."""

    fd_magnitude: float
    declared_zero: bool
    defect: float


def probe_theta_dependence(
    model: ModelSpec,
    theta: float,
    times: tuple[float, ...],
    delta: float = 1e-4,
) -> dict[str, ThetaDependence]:
    """Central-difference check of the declared theta-derivatives.

    Returns probes keyed by ingredient ("hamiltonian", "decay_rates",
    "lindblad_operators"); channel results are aggregated by maximum.
    ``fd_magnitude`` is the measured theta dependence, ``defect`` the
    disagreement between the finite difference and the declared derivative.
    """
    h_mag = 0.0
    h_defect = 0.0
    for t in times:
        fd = (model.H.evaluate(t, theta + delta) - model.H.evaluate(t, theta - delta)) / (
            2.0 * delta
        )
        h_mag = max(h_mag, float(np.max(np.abs(fd))) if fd.size else 0.0)
        diff = fd - model.dH_dtheta.evaluate(t, theta)
        h_defect = max(h_defect, float(np.max(np.abs(diff))) if diff.size else 0.0)
    g_mag = 0.0
    g_defect = 0.0
    a_mag = 0.0
    a_defect = 0.0
    for ch in model.channels:
        for t in times:
            fd_g = (ch.gamma(t, theta + delta) - ch.gamma(t, theta - delta)) / (2.0 * delta)
            g_mag = max(g_mag, abs(fd_g))
            g_defect = max(g_defect, abs(fd_g - ch.dgamma_dtheta(t, theta)))
            fd_a = (ch.A.evaluate(t, theta + delta) - ch.A.evaluate(t, theta - delta)) / (
                2.0 * delta
            )
            a_mag = max(a_mag, float(np.max(np.abs(fd_a))) if fd_a.size else 0.0)
            diff_a = fd_a - ch.dA_dtheta.evaluate(t, theta)
            a_defect = max(a_defect, float(np.max(np.abs(diff_a))) if diff_a.size else 0.0)
    return {
        "hamiltonian": ThetaDependence(h_mag, model.dH_dtheta.is_zero, h_defect),
        "decay_rates": ThetaDependence(
            g_mag,
            all(scalar_is_zero(ch.dgamma_dtheta) for ch in model.channels),
            g_defect,
        ),
        "lindblad_operators": ThetaDependence(
            a_mag, all(ch.dA_dtheta.is_zero for ch in model.channels), a_defect
        ),
    }


def validate_model(
    model: ModelSpec,
    theta: float | None = None,
    times: tuple[float, ...] = (0.0, 0.37, 1.0),
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    delta_theta: float = 1e-4,
) -> None:
    """Spot-check model invariants: Hermitian H and dH at sampled (theta, t),
    a valid initial density matrix at theta and theta +/- delta_theta, and a
    Hermitian, traceless initial-state derivative."""
    if theta is None:
        theta = model.theta
    for t in times:
        for what, op in (("H", model.H), ("dH_dtheta", model.dH_dtheta)):
            defect = hermiticity_defect(op.evaluate(t, theta))
            if defect > tol.herm:
                raise ValueError(
                    f"{what} not Hermitian at (theta={theta}, t={t}): defect {defect:.3e}"
                )
    for probe in (theta, theta + delta_theta, theta - delta_theta):
        validate_density(model.rho0_family.rho0(probe), tol)
    d0 = model.rho0_family.drho0_dtheta(theta)
    if hermiticity_defect(d0) > tol.herm:
        raise ValueError("initial-state theta-derivative is not Hermitian")
    if abs(np.trace(d0)) > tol.trace:
        raise ValueError("initial-state theta-derivative is not traceless")
