"""Time-local master-equation models and their parameter derivatives.

A model bundles the generator ingredients H(theta;t), the dissipative
channels {gamma_i(theta;t), A_i(theta;t)}, the analytic theta-derivatives of
all three, and a parametric initial-state family rho0(theta).  Operator
time/theta dependence is restricted to sums of (scalar form) x (constant
matrix), which keeps configurations serializable and derivative rules exact.
The forms are data, evaluated over arrays of times by :func:`scalar_values`
(operators by ``evaluate_many``) for the run, the probes and the checks alike.

:func:`compile_generator` turns a model into a :class:`CompiledGenerator`:
the constant matrices of the effective Hamiltonian and of the jump
sandwiches, collected once, and scalar coefficients evaluated per time for
the generator K and for its theta-derivative dK/dtheta, the latter from the
declared derivative fields.  Units are dimensionless with hbar = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Union

import numpy as np

from .operators import (
    DEFAULT_TOLERANCES,
    SIGMA_MINUS,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    ModelError,
    as_operator,
    dagger,
    hermiticity_defect,
)

__all__ = [
    "ScalarPoleError",
    "ConstantScalar",
    "SinusoidalScalar",
    "JcLorentzianScalar",
    "ThetaScaledScalar",
    "TimeDependentScalar",
    "scalar_values",
    "scalar_is_zero",
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
    "CompiledGenerator",
    "compile_generator",
    "BUILTINS",
    "BUILTIN_MODEL_NAMES",
    "ThetaDependence",
    "probe_theta_dependence",
    "theta_slope",
    "ry_rotation",
]


class ScalarPoleError(ArithmeticError):
    """A lorentzian form was evaluated at or past the first pole of its closed form (``t``)."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class ConstantScalar:
    """t |-> c."""

    c: float


@dataclass(frozen=True)
class SinusoidalScalar:
    """t |-> c0 * (1 + a * sin(omega * t + phi))."""

    c0: float
    a: float
    omega: float
    phi: float = 0.0


@dataclass(frozen=True)
class JcLorentzianScalar:
    """Exact decay rate of a damped qubit coupled to a Lorentzian reservoir.

    t |-> 2*gamma0*lam*sinh(d*t/2) / (d*cosh(d*t/2) + lam*sinh(d*t/2)) with
    d^2 = lam^2 - 2*gamma0*lam, whose denominator over d is cosh z + lam*t*sinhc(z)/2,
    z = d*t/2.  Its first zero in t > 0, the rate's first pole (inf if none):
    for imaginary d = i*w, t* = (pi + 2 atan(lam/w))/w, which always exists; for
    real d > 0, t* = 2 artanh(-d/lam)/d when lam < 0 < gamma0*lam; for d = 0,
    t* = -2/lam when lam < 0.  A structurally zero form (gamma0 = 0 or lam = 0)
    has none.  :func:`scalar_values` raises :class:`ScalarPoleError` at times
    from t* on.
    """

    gamma0: float
    lam: float

    @property
    def first_pole(self) -> float:
        # on the form scaled exactly by 2^-k, |gamma0|, |lam| < 1, so d^2 cannot overflow
        k = math.frexp(max(abs(self.gamma0), abs(self.lam)))[1]
        g, lam = math.ldexp(self.gamma0, -k), math.ldexp(self.lam, -k)
        d2 = lam * lam - 2.0 * g * lam
        if d2 < 0.0:  # pi/2 + atan(lam/w) as atan2, which does not cancel as w -> 0
            w = math.sqrt(-d2)
            t = 2.0 * math.atan2(w, -lam) / w
        elif lam >= 0.0 or g >= 0.0:  # also the zero forms
            return math.inf
        else:  # 2 artanh(x) = log1p(2x/(1 - x)), x = -d/lam, with 1 - x = 2 gamma0 lam/(lam (lam - d)) exactly
            d = math.sqrt(d2)
            t = math.log1p(d * (d - lam) / (g * lam)) / d if d else -2.0 / lam
        return t / 2.0 ** (k // 2) / 2.0 ** (k - k // 2)  # 2^k in two factors that are floats for any k


@dataclass(frozen=True)
class ThetaScaledScalar:
    """(theta, t) |-> theta * base(t); the analytic derivative in theta is base."""

    base: "TimeDependentScalar"


TimeDependentScalar = Union[
    ConstantScalar, SinusoidalScalar, JcLorentzianScalar, ThetaScaledScalar
]


@dataclass(frozen=True)
class _ScalarSum:
    """(theta, t) |-> the sum of parts, in order: the modulations of one operator's
    terms on one base, which :func:`compile_generator` adds before any product."""

    parts: tuple[TimeDependentScalar, ...]


def scalar_is_zero(s: TimeDependentScalar) -> bool:
    """Structurally identically zero: the zero rule of compile_generator (no coefficient) and theta_slope (no term)."""
    if isinstance(s, ConstantScalar):
        return s.c == 0.0
    if isinstance(s, SinusoidalScalar):
        return s.c0 == 0.0
    if isinstance(s, JcLorentzianScalar):
        return s.gamma0 == 0.0 or s.lam == 0.0
    if isinstance(s, ThetaScaledScalar):
        return scalar_is_zero(s.base)
    raise TypeError(f"unknown scalar form {type(s).__name__}")


def _jc_pieces(s: JcLorentzianScalar, times: np.ndarray):
    """h and den of the lorentzian rate 2 gamma0 lam h / den at every time, z = d t/2: for
    real d, divided by cosh z so nothing overflows, h = t tanh(z)/(2 z), den = 1 + lam h;
    for imaginary d the pole-free normal form, h = t sinh(z)/(2 z), den = cosh z + lam h."""
    d = cmath.sqrt(complex(s.lam * s.lam - 2.0 * s.gamma0 * s.lam))
    z = 0.5 * d * times
    with np.errstate(all="ignore"):
        # series near z=0 so the critically-damped point lam = 2*gamma0 stays finite
        if d.imag:  # sinh(i y) = i sin y and cosh(i y) = cos y: bounded
            h, c = 0.5 * times * np.where(np.abs(z) < 1e-8, 1.0 + z * z / 6.0, np.sinh(z) / z), np.cosh(z)
        else:
            z = z.real
            h, c = 0.5 * times * np.where(np.abs(z) < 1e-8, 1.0 - z * z / 3.0, np.tanh(z) / z), 1.0
    return h, c + s.lam * h


def scalar_values(s: TimeDependentScalar, times: np.ndarray, theta: float):
    """s at every time of a 1-d array (one number if constant), the library's one
    evaluation of a scalar form; a lorentzian form raises if any time reaches its first pole."""
    if isinstance(s, ConstantScalar):
        return s.c
    if isinstance(s, SinusoidalScalar):
        return s.c0 * (1.0 + s.a * np.sin(s.omega * times + s.phi))
    if isinstance(s, ThetaScaledScalar):
        return theta * scalar_values(s.base, times, theta)
    if isinstance(s, _ScalarSum):
        return reduce(np.add, (scalar_values(part, times, theta) for part in s.parts))
    if scalar_is_zero(s):
        return 0.0
    t = s.first_pole
    if np.any(times >= t):
        raise ScalarPoleError(f"run interval contains a pole of the lorentzian rate near t={t:.4g}", t)
    h, den = _jc_pieces(s, times)
    with np.errstate(all="ignore"):
        return (2.0 * s.gamma0 * s.lam * h / den).real


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

    def evaluate_many(self, times: np.ndarray, theta: float = 0.0) -> np.ndarray:
        """The operator at every time, ``(len(times), dim, dim)``: its terms in order, real and imaginary parts apart."""
        out = np.zeros((len(times), self.dim, self.dim), dtype=complex)
        for term in self.terms:
            values = np.reshape(scalar_values(term.modulation, times, theta), (-1, 1, 1))
            out.real += values * term.base.real
            out.imag += values * term.base.imag
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

    def rho0(self, theta: float) -> np.ndarray:
        return FixedRyStateFamily(theta).rho0(theta)

    def drho0_dtheta(self, theta: float) -> np.ndarray:
        rho = self.rho0(theta)
        return -0.5j * (SIGMA_Y @ rho - rho @ SIGMA_Y)

    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class FixedRyStateFamily:
    """Theta-independent qubit state R_y(angle)|0><0|R_y(angle)†."""

    angle: float

    def rho0(self, theta: float) -> np.ndarray:
        ket = ry_rotation(self.angle)[:, :1]
        return ket @ dagger(ket)

    def drho0_dtheta(self, theta: float) -> np.ndarray:
        return np.zeros((2, 2), dtype=complex)

    def dim(self) -> int:
        return 2


@dataclass(frozen=True, eq=False)
class LinearStateFamily:
    """First-order family rho0(theta) = base + (theta - theta_ref) * slope.

    Escape hatch for arbitrary dimensions; valid as a density matrix in a
    neighbourhood of theta_ref wide enough for finite-difference probes.
    """

    base: np.ndarray
    slope: np.ndarray
    theta_ref: float

    def __post_init__(self):
        if np.shape(self.slope) != np.shape(self.base):
            message = f"drho0_dtheta has shape {np.shape(self.slope)}, expected {np.shape(self.base)}"
            raise DimensionMismatchError(message, "/rho0_family/drho0_dtheta")

    def rho0(self, theta: float) -> np.ndarray:
        return self.base + (theta - self.theta_ref) * self.slope

    def drho0_dtheta(self, theta: float) -> np.ndarray:
        return np.array(self.slope, dtype=complex)

    def dim(self) -> int:
        return self.base.shape[0]


StateFamily = Union[RyStateFamily, FixedRyStateFamily, LinearStateFamily]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Generator ingredients, their theta-derivatives, and the initial-state family, checked when
    built (:class:`ModelError`).  H and dH_dtheta pass when each group of terms of one modulation
    up to amplitude (bases scaled by a constant's c or a sinusoid's c0, also under theta_scaled)
    has Hermitian summed bases: as forms are real, sufficient at every (theta, t), and necessary
    when the groups' modulations are linearly independent."""

    dim: int
    H: TimeDependentOperator
    dH_dtheta: TimeDependentOperator
    channels: tuple[Channel, ...]
    rho0_family: StateFamily
    theta: float

    def __post_init__(self):
        dims = [("operator", "/hamiltonian", self.H.dim), ("operator", "/dH_dtheta", self.dH_dtheta.dim)]
        for i, ch in enumerate(self.channels):
            dims += [("operator", f"/channels/{i}/A", ch.A.dim), ("operator", f"/channels/{i}/dA_dtheta", ch.dA_dtheta.dim)]
        for what, pointer, dim in dims + [("family", "/rho0_family", self.rho0_family.dim())]:
            if dim != self.dim:
                raise DimensionMismatchError(f"{what} dimension {dim} does not match model dim {self.dim}", pointer)
        labels = [ch.label for ch in self.channels]
        for i, label in enumerate(labels):  # CSV column names, written unquoted
            if label in labels[:i]:
                raise ModelError(f"label {label!r} is already channel {labels.index(label)}'s", f"/channels/{i}/label")
            if any(c in label for c in ',"\r\n'):
                raise ModelError(f"label {label!r} holds a comma, quote or newline, unfit for a CSV column name", f"/channels/{i}/label")
        for name, pointer, op in (("H", "/hamiltonian", self.H), ("dH_dtheta", "/dH_dtheta", self.dH_dtheta)):
            groups: dict = {}  # modulation -> the summed bases of its terms
            for t in op.terms:
                m = t.modulation.base if isinstance(t.modulation, ThetaScaledScalar) else t.modulation
                field = {ConstantScalar: "c", SinusoidalScalar: "c0"}.get(type(m))
                f, c = (replace(m, **{field: 1.0}), getattr(m, field)) if field else (m, 1.0)
                f = f if m is t.modulation else ThetaScaledScalar(f)  # theta itself is not folded
                groups[f] = groups.get(f, 0.0) + c * t.base
            for f, bases in groups.items():
                defect = hermiticity_defect(bases)
                if defect > DEFAULT_TOLERANCES.herm and not scalar_is_zero(f):
                    raise ModelError(f"{name} not Hermitian: defect {defect:.3e} on its terms modulated by {f}", pointer)
        d0 = self.rho0_family.drho0_dtheta(self.theta)
        if hermiticity_defect(d0) > DEFAULT_TOLERANCES.herm:
            raise ModelError("initial-state theta-derivative is not Hermitian", "/rho0_family/drho0_dtheta")
        if abs(np.trace(d0)) > DEFAULT_TOLERANCES.trace:
            raise ModelError("initial-state theta-derivative is not traceless", "/rho0_family/drho0_dtheta")


@dataclass(frozen=True, eq=False)
class CompiledGenerator:
    """The generator of a model as scalar coefficients on constant matrices.

    With L_0 = 1 and jump operators L_1, ..., L_(m-1) -- the distinct bases of
    every channel's A terms and, with ``derivative``, dA_dtheta terms; bases
    equal entry for entry are one jump, whatever terms or channels they come
    from -- a generator acts on a Hermitian X as

        K X = T + T†,   T = sum_a L_a X R_a,

    where R_0 = G† for the effective Hamiltonian
    G = -i sum_k h_k H_k - 1/2 sum_ab W_ab L_a† L_b, and
    R_a = 1/2 sum_b W_ab L_b† carries half the jump sandwiches; that is
    K X = G X + (G X)† + sum_ab W_ab L_a X L_b†.  Only h and W depend on
    (theta, t).  For K they are the H modulations and W_ab = sum over
    channels i of gamma_i f_a f_b, f_a being the modulation of channel i's
    terms with base L_a (summed first where several share it); for dK/dtheta
    the dH_dtheta modulations and the theta-derivative of gamma_i f_a f_b,
    from the declared dgamma_dtheta and dA_dtheta.  Each coefficient is a
    product of three form values, and the R_a of a block are one real
    product of its coefficients with constant matrices.

    A structurally zero term, rate or derivative (``scalar_is_zero``,
    ``is_zero``) gives no coefficient, so dK/dtheta uses only L_0 and the
    jumps of channels whose declared dgamma_dtheta or dA_dtheta is non-zero
    (condition (ii), decided per channel), and is absent if no ingredient of
    K depends on theta.  ``blocks`` holds the distinct blocks, K and then
    dK/dtheta, as the columns of the sandwiches [L_0 X, ..., L_(m-1) X] each
    uses; the jumps are ordered so both are contiguous.  A stack has one
    state per theta under K(theta) or, with ``derivative``, the pair
    (rho, drho_dtheta) per theta under [[K, 0], [dK/dtheta, K]], a structure
    :meth:`act` applies, so no zero or repeated block is ever formed; it is the
    one statement of this algebra, which the integrator's unit map reads whole.
    """

    dim: int
    derivative: bool
    jumps: np.ndarray  # (d m, d): row i m + a is row i of L_a
    blocks: tuple[slice, ...]  # sandwich columns of K, then of dK/dtheta
    forms: tuple[TimeDependentScalar, ...]
    # Per block: the three columns of the form values (column len(forms)
    # reads 1) whose product is each coefficient, (3, n_c); and the matrices
    # the coefficients scale, as the real view (n_c, 2 r d) of the block's
    # r x d operators R_a stacked vertically.
    factors: tuple[np.ndarray, ...]
    constants: tuple[np.ndarray, ...]

    def bytes_per_time(self, n_thetas: int) -> int:
        """Bytes of :meth:`operators` per time (operators, coefficients, form values), the
        one size the integrator needs from the generator to size its blocks."""
        reals = sum(c.shape[1] for c in self.constants)
        coefficients = sum(f.shape[1] for f in self.factors)
        return n_thetas * (8 * reals + 40 * coefficients + 16 * len(self.forms) + 256)

    @property
    def theta_dependent(self) -> bool:
        """Whether theta enters a form of the generator: through a ThetaScaledScalar, alone or
        summed, the only form :func:`scalar_values` evaluates with theta; if not, the generator
        is one matrix at every theta."""
        parts = (p for f in self.forms for p in (f.parts if isinstance(f, _ScalarSum) else (f,)))
        return any(isinstance(p, ThetaScaledScalar) for p in parts)

    def operators(self, times, thetas) -> np.ndarray:
        """The distinct blocks of the stack's generator at every time, shape
        ``times.shape + (n_thetas, r, d)``: per theta, the R_a of K stacked
        vertically, then those of dK/dtheta; the form values are evaluated once."""
        times = np.asarray(times, dtype=float)
        ts = times.ravel()
        v = np.ones((len(ts), len(thetas), len(self.forms) + 1))
        for i, theta in enumerate(thetas):
            for j, form in enumerate(self.forms):
                v[:, i, j] = scalar_values(form, ts, theta)
        v = v.reshape(-1, v.shape[-1])
        widths = [c.shape[1] for c in self.constants]
        out = np.empty((len(v), sum(widths)))
        start = 0
        for (f, g, h), constant, width in zip(self.factors, self.constants, widths):
            np.matmul(v[:, f] * (v[:, g] * v[:, h]), constant, out=out[:, start : start + width])
            start += width
        return out.view(complex).reshape(times.shape + (len(thetas), sum(widths) // (2 * self.dim), self.dim))

    def act(self, operators: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The stack's time derivative for Hermitian x (..., k, d, d), from :meth:`operators`
        at the matching times: the sandwiches [L_0 X, ..., L_(m-1) X] of every member through
        K in one product, plus dK/dtheta on rho for each drho_dtheta."""
        d = self.dim
        per = 2 if self.derivative else 1
        p = (self.jumps @ x).reshape(x.shape[:-3] + (x.shape[-3] // per, per * d, len(self.jumps)))
        k = self.blocks[0]
        t = p[..., k] @ operators[..., : k.stop - k.start, :]
        for dk in self.blocks[1:]:
            t[..., d:, :] += p[..., :d, dk] @ operators[..., k.stop - k.start :, :]
        t = t.reshape(x.shape)
        return t + t.conj().swapaxes(-1, -2)


def compile_generator(model: ModelSpec, derivative: bool = True) -> CompiledGenerator:
    """Collect the model's constant matrices once; ``derivative`` adds what dK/dtheta needs.

    Only forms and bases that a non-zero coefficient uses are kept, each once.
    """
    d = model.dim
    forms: dict = {}
    bases = [np.eye(d, dtype=complex)]
    first = dict.fromkeys([0])  # jumps as sandwiches first use them, so bases registered earlier (H's) reorder none

    def column(form) -> int:
        return forms.setdefault(form, len(forms))

    def jump(base) -> int:
        j = next((j for j, b in enumerate(bases) if j and np.array_equal(b, base)), len(bases))
        if j == len(bases):
            bases.append(base)
        return j

    def live(op: TimeDependentOperator) -> list:
        # terms on one base are one, their modulations summed: a cancelling sum then
        # rounds once, not in each product gamma f_a f_b of W_ab
        groups: dict = {}
        for t in op.terms:
            if not scalar_is_zero(t.modulation) and np.any(t.base):
                groups.setdefault(jump(t.base), []).append(t.modulation)
        return [(j, fs[0] if len(fs) == 1 else _ScalarSum(tuple(fs))) for j, fs in groups.items()]

    def hamiltonian(op: TimeDependentOperator) -> list:
        return [((column(f), -1, -1), {0: 1j * dagger(bases[h])}) for h, f in live(op)]

    def sandwich(rate, left: list, right: list) -> list:
        # rate f_a f_b for every a of left and b of right: -1/2 L_b† L_a in R_0, 1/2 L_b† in R_a
        first.update(dict.fromkeys(a for a, _ in left if right))
        return [
            ((column(rate), column(fa), column(fb)), {0: -0.5 * dagger(bases[b]) @ bases[a], a: 0.5 * dagger(bases[b])})
            for a, fa in left
            for b, fb in right
        ]

    k_terms = hamiltonian(model.H)
    dk_terms = hamiltonian(model.dH_dtheta) if derivative else []
    for ch in model.channels:
        a = live(ch.A)
        if not scalar_is_zero(ch.gamma):
            k_terms += sandwich(ch.gamma, a, a)
        if derivative and not scalar_is_zero(ch.dgamma_dtheta):
            dk_terms += sandwich(ch.dgamma_dtheta, a, a)
        if derivative and not scalar_is_zero(ch.gamma):
            c = live(ch.dA_dtheta)
            dk_terms += sandwich(ch.gamma, c, a) + sandwich(ch.gamma, a, c)
    # jumps of dK/dtheta alone, then shared ones (L_0 among them), then those of K alone
    k_used, dk_used = ({j for _, mats in terms for j in mats} for terms in (k_terms, dk_terms))
    order = [j for used in (dk_used - k_used, dk_used & k_used, k_used - dk_used) for j in first if j in used]
    position = {j: i for i, j in enumerate(order)}
    spans = [(len(dk_used - k_used), len(order))] + ([(0, len(dk_used))] if dk_terms else [])

    def constants(terms: list, lo: int, hi: int) -> np.ndarray:
        out = np.zeros((len(terms), hi - lo, d, d), dtype=complex)
        for i, (_, mats) in enumerate(terms):
            for j, m in mats.items():
                out[i, position[j] - lo] = m
        return out.reshape(len(terms), (hi - lo) * d * d).view(float)

    blocks = list(zip((k_terms, dk_terms), spans))
    jumps = np.array([bases[j] for j in order], dtype=complex).reshape(len(order), d, d)
    return CompiledGenerator(
        dim=d,
        derivative=derivative,
        jumps=jumps.transpose(1, 0, 2).reshape(len(order) * d, d),
        blocks=tuple(slice(lo * d, hi * d) for _, (lo, hi) in blocks),
        forms=tuple(forms),
        factors=tuple(np.array([f for f, _ in terms], dtype=int).reshape(-1, 3).T for terms, _ in blocks),
        constants=tuple(constants(terms, lo, hi) for terms, (lo, hi) in blocks),
    )


_ZERO_SCALAR = ConstantScalar(0.0)


def _damped_qubit(omega0: float, gamma, dgamma, family, theta: float) -> ModelSpec:
    """A qubit under H = omega0 sigma_z / 2 decaying through sigma_minus at rate gamma."""
    return ModelSpec(
        dim=2,
        H=constant_operator(0.5 * omega0 * SIGMA_Z),
        dH_dtheta=zero_operator(2),
        channels=(Channel("ad", constant_operator(SIGMA_MINUS), gamma, zero_operator(2), dgamma),),
        rho0_family=family,
        theta=theta,
    )


def _ad_nm(gamma0, a, omega, phi, omega0, theta) -> ModelSpec:
    return _damped_qubit(omega0, SinusoidalScalar(gamma0, a, omega, phi), _ZERO_SCALAR, RyStateFamily(), theta)


def _ad_jc(gamma0, lam, omega0, theta) -> ModelSpec:
    return _damped_qubit(omega0, JcLorentzianScalar(gamma0, lam), _ZERO_SCALAR, RyStateFamily(), theta)


def _phase_dephasing(theta, gamma0, a, omega, phi) -> ModelSpec:
    rate = SinusoidalScalar(gamma0, a, omega, phi)
    channels = (Channel("dz", constant_operator(SIGMA_Z), rate, zero_operator(2), _ZERO_SCALAR),) if gamma0 else ()
    return ModelSpec(
        dim=2,
        H=modulated_operator(0.5 * SIGMA_Z, ThetaScaledScalar(ConstantScalar(1.0))),
        dH_dtheta=constant_operator(0.5 * SIGMA_Z),
        channels=channels,
        rho0_family=FixedRyStateFamily(angle=math.pi / 2),
        theta=theta,
    )


def _rate_estimation(theta, omega0, alpha, g) -> ModelSpec:
    return _damped_qubit(omega0, ThetaScaledScalar(g), g, FixedRyStateFamily(alpha), theta)


# The built-in demonstration models: name -> (constructor, its parameters in
# order with their defaults).  A default that is a scalar form marks a
# parameter taking a theta-independent scalar form; the others are numbers.
BUILTINS = {
    "ad-nm": (_ad_nm, {"gamma0": 1.0, "a": 1.5, "omega": 2.0, "phi": 0.0, "omega0": 1.0, "theta": math.pi / 4}),
    "ad-jc": (_ad_jc, {"gamma0": 1.0, "lambda": 3.0, "omega0": 1.0, "theta": math.pi / 4}),
    "phase-dephasing": (_phase_dephasing, {"theta": 0.3, "gamma0": 0.2, "a": 0.5, "omega": 2.0, "phi": 0.0}),
    "rate-estimation": (_rate_estimation, {"theta": 1.0, "omega0": 1.0, "alpha": math.pi / 2, "g": ConstantScalar(1.0)}),
}

BUILTIN_MODEL_NAMES = tuple(sorted(BUILTINS))

# A probe's defect allowance, in eps times max(1, |slope|, |declared|): both are sums of (form
# value) x (matrix) terms from the same evaluators, so a declaration written with the slope's own
# forms and matrices reads 0, and one written otherwise differs by the two sums' roundings: up to
# four products and four additions of at most eps/2 of the scale, 4 eps per side, 8 for both.
THETA_DEFECT_ROUNDINGS = 8


def theta_slope(x):
    """The exact theta-derivative of a scalar form or an operator: every theta dependence a
    form can express is theta * base, base theta-independent, of slope base; any other form
    has slope zero.  An operator's slope is its terms with their modulations' non-zero slopes."""
    if not isinstance(x, TimeDependentOperator):
        return x.base if isinstance(x, ThetaScaledScalar) else _ZERO_SCALAR
    slopes = ((t.base, theta_slope(t.modulation)) for t in x.terms)
    return TimeDependentOperator(x.dim, tuple(OperatorTerm(b, s) for b, s in slopes if not scalar_is_zero(s)))


@dataclass(frozen=True)
class ThetaDependence:
    """One ingredient's theta dependence: condition (ii) ``holds`` when the ``magnitude`` of its
    exact slope is 0; its declarations are ``consistent`` when ``defect <= defect_tolerance``."""

    magnitude: float
    defect: float
    defect_tolerance: float

    @property
    def holds(self) -> bool:
        return self.magnitude == 0.0

    @property
    def consistent(self) -> bool:
        return self.defect <= self.defect_tolerance


def probe_theta_dependence(model: ModelSpec, theta: float, grid: np.ndarray, dt: float) -> dict[str, ThetaDependence]:
    """Condition (ii) and the declared theta-derivatives, exactly, at every time ``propagate``
    evaluates the generator on the grid t_k = k dt: grid points and step midpoints t_k + dt/2.

    Per ingredient ("hamiltonian", "decay_rates", "lindblad_operators"; channels by maximum):
    ``magnitude``, the largest |slope| (:func:`theta_slope`); ``defect``, the largest |slope -
    declared|; ``defect_tolerance``, THETA_DEFECT_ROUNDINGS eps times max(1, |slope|, |declared|).
    Rates are 1 x 1 operators; structurally zero pairs are skipped, all-constant ones evaluated
    at one time, others a block of times at a time, at most ``np.getbufsize()`` reals a stack.
    """

    def largest(x) -> float:
        return float(np.max(np.abs(x), initial=0.0))

    rate = partial(modulated_operator, np.ones((1, 1)))

    def dependence(pairs: list) -> ThetaDependence:  # (ingredient, declared derivative) operators
        magnitude, defect, scale = 0.0, 0.0, 1.0
        for ops in ((theta_slope(x), declared) for x, declared in pairs):
            if all(op.is_zero for op in ops):
                continue
            varying = any(np.ndim(scalar_values(t.modulation, grid[:1], theta)) for op in ops for t in op.terms)
            span, step = (len(grid) if varying else 1), max(1, np.getbufsize() // (4 * ops[0].dim**2))
            for i in range(0, span, step):
                points = grid[i : min(i + step, span)]
                at = np.concatenate([points, points[: len(grid) - 1 - i] + 0.5 * dt])
                slope, value = (op.evaluate_many(at, theta) for op in ops)
                magnitude = max(magnitude, largest(slope))
                scale = max(scale, magnitude, largest(value))
                defect = max(defect, largest(np.subtract(slope, value, out=slope)))
        return ThetaDependence(magnitude, defect, THETA_DEFECT_ROUNDINGS * float(np.finfo(float).eps) * scale)

    return {
        "hamiltonian": dependence([(model.H, model.dH_dtheta)]),
        "decay_rates": dependence([(rate(ch.gamma), rate(ch.dgamma_dtheta)) for ch in model.channels]),
        "lindblad_operators": dependence([(ch.A, ch.dA_dtheta) for ch in model.channels]),
    }
