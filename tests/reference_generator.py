"""Per-point model evaluation and hand-written generator loops: the references
for the library's stacked evaluators and its compiled generator.

``scalar`` and ``evaluate`` give a scalar form or an operator at one (theta, t)
with the math and cmath functions, the way the library evaluated them
before ``scalar_values`` and ``evaluate_many`` became its only forms;
``scan_poles`` and ``probe_theta_dependence`` are the pole scan and the
theta probe built on them, point by point.  The generator loops evaluate
every operator at (theta, t) and apply K and the product rule for
d/dtheta (K rho) term by term, the way the library did before the
generator was compiled into scalar coefficients on constant matrices.

``apply_generator``, ``apply_generator_theta_derivative`` and ``step_rk4``
are thin wrappers over the compiled generator for one state at one time,
which the tests use to probe it point by point.  ``step_map_chain`` is the
per-step recurrence that advanced the step-map path's coordinates before the
chunked prefix products did.
"""

import math

import numpy as np

from qfiflow.model import (
    ConstantScalar,
    JcLorentzianScalar,
    ModelSpec,
    ScalarPoleError,
    SinusoidalScalar,
    ThetaDependence,
    ThetaScaledScalar,
    compile_generator,
    scalar_is_zero,
)
from qfiflow.operators import DimensionMismatchError, commutator, dagger
from qfiflow.propagation import _rk4_step


def jc_pieces(s: JcLorentzianScalar, t: float, dtype=np.clongdouble) -> tuple[complex, complex]:
    """Half t sinhc(d t/2) and the pole-free denominator of the lorentzian rate at t,
    unscaled, in ``dtype``.  In the default extended precision (``np.clongdouble``)
    sinh and cosh overflow only past |d t/2| = 11356 (cosh(5000) is 1.48e2171);
    ``complex`` is the float64 evaluation, overflowing past 710.5.  An overflow
    raises FloatingPointError."""
    real = np.finfo(dtype).dtype.type
    lam = real(s.lam)
    d = np.sqrt(dtype(lam * lam - 2 * real(s.gamma0) * lam))
    z = d * real(t) / 2
    with np.errstate(over="raise"):
        # sinh(z)/z, series near z=0 so the critically-damped point lam = 2*gamma0 stays finite
        sinhc = 1 + z * z / 6 if abs(z) < 1e-8 else np.sinh(z) / z
        half_t_sinhc = real(t) / 2 * sinhc
        return half_t_sinhc, np.cosh(z) + lam * half_t_sinhc


def jc_denominator(s: JcLorentzianScalar, t: float, dtype=np.clongdouble) -> float:
    """Pole-free normal form of the denominator; real for real parameters and
    vanishing exactly at the true poles of the rate."""
    return jc_pieces(s, t, dtype)[1].real


def scalar(s, t: float, theta: float = 0.0, dtype=np.clongdouble) -> float:
    """The scalar form s at (theta, t); a lorentzian rate evaluated in ``dtype``."""
    if isinstance(s, ConstantScalar):
        return s.c
    if isinstance(s, SinusoidalScalar):
        return s.c0 * (1.0 + s.a * math.sin(s.omega * t + s.phi))
    if isinstance(s, ThetaScaledScalar):
        return theta * scalar(s.base, t, dtype=dtype)
    half_t_sinhc, den = jc_pieces(s, t, dtype)
    if abs(den) < 1e-9:
        raise ScalarPoleError(f"lorentzian rate denominator |{float(abs(den)):.3e}| < 1e-9 at t={t!r}", t)
    return float((2 * s.gamma0 * s.lam * half_t_sinhc / den).real)


def evaluate(op, t: float, theta: float = 0.0) -> np.ndarray:
    """The operator op at (theta, t): its terms summed in order from zero."""
    out = np.zeros((op.dim, op.dim), dtype=complex)
    for term in op.terms:
        out += scalar(term.modulation, t, theta) * term.base
    return out


def scan_poles(s, times) -> None:
    """Point by point: raise at the first time where a lorentzian rate's denominator
    is below 1e-9 or has changed sign since the previous time."""
    if isinstance(s, ThetaScaledScalar):
        s = s.base
    if not isinstance(s, JcLorentzianScalar):
        return
    prev = None
    for t in np.asarray(times, dtype=float).tolist():
        den = jc_denominator(s, t)
        if abs(den) < 1e-9 or (prev is not None and den * prev < 0.0):
            raise ScalarPoleError(f"run interval contains a pole of the lorentzian rate near t={t!r}", t)
        prev = den


def probe_theta_dependence(model: ModelSpec, theta: float, times, delta: float = 1e-4) -> dict:
    """Central differences in theta of H, every gamma_i and every A_i, one time at a
    time, against the declared derivatives; channels aggregated by maximum."""
    h_mag = h_defect = g_mag = g_defect = a_mag = a_defect = 0.0
    for t in times:
        fd = (evaluate(model.H, t, theta + delta) - evaluate(model.H, t, theta - delta)) / (2.0 * delta)
        h_mag = max(h_mag, float(np.max(np.abs(fd))))
        h_defect = max(h_defect, float(np.max(np.abs(fd - evaluate(model.dH_dtheta, t, theta)))))
    for ch in model.channels:
        for t in times:
            fd_g = (scalar(ch.gamma, t, theta + delta) - scalar(ch.gamma, t, theta - delta)) / (2.0 * delta)
            g_mag = max(g_mag, abs(fd_g))
            g_defect = max(g_defect, abs(fd_g - scalar(ch.dgamma_dtheta, t, theta)))
            fd_a = (evaluate(ch.A, t, theta + delta) - evaluate(ch.A, t, theta - delta)) / (2.0 * delta)
            a_mag = max(a_mag, float(np.max(np.abs(fd_a))))
            a_defect = max(a_defect, float(np.max(np.abs(fd_a - evaluate(ch.dA_dtheta, t, theta)))))
    return {
        "hamiltonian": ThetaDependence(h_mag, model.dH_dtheta.is_zero, h_defect),
        "decay_rates": ThetaDependence(
            g_mag, all(scalar_is_zero(ch.dgamma_dtheta) for ch in model.channels), g_defect
        ),
        "lindblad_operators": ThetaDependence(
            a_mag, all(ch.dA_dtheta.is_zero for ch in model.channels), a_defect
        ),
    }


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = ab + ba."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b + b @ a


def _check_state_dim(model: ModelSpec, rho: np.ndarray) -> None:
    if rho.shape != (model.dim, model.dim):
        raise DimensionMismatchError(
            f"state has shape {rho.shape}, model dimension is {model.dim}"
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


def step_rk4(
    model: ModelSpec,
    theta: float,
    t: float,
    rho: np.ndarray,
    drho_dtheta: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One classical fourth-order Runge-Kutta step of the coupled pair from t to t + dt.

    The step acts on the matrices and re-hermitizes, as ``propagate`` does
    where step maps in real coordinates do not fit the byte budget; on the
    step-map path the same step differs from this one by rounding.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    gen = compile_generator(model)
    t0, *ops = gen.operators([t, t + 0.5 * dt, t + dt], (theta,))
    x = np.stack([rho, drho_dtheta])
    rho_next, sig_next = _rk4_step(gen.act, ops, x, gen.act(t0, x), dt)
    return rho_next, sig_next


def step_map_chain(increments: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The states c_1, ..., c_B of c_(j+1) = c_j + N_j c_j from c_0 = c, one
    matrix-vector product per step, in the precision of the inputs."""
    cs = np.empty((len(increments), len(c)), dtype=np.result_type(increments, c))
    for j, n in enumerate(increments):
        # c + N c rather than (I + N) c: the identity would round N's diagonal to ulp(1)
        c = cs[j] = c + n @ c
    return cs


def reference_generator(model, theta, t, rho):
    """K(t) rho = -i[H, rho] + sum_i gamma_i (A_i rho A_i† - 1/2 {A_i†A_i, rho})."""
    rho = np.asarray(rho, dtype=complex)
    H = evaluate(model.H, t, theta)
    out = -1j * commutator(H, rho)
    for ch in model.channels:
        g = scalar(ch.gamma, t, theta)
        A = evaluate(ch.A, t, theta)
        Ad = dagger(A)
        AdA = Ad @ A
        out += g * (A @ rho @ Ad - 0.5 * anticommutator(AdA, rho))
    return out


def reference_generator_theta_derivative(model, theta, t, rho, drho_dtheta):
    """Product-rule derivative of K rho in theta from the declared derivative fields.

    -i[dH, rho] - i[H, drho] plus, per channel, the dgamma term on the plain
    dissipator and the gamma term with A and rho derivatives distributed.
    """
    rho = np.asarray(rho, dtype=complex)
    sig = np.asarray(drho_dtheta, dtype=complex)
    H = evaluate(model.H, t, theta)
    out = -1j * commutator(H, sig)
    if not model.dH_dtheta.is_zero:
        out = out - 1j * commutator(evaluate(model.dH_dtheta, t, theta), rho)
    for ch in model.channels:
        g = scalar(ch.gamma, t, theta)
        A = evaluate(ch.A, t, theta)
        Ad = dagger(A)
        AdA = Ad @ A
        dg = scalar(ch.dgamma_dtheta, t, theta)
        if dg != 0.0:
            out += dg * (A @ rho @ Ad - 0.5 * anticommutator(AdA, rho))
        out += g * (A @ sig @ Ad - 0.5 * anticommutator(AdA, sig))
        if not ch.dA_dtheta.is_zero:
            dA = evaluate(ch.dA_dtheta, t, theta)
            dAd = dagger(dA)
            dAdA = dAd @ A + Ad @ dA
            out += g * (dA @ rho @ Ad + A @ rho @ dAd - 0.5 * anticommutator(dAdA, rho))
    return out
