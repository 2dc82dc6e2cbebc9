"""Hand-written generator loops: the reference for the compiled generator.

These evaluate every operator at (theta, t) and apply K and the product
rule for d/dtheta (K rho) term by term, the way the library did before the
generator was compiled into scalar coefficients on constant matrices.

``apply_generator``, ``apply_generator_theta_derivative`` and ``step_rk4``
are thin wrappers over the compiled generator for one state at one time,
which the tests use to probe it point by point.
"""

import numpy as np

from qfiflow.model import ModelSpec, compile_generator
from qfiflow.operators import DimensionMismatchError, commutator, dagger
from qfiflow.propagation import _rk4_step


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


def reference_generator(model, theta, t, rho):
    """K(t) rho = -i[H, rho] + sum_i gamma_i (A_i rho A_i† - 1/2 {A_i†A_i, rho})."""
    rho = np.asarray(rho, dtype=complex)
    H = model.H.evaluate(t, theta)
    out = -1j * commutator(H, rho)
    for ch in model.channels:
        g = ch.gamma(t, theta)
        A = ch.A.evaluate(t, theta)
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
    H = model.H.evaluate(t, theta)
    out = -1j * commutator(H, sig)
    if not model.dH_dtheta.is_zero:
        out = out - 1j * commutator(model.dH_dtheta.evaluate(t, theta), rho)
    for ch in model.channels:
        g = ch.gamma(t, theta)
        A = ch.A.evaluate(t, theta)
        Ad = dagger(A)
        AdA = Ad @ A
        dg = ch.dgamma_dtheta(t, theta)
        if dg != 0.0:
            out += dg * (A @ rho @ Ad - 0.5 * anticommutator(AdA, rho))
        out += g * (A @ sig @ Ad - 0.5 * anticommutator(AdA, sig))
        if not ch.dA_dtheta.is_zero:
            dA = ch.dA_dtheta.evaluate(t, theta)
            dAd = dagger(dA)
            dAdA = dAd @ A + Ad @ dA
            out += g * (dA @ rho @ Ad + A @ rho @ dAd - 0.5 * anticommutator(dAdA, rho))
    return out
