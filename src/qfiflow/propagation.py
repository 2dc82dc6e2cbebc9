"""Joint fixed-step integration of rho(theta;t) and its theta-derivative.

The pair (rho, drho_dtheta) is advanced simultaneously: rho under the
generator K(t), and drho_dtheta under the product-rule derivative of K rho.
Co-evolving the derivative this way makes the mixed t/theta derivatives of
the trajectory agree by construction; :func:`fd_theta_consistency` measures
the residual disagreement against an independent central difference over
theta.

Both matrices are re-hermitized after every step.  The trace is *not*
renormalized: drift is measured and reported so integrator defects stay
visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ModelSpec,
    apply_generator,
    apply_generator_theta_derivative,
    scan_scalar_poles,
)
from .operators import (
    DEFAULT_TOLERANCES,
    DensityValidationError,
    ToleranceConfig,
    hermitize,
    min_eigenvalue,
    validate_density,
)

__all__ = [
    "Trajectory",
    "PropagationError",
    "step_rk4",
    "propagate",
    "fd_theta_consistency",
]

MAX_STEPS = 10**7


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid RK4 solution with integrator metadata and health measures.

    ``rho[k]`` and ``drho_dtheta[k]`` are the state and its theta-derivative
    at ``grid[k]``; both stacks have shape ``(len(grid), d, d)``.
    """

    model: ModelSpec
    theta: float
    grid: np.ndarray
    rho: np.ndarray
    drho_dtheta: np.ndarray
    dt: float
    tolerances: ToleranceConfig
    max_trace_drift: float
    min_eigenvalue: float


class PropagationError(RuntimeError):
    """Integration aborted; carries the failure time and the triggering diagnostic."""

    def __init__(self, message: str, t: float, cause: Exception | None = None):
        super().__init__(message)
        self.t = t
        self.cause = cause


def _pair_rhs(model: ModelSpec, theta: float, t: float, rho, sigma):
    return (
        apply_generator(model, theta, t, rho),
        apply_generator_theta_derivative(model, theta, t, rho, sigma),
    )


def step_rk4(
    model: ModelSpec,
    theta: float,
    t: float,
    rho: np.ndarray,
    drho_dtheta: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One classical fourth-order Runge-Kutta step of the coupled pair from t to t + dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    sig = drho_dtheta
    k1r, k1s = _pair_rhs(model, theta, t, rho, sig)
    k2r, k2s = _pair_rhs(model, theta, t + 0.5 * dt, rho + 0.5 * dt * k1r, sig + 0.5 * dt * k1s)
    k3r, k3s = _pair_rhs(model, theta, t + 0.5 * dt, rho + 0.5 * dt * k2r, sig + 0.5 * dt * k2s)
    k4r, k4s = _pair_rhs(model, theta, t + dt, rho + dt * k3r, sig + dt * k3s)
    rho_next = hermitize(rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r))
    sig_next = hermitize(sig + (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s))
    return rho_next, sig_next


def propagate(
    model: ModelSpec,
    theta: float,
    t_end: float = 5.0,
    dt: float = 1e-3,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> Trajectory:
    """Integrate from t=0 to t_end on the uniform grid t_k = k*dt.

    The initial derivative comes from the initial-state family's analytic
    theta-derivative.  Every stored rho must pass density validation at the
    run tolerances; a violation aborts with the offending time stamp.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        n_steps = 1
    if n_steps > MAX_STEPS:
        raise ValueError(f"{n_steps} steps exceed the limit of {MAX_STEPS}")
    grid = np.arange(n_steps + 1) * dt
    for ch in model.channels:
        scan_scalar_poles(ch.gamma, grid)
    rho = np.empty((n_steps + 1, model.dim, model.dim), dtype=complex)
    sig = np.empty_like(rho)
    rho[0] = model.rho0_family.rho0(theta)
    sig[0] = model.rho0_family.drho0_dtheta(theta)
    times = grid.tolist()
    for k, t in enumerate(times):
        if k > 0:
            rho[k], sig[k] = step_rk4(model, theta, times[k - 1], rho[k - 1], sig[k - 1], dt)
        try:
            validate_density(rho[k], tol)
        except DensityValidationError as exc:
            raise PropagationError(f"state invalid at t={t!r}: {exc}", t, exc) from exc
    # step_rk4 returns exactly Hermitian matrices, which hermitize leaves
    # unchanged, so only the initial state needs it; this avoids a stack copy.
    lam_min = min(min_eigenvalue(rho[0]), float(np.min(np.linalg.eigvalsh(rho[1:])[:, 0])))
    return Trajectory(
        model=model,
        theta=theta,
        grid=grid,
        rho=rho,
        drho_dtheta=sig,
        dt=dt,
        tolerances=tol,
        max_trace_drift=float(np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0))),
        min_eigenvalue=lam_min,
    )


def fd_theta_consistency(traj: Trajectory, delta_theta: float = 1e-4) -> float:
    """Compare a trajectory's co-evolved derivative against a central difference in theta.

    Propagates at theta +/- delta_theta on the trajectory's grid, step and
    tolerances, and returns the maximum entrywise deviation over the whole
    grid between traj.drho_dtheta and [rho(theta+d) - rho(theta-d)] / (2d).
    """
    if delta_theta <= 0.0:
        raise ValueError(f"delta_theta must be positive, got {delta_theta!r}")
    t_end = float(traj.grid[-1])
    plus = propagate(traj.model, traj.theta + delta_theta, t_end, traj.dt, traj.tolerances)
    minus = propagate(traj.model, traj.theta - delta_theta, t_end, traj.dt, traj.tolerances)
    fd = (plus.rho - minus.rho) / (2.0 * delta_theta)
    return float(np.max(np.abs(traj.drho_dtheta - fd)))
