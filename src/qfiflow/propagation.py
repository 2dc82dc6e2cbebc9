"""Joint fixed-step integration of rho(theta;t) and its theta-derivative.

One classical RK4 loop advances a stack of states under the compiled
generator.  :func:`propagate` evolves the pair (rho, drho_dtheta) under the
block-triangular [[K, 0], [dK/dtheta, K]], so the mixed t/theta derivatives
of the trajectory agree by construction; :func:`fd_theta_consistency`
measures the residual disagreement against an independent central
difference over theta, evolving rho(theta + delta) and rho(theta - delta)
together in one pass.

Every density matrix in the stack passes validation at every grid point:
steps run in blocks, and each block's states go through one stacked
``validate_density`` call, whose first failing state is reported with its
time.  All matrices are re-hermitized after every step.  The trace is
*not* renormalized: drift is measured and reported so integrator defects
stay visible.  A trajectory whose two ``(N + 1, d, d)`` stacks would exceed
``TRAJECTORY_BYTES`` is rejected before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CompiledGenerator,
    ModelSpec,
    compile_generator,
    scan_scalar_poles,
)
from .operators import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    hermitize,
    validate_density,
)

__all__ = [
    "Trajectory",
    "PropagationError",
    "step_rk4",
    "propagate",
    "fd_theta_consistency",
]

# Bytes the two (N + 1, d, d) complex stacks of a trajectory may take; a
# longer or larger run is rejected before anything is allocated.
TRAJECTORY_BYTES = 2**30


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


def _rk4_step(act, ops: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of the stack x; ops holds the generator at t, t + dt/2, t + dt."""
    k1 = act(ops[0], x)
    k2 = act(ops[1], x + 0.5 * dt * k1)
    k3 = act(ops[1], x + 0.5 * dt * k2)
    k4 = act(ops[2], x + dt * k3)
    return hermitize(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


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
    gen = compile_generator(model)
    ops = gen.operators([t, t + 0.5 * dt, t + dt], (theta,))
    rho_next, sig_next = _rk4_step(gen.act, ops, np.stack([rho, drho_dtheta]), dt)
    return rho_next, sig_next


def _validated(xs: np.ndarray, times: list[float], states: slice, tol: ToleranceConfig) -> float:
    """Smallest eigenvalue of the states of a block of stacks xs, ``xs[j]`` at
    ``times[j]``, in one gate; the first invalid (or non-finite) state aborts
    with its time stamp."""
    block = xs[:, states]
    try:
        return validate_density(block.reshape((-1,) + block.shape[-2:]), tol)
    except ValueError as exc:
        t = times[exc.index // block.shape[1]]
        raise PropagationError(f"state invalid at t={t!r}: {exc}", t, exc) from exc


def _integrate(
    gen: CompiledGenerator,
    thetas: tuple[float, ...],
    x: np.ndarray,
    grid: np.ndarray,
    dt: float,
    tol: ToleranceConfig,
    visit,
) -> float:
    """Advance the stack x over the grid with RK4, validating its states at every point.

    x holds (rho, drho_dtheta) for a generator compiled with its derivative,
    else one state per theta.  Steps run in blocks: a block's stacks are
    validated together, then ``visit(k, xs)`` sees them, ``xs[j]`` being the
    stack at grid point k + j.  Returns the smallest eigenvalue of the
    validated states.
    """
    states = slice(None, None, 2 if gen.derivative else 1)
    times = grid.tolist()
    lam_min = _validated(x[None], times, states, tol)
    visit(0, x[None])
    block = max(1, gen.times_per_block(len(thetas)) // 3)
    xs = np.empty((block,) + x.shape, dtype=complex)
    # Overflow leaves a non-finite state, which the gate reports with its time.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(times) - 1, block):
            t = grid[start : min(start + block, len(times) - 1)]
            ops = gen.operators(np.stack([t, t + 0.5 * dt, t + dt], axis=1), thetas)
            for j in range(len(t)):
                x = xs[j] = _rk4_step(gen.act, ops[j], x, dt)
            k = start + 1
            lam_min = min(lam_min, _validated(xs[: len(t)], times[k : k + len(t)], states, tol))
            visit(k, xs[: len(t)])
    return lam_min


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
    run tolerances; a violation (including a non-finite state) aborts with
    the offending time stamp.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        n_steps = 1
    nbytes = 2 * (n_steps + 1) * model.dim**2 * np.dtype(complex).itemsize
    if nbytes > TRAJECTORY_BYTES:
        raise ValueError(
            f"{n_steps + 1} states of dimension {model.dim} need {nbytes} bytes, "
            f"over the budget of {TRAJECTORY_BYTES}"
        )
    grid = np.arange(n_steps + 1) * dt
    for ch in model.channels:
        scan_scalar_poles(ch.gamma, grid)
    rho = np.empty((n_steps + 1, model.dim, model.dim), dtype=complex)
    sig = np.empty_like(rho)
    x = np.stack([model.rho0_family.rho0(theta), model.rho0_family.drho0_dtheta(theta)])

    def store(k, xs):
        rho[k : k + len(xs)] = xs[:, 0]
        sig[k : k + len(xs)] = xs[:, 1]

    lam_min = _integrate(compile_generator(model), (theta,), x, grid, dt, tol, store)
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

    Evolves rho at theta +/- delta_theta together, in one pass on the
    trajectory's grid, step and tolerances, validating both states at every
    point, and returns the maximum entrywise deviation over the whole grid
    between traj.drho_dtheta and [rho(theta+d) - rho(theta-d)] / (2d).
    """
    if delta_theta <= 0.0:
        raise ValueError(f"delta_theta must be positive, got {delta_theta!r}")
    thetas = (traj.theta + delta_theta, traj.theta - delta_theta)
    x = np.stack([traj.model.rho0_family.rho0(theta) for theta in thetas])
    deviation = 0.0

    def compare(k, xs):
        nonlocal deviation
        fd = (xs[:, 0] - xs[:, 1]) / (2.0 * delta_theta)
        deviation = max(deviation, float(np.max(np.abs(traj.drho_dtheta[k : k + len(xs)] - fd))))

    gen = compile_generator(traj.model, derivative=False)
    _integrate(gen, thetas, x, traj.grid, traj.dt, traj.tolerances, compare)
    return deviation
