"""Joint fixed-step integration of rho(theta;t) and its theta-derivative.

Classical RK4 advances a stack of states under the compiled generator.
:func:`propagate` evolves the pair (rho, drho_dtheta) under the
block-triangular [[K, 0], [dK/dtheta, K]], so the mixed t/theta derivatives
of the trajectory agree by construction; :func:`fd_theta_consistency`
measures the residual disagreement against an independent central
difference over theta, evolving rho(theta + delta) and rho(theta - delta)
together in one pass.

The equation is linear, so one RK4 step is a fixed real matrix in real
Hermitian coordinates (per member: the diagonal, then the real parts of the
upper triangle, then its imaginary parts).  Where the unit map (from the
compiled operators at one time to the generator S(t) in these coordinates)
and one block of step maps fit ``COEFFICIENT_BYTES``, a block's maps come
from batched matrix products on the half grid t_k, t_k + dt/2, t_(k+1), a
chain of matrix-vector products advances the coordinates, and the states
rebuilt from them are exactly Hermitian.  Otherwise (large d) RK4 steps act
on the matrices themselves and re-hermitize after every step.  The choice
depends on sizes alone; the two paths agree to rounding.

Every density matrix in the stack passes validation at every grid point:
steps run in blocks, and each block's states go through one stacked
``validate_density`` call, whose first failing state is reported with its
time.  The trace is *not* renormalized: drift is measured and reported so
integrator defects stay visible.  A trajectory whose two ``(N + 1, d, d)``
stacks would exceed ``TRAJECTORY_BYTES`` is rejected before anything is
allocated.
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
    """One classical fourth-order Runge-Kutta step of the coupled pair from t to t + dt.

    The step acts on the matrices and re-hermitizes, as :func:`propagate`
    does where step maps in real coordinates do not fit the byte budget;
    on the step-map path the same step differs from this one by rounding.
    """
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


def _hermitian_positions(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions of the diagonal, the upper and the lower triangle of a d x d matrix."""
    i, j = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), i * d + j, j * d + i


def _coordinates(x: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices (..., d, d): the diagonal, then the
    real parts of the upper triangle, then its imaginary parts."""
    d = x.shape[-1]
    diag, upper, _ = _hermitian_positions(d)
    flat = x.reshape(x.shape[:-2] + (d * d,))
    return np.concatenate([flat.real[..., diag], flat.real[..., upper], flat.imag[..., upper]], axis=-1)


def _matrices(c: np.ndarray, d: int) -> np.ndarray:
    """The matrices (..., d, d) with real coordinates c (..., d*d); exactly Hermitian."""
    diag, upper, lower = _hermitian_positions(d)
    re, im = np.split(c[..., d:], 2, axis=-1)
    x = np.zeros(c.shape[:-1] + (d * d,), dtype=complex)
    x.real[..., diag] = c[..., :d]
    x.real[..., upper] = re
    x.real[..., lower] = re
    x.imag[..., upper] = im
    x.imag[..., lower] = -im
    return x.reshape(c.shape[:-1] + (d, d))


def _unit_map(gen: CompiledGenerator) -> np.ndarray:
    """The real-linear map from one (output, input) member block of the generator's
    operators to its d^2 x d^2 block of S, shape (2 m d^2, d^4).

    Row r is ``gen.act`` on the r-th real unit of the operator block (the real,
    then the imaginary part of each entry), applied to the Hermitian basis
    whose coordinates are unit vectors.
    """
    d, rows = gen.dim, len(gen.jumps)
    units = np.eye(2 * rows * d).view(complex).reshape(-1, 1, rows, d)
    out = gen.act(units, _matrices(np.eye(d * d), d)[:, None, None])
    return _coordinates(out[:, :, 0]).transpose(1, 2, 0).reshape(len(units), d**4)


def _generator_maps(ops: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """S(t) at every time of the stack's operators: the k d^2 x k d^2 real matrix
    of the generator in coordinates, one gemm over all member blocks."""
    n_times, k = ops.shape[:2]
    dd = ops.shape[-1] ** 2
    s = ops.reshape(n_times * k * k, -1).view(float) @ unit
    return s.reshape(n_times, k, k, dd, dd).transpose(0, 1, 3, 2, 4).reshape(n_times, k * dd, k * dd)


def _rk4_increments(s: np.ndarray, dt: float) -> np.ndarray:
    """RK4 increments N_j = dt/6 (A1 + 2 A2 + 2 A3 + A4), the step maps being
    M_j = I + N_j, from S on the half grid t_0, t_0 + dt/2, t_1, ..., t_n."""
    a1, sh, s1 = s[:-1:2], s[1::2], s[2::2]
    a2 = sh + (0.5 * dt) * (sh @ a1)
    a3 = sh + (0.5 * dt) * (sh @ a2)
    a4 = s1 + dt * (s1 @ a3)
    return (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)


def _map_blocks(gen: CompiledGenerator, thetas: tuple[float, ...], x: np.ndarray, grid: np.ndarray, dt: float):
    """Blocks of the stack x advanced by RK4 step maps in real Hermitian coordinates:
    yields (k, xs), ``xs[j]`` being the stack at grid point k + j."""
    unit = _unit_map(gen)
    block = gen.map_steps_per_block(len(thetas))
    c = _coordinates(hermitize(x)).ravel()
    for start in range(0, len(grid) - 1, block):
        t = grid[start : start + block + 1]
        half = np.empty(2 * len(t) - 1)
        half[0::2] = t
        half[1::2] = t[:-1] + 0.5 * dt
        increments = _rk4_increments(_generator_maps(gen.operators(half, thetas), unit), dt)
        cs = np.empty((len(increments), len(c)))
        # c + N c rather than (I + N) c: the identity would round N's diagonal to ulp(1)
        for j, n in enumerate(increments):
            c = cs[j] = c + n @ c
        yield start + 1, _matrices(cs.reshape((len(cs),) + x.shape[:-2] + (-1,)), gen.dim)


def _stacked_blocks(gen: CompiledGenerator, thetas: tuple[float, ...], x: np.ndarray, grid: np.ndarray, dt: float):
    """Blocks of the stack x advanced by :func:`_rk4_step` on the matrices themselves;
    yields (k, xs) as :func:`_map_blocks` does.

    A block of ``times_per_block`` steps goes through the gate at once; within
    it, the operators at the three stage times of a step are evaluated for a
    third of that many steps at a time, which fits ``COEFFICIENT_BYTES``.
    """
    block = gen.times_per_block(len(thetas))
    steps = max(1, block // 3)
    xs = np.empty((block,) + x.shape, dtype=complex)
    for start in range(0, len(grid) - 1, block):
        stop = min(start + block, len(grid) - 1)
        for first in range(start, stop, steps):
            t = grid[first : min(first + steps, stop)]
            ops = gen.operators(np.stack([t, t + 0.5 * dt, t + dt], axis=1), thetas)
            for j in range(len(t)):
                x = xs[first - start + j] = _rk4_step(gen.act, ops[j], x, dt)
        yield start + 1, xs[: stop - start]


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
    stack at grid point k + j.  Step maps in real coordinates advance the
    stack when the unit map and one block of them fit ``COEFFICIENT_BYTES``,
    else RK4 steps on the matrices.  Returns the smallest eigenvalue of the
    validated states.
    """
    states = slice(None, None, 2 if gen.derivative else 1)
    times = grid.tolist()
    lam_min = _validated(x[None], times, states, tol)
    visit(0, x[None])
    blocks = _map_blocks if gen.map_steps_per_block(len(thetas)) else _stacked_blocks
    # Overflow leaves a non-finite state, which the gate reports with its time.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, xs in blocks(gen, thetas, x, grid, dt):
            lam_min = min(lam_min, _validated(xs, times[k : k + len(xs)], states, tol))
            visit(k, xs)
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
