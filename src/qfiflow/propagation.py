"""Joint fixed-step integration of rho(theta;t) and its theta-derivative, streamed.

Classical RK4 advances a stack of states under the compiled generator.
:func:`propagate` evolves the pair (rho, drho_dtheta) under the
block-triangular [[K, 0], [dK/dtheta, K]], so the mixed t/theta derivatives
of the trajectory agree by construction, and forms the QFI flow in the same
pass.  Given ``delta_theta``, a second stack, rho(theta +/- delta) under K,
is drained beside it, and its central difference is compared with the
co-evolved derivative where both have reached.  No run keeps more states
than one block of each stack.

One generator over blocks of steps, :func:`_integrate`, drives both stacks.
It evaluates the generator's distinct blocks (K, and dK/dtheta where theta enters it; see
:class:`~qfiflow.model.CompiledGenerator`) once per time of a block's half grid
t_k + dt/2, t_(k+1) (t_k's carried over); a path only advances the stack.
The equation is linear, so one RK4 step is a fixed real matrix in real
Hermitian coordinates (per member: the diagonal, then the real parts of the
upper triangle, then its imaginary parts), one per distinct generator, whose
members are its columns: rho and drho_dtheta unless a dK/dtheta block couples
them, theta +/- delta unless theta enters K.  Where the unit map (from one
theta's operators at one time to its matrix in these coordinates, read whole
from the generator's ``act``) and one block of step maps fit
``COEFFICIENT_BYTES``, one product with it gives S(t) a batch of steps at a
time, batched matrix products give the step maps, chunked prefix products
advance the coordinates with no loop over steps, and the rebuilt states are
exactly Hermitian.  Otherwise (large d) RK4 steps act on the matrices
themselves and re-hermitize after every step.
Sizes alone choose each stack's path (:func:`_block_steps`); the two agree to rounding.
Each state's derivative is formed once: S(t) c, or its step's first RK4 stage.

Every state passes a stacked density gate per block, whose first failing
state is reported with its time: ``density_eigh``, whose eigendecomposition
the flow's SLD and QFI reuse, or for theta +/- delta ``validate_density``.
The trace is *not* renormalized: drift is measured and reported so integrator
defects stay visible.  A grid of fewer than 3 points, of no finite size, or
whose two ``(N + 1, d, d)`` stacks of states would exceed
``TRAJECTORY_BYTES`` (:func:`grid_steps`) is rejected before anything is
allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .flow import FlowTable, flow_block, flow_table
from .model import CompiledGenerator, ModelSpec, compile_generator
from .operators import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    density_eigh,
    hermitize,
    validate_density,
)

__all__ = [
    "DEFAULT_DELTA_THETA",
    "Trajectory",
    "PropagationError",
    "propagate",
]

# Bytes two (N + 1, d, d) complex stacks of states of a run may take; a
# longer or larger run is rejected before anything is allocated.
TRAJECTORY_BYTES = 2**30
# Bytes of generator operators evaluated ahead at once: bounds their storage
# independently of the run length.
COEFFICIENT_BYTES = 2**20


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid RK4 run with integrator metadata and health measures: ``flow``
    is the QFI flow at every grid point, and ``theta_consistency`` the largest
    entrywise deviation of drho_dtheta from the central difference in theta
    (None unless the run was given ``delta_theta``)."""

    model: ModelSpec
    theta: float
    grid: np.ndarray
    dt: float
    tolerances: ToleranceConfig
    max_trace_drift: float
    min_eigenvalue: float
    flow: FlowTable
    theta_consistency: float | None


class PropagationError(RuntimeError):
    """Integration aborted; carries the failure time and the triggering diagnostic."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


def _rk4_step(act, ops: np.ndarray, x: np.ndarray, k1: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of the stack x from its derivative k1 at t_k; ops holds
    the generator at t_k + dt/2 and t_(k+1)."""
    k2 = act(ops[0], x + 0.5 * dt * k1)
    k3 = act(ops[0], x + 0.5 * dt * k2)
    k4 = act(ops[1], x + dt * k3)
    return hermitize(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


@cache
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


def _half_grid(t: np.ndarray, dt: float) -> np.ndarray:
    """The midpoint t_k + dt/2 and the end t_(k+1) of each step between the grid points t."""
    return np.stack([t[:-1] + 0.5 * dt, t[1:]], axis=-1).ravel()


def _unit_maps(gen: CompiledGenerator) -> np.ndarray:
    """The real-linear map from one theta's operators at one time to its m x m matrix in
    coordinates, (w, m^2), m = k d^2 for the k members of one column (rho and drho_dtheta
    for a coupled pair, else one state): row r is ``gen.act`` on the coordinate basis of the k
    members under the r-th of the operators' w real units, so [[S_K, 0], [S_dK, S_K]]
    comes out of ``act`` whole; built in chunks of rows whose transients (per row: j jumps' sandwiches
    of m states and their copy, 16 j m^2 bytes each; T, T^H, their sum, coordinates) fit COEFFICIENT_BYTES."""
    d, w, k = gen.dim, sum(c.shape[1] for c in gen.constants), 2 if gen.derivative else 1
    m = k * d * d
    basis = _matrices(np.eye(m).reshape(m, k, d * d), d)
    units = np.eye(w).view(complex).reshape(w, 1, 1, w // (2 * d), d)
    rows = max(1, (COEFFICIENT_BYTES - 8 * w * m * m) // ((32 * len(gen.jumps) // d + 72) * m * m))
    out = np.empty((w, m * m))
    for i in range(0, w, rows):
        y = gen.act(units[i : i + rows], np.broadcast_to(basis, (min(rows, w - i), m, k, d, d)))
        out[i : i + rows] = _coordinates(y).reshape(-1, m, m).swapaxes(1, 2).reshape(-1, m * m)
    return out


def _generator_maps(ops: np.ndarray, units: np.ndarray) -> np.ndarray:
    """S(t) at every time of the stack's operators, per theta the m x m real matrix of
    its generator in coordinates, (n_times, n_thetas, m, m): one gemm gives every theta's."""
    m = math.isqrt(units.shape[1])
    return (ops.reshape(ops.shape[0] * ops.shape[1], -1).view(float) @ units).reshape(ops.shape[:2] + (m, m))


def _rk4_increments(s: np.ndarray, dt: float, out: np.ndarray) -> None:
    """RK4 increments N_j = dt/6 (A1 + 2 A2 + 2 A3 + A4), the step maps being
    M_j = I + N_j, from S on the half grid t_0, t_0 + dt/2, t_1, ..., t_n, written
    into out with two scratch stacks in the arithmetic and order of that formula."""
    a1, sh, s1 = s[:-1:2], s[1::2], s[2::2]
    a2, a3 = np.matmul(sh, a1), np.empty_like(out)
    np.add(np.multiply(a2, 0.5 * dt, out=a2), sh, out=a2)
    np.add(np.multiply(np.matmul(sh, a2, out=a3), 0.5 * dt, out=a3), sh, out=a3)
    np.add(np.multiply(a2, 2.0, out=out), a1, out=out)
    out += np.multiply(a3, 2.0, out=a2)
    out += np.add(np.multiply(np.matmul(s1, a3, out=a2), dt, out=a2), s1, out=a2)
    out *= dt / 6.0


def _chain(n: np.ndarray, c: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The states c_1, ..., c_B of c_(j+1) = c_j + N_j c_j from c_0 = c (per theta, m x cols
    coordinates), and the state after the last chunk, by chunked prefix products (Blelloch
    1990): n is overwritten, for all chunks of ``size`` steps at once, with Q_j, I + Q_j being
    the product of the step maps since j's chunk began (so the identity never rounds N); the
    chunk starts advance one chunk at a time, and every state is c_start + Q_j c_start."""
    for p in range(1, min(size, len(n))):
        q, prev = n[p::size], n[p - 1 :: size]
        q += prev[: len(q)] + q @ prev[: len(q)]
    starts = np.empty((-(-len(n) // size) + 1,) + c.shape)
    starts[0] = c
    for i in range(1, len(starts)):
        starts[i] = starts[i - 1] + n[min(i * size, len(n)) - 1] @ starts[i - 1]
    cs = np.repeat(starts[:-1], size, axis=0)[: len(n)]
    cs += n @ cs
    cs[size - 1 :: size] = starts[1 : len(n) // size + 1]  # a chunk's last state starts the next
    return cs, starts[-1]


def _block_steps(gen: CompiledGenerator, n_thetas: int) -> tuple[int, int, int]:
    """Steps per block, per batch and per chunk; batch 0 where the unit map and one
    block of step maps do not fit COEFFICIENT_BYTES, selecting RK4 on the matrices,
    whose blocks take as many steps as their half grid's operators fit.  A map block
    evaluates its operators at two half-grid times per step, then keeps them, its
    increments (n x n reals per step, n = k d^2) and its states with their
    derivatives; a batch forms S(t) and two RK4 stage products per step in an eighth
    of the budget.  A chunk is the square root of how many increments the budget
    holds, so stacks of equal n split the grid alike; blocks hold whole chunks.  The
    unit map, w x m^2 reals for w real units and m = n / n_thetas, stays through every
    block; it is built once, before the first."""
    per_time, w = gen.bytes_per_time(n_thetas), sum(c.shape[1] for c in gen.constants)
    n = (2 * n_thetas if gen.derivative else n_thetas) * gen.dim**2
    budget = COEFFICIENT_BYTES - 8 * w * (n // n_thetas) ** 2
    kept = 16 * n_thetas * w + 8 * n * n + 48 * n
    steps = min(budget // (2 * per_time), (budget - COEFFICIENT_BYTES // 8) // kept)
    batch = (COEFFICIENT_BYTES // 8 - 16 * n * n) // (48 * n * n)
    chunk = max(1, math.isqrt(COEFFICIENT_BYTES // (8 * n * n)))
    if min(steps, batch) > 0:
        return steps - steps % chunk or steps, batch, chunk
    return max(1, (COEFFICIENT_BYTES // per_time - 1) // 2), 0, 0


def _advance_maps(gen: CompiledGenerator, units: np.ndarray, batch: int, chunk: int, ops, carry: tuple, dt: float):
    """A block's states by RK4 step maps in real Hermitian coordinates, from its half-grid
    operators ops and carry, t_k's operators and the coordinates c (n_thetas, m, cols) of the
    state there, a map's members its columns: returns (xs, dots, carry), dots being S(t) c,
    which only a pair's flow reads (None without ``gen.derivative``)."""
    last, c = carry
    n = np.empty((len(ops) // 2,) + c.shape[:2] + c.shape[1:2])
    for j in range(0, len(n), batch):
        times = ops[2 * j - 1 : 2 * (j + batch)] if j else np.concatenate([last, ops[: 2 * batch]])
        _rk4_increments(_generator_maps(times, units), dt, n[j : j + batch])
    cs, c = _chain(n, c, chunk)
    del n
    shape, dots = (len(cs), -1, gen.dim**2), None
    if gen.derivative:  # S(t) c, with S at the grid times formed again a batch at a time
        dots = [
            _generator_maps(ops[2 * j + 1 : 2 * (j + batch) : 2], units) @ cs[j : j + batch]
            for j in range(0, len(cs), batch)
        ]
        dots = _matrices(np.concatenate(dots).swapaxes(-1, -2).reshape(shape), gen.dim)
    return _matrices(cs.swapaxes(-1, -2).reshape(shape), gen.dim), dots, (ops[-1:].copy(), c)


def _advance_steps(gen: CompiledGenerator, xs: np.ndarray, ops, carry: tuple, dt: float):
    """As :func:`_advance_maps`, by :func:`_rk4_step` on the matrices, into the buffer
    xs (2, steps, ...); the carry is the state before the block and its derivative,
    and ``dots[j]`` the first stage of the step that leaves ``xs[j]``."""
    x, k1 = carry
    for j in range(len(ops) // 2):
        x = xs[0, j] = _rk4_step(gen.act, ops[2 * j : 2 * j + 2], x, k1, dt)
        k1 = xs[1, j] = gen.act(ops[2 * j + 1], x)
    return *xs[:, : len(ops) // 2], (x, k1)


def _integrate(gen: CompiledGenerator, thetas: tuple, x: np.ndarray, grid: np.ndarray, dt: float, gate):
    """Advance the stack x over the grid with RK4, validating its states at every point.

    x holds (rho, drho_dtheta) for a generator compiled with its derivative,
    else one state per theta.  Per block of grid points (the first is x
    alone), ``gate`` checks the states as one ``(n, d, d)`` stack (the first
    invalid one aborts with its time stamp), then the generator yields ``(k,
    xs, dots, gated)``: ``xs[j]``, the stack at grid point k + j, its derivative
    ``dots[j]`` and what the gate returned, valid until the next block is drawn.
    Step maps (:func:`_advance_maps`) or RK4 steps (:func:`_advance_steps`)
    advance it, as :func:`_block_steps` sizes them.
    """
    states = slice(None, None, 2 if gen.derivative else 1)
    steps, batch, chunk = _block_steps(gen, len(thetas))  # as compiled, before any sharing
    if batch and not gen.theta_dependent:  # one map serves every theta
        thetas = thetas[:1]
    # Overflow leaves a non-finite state, which the gate reports with its time; the
    # consumer runs between blocks, outside this error state.
    ignore = partial(np.errstate, over="ignore", invalid="ignore")
    with ignore():
        last = gen.operators(grid[:1], thetas)
        xs, dots = x[None], gen.act(last[0], x)[None]
        if batch:  # t_k's operators and coordinates; uncoupled, rho and drho_dtheta are states under K
            units = _unit_maps(gen if len(gen.blocks) > 1 else replace(gen, derivative=False))
            advance = partial(_advance_maps, gen, units, batch, chunk)
            carry = last, _coordinates(hermitize(x)).reshape(len(thetas), -1, math.isqrt(units.shape[1])).swapaxes(1, 2)
        else:  # the state and its derivative
            advance = partial(_advance_steps, gen, np.empty((2, steps) + x.shape, dtype=complex))
            carry = x, dots[0]
    for k in (0, *range(1, len(grid), steps)):
        with ignore():
            if k:  # the first block is x alone
                ops = gen.operators(_half_grid(grid[k - 1 : k + steps], dt), thetas)
                xs, dots, carry = advance(ops, carry, dt)
                del ops  # only the block and what the next one starts from stay while it is used
            block = xs[:, states]
            try:
                gated = gate(block.reshape((-1,) + block.shape[-2:]))
            except ValueError as exc:
                t = grid[k + exc.index // block.shape[1]].item()
                raise PropagationError(f"state invalid at t={t!r}: {exc}", t) from exc
        yield k, xs, dots, gated


def grid_steps(t_end: float, dt: float, dim: int) -> int:
    """Steps of the grid t_k = k dt up to t_end; ValueError if not finite, under the 3 points
    the stencil needs, or over ``TRAJECTORY_BYTES`` for the two stacks of states of dimension dim."""
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"the grid needs a finite number of steps (t_end / dt = {ratio})")
    if ratio < 1.5:
        raise ValueError(f"the grid needs at least 3 points, so t_end >= 1.5 dt (t_end / dt = {ratio:.6g})")
    points = int(round(ratio)) + 1
    nbytes = 2 * points * dim**2 * np.dtype(complex).itemsize
    if nbytes > TRAJECTORY_BYTES:
        raise ValueError(f"{points} states of dimension {dim} need {nbytes} bytes, over the budget of {TRAJECTORY_BYTES}")
    return points - 1


def propagate(
    model: ModelSpec,
    theta: float,
    t_end: float = 5.0,
    dt: float = 1e-3,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    delta_theta: float | None = None,
) -> Trajectory:
    """Integrate from t=0 to t_end on the uniform grid t_k = k*dt, with the QFI flow.

    The initial derivative comes from the initial-state family's analytic
    theta-derivative.  Every rho must pass density validation at the run
    tolerances; a violation (including a non-finite state) aborts with the
    offending time stamp.  Each block of validated states then goes through
    :func:`~qfiflow.flow.flow_block`.  Given delta_theta, rho at theta +/-
    delta_theta evolves beside the pair in one stack, validated alike, and
    ``theta_consistency`` is the largest entrywise deviation between
    drho_dtheta and [rho(theta+d) - rho(theta-d)] / (2d) over the grid; that
    stack's failure is raised once the pair has finished without one.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if delta_theta is not None and delta_theta <= 0.0:
        raise ValueError(f"delta_theta must be positive, got {delta_theta!r}")
    grid = np.arange(grid_steps(t_end, dt, model.dim) + 1) * dt
    family = model.rho0_family
    x = np.stack([family.rho0(theta), family.drho0_dtheta(theta)])
    pairs = _integrate(compile_generator(model), (theta,), x, grid, dt, partial(density_eigh, tol=tol))
    lams, flows, drift = [], [], 0.0
    fds, fd, done, deviation, held = None, (), 0, None, None  # fd: central differences from point done on
    if delta_theta is not None:
        thetas = (theta + delta_theta, theta - delta_theta)
        x = np.stack([family.rho0(t) for t in thetas])
        gate = partial(validate_density, tol=tol)
        stack = _integrate(compile_generator(model, derivative=False), thetas, x, grid, dt, gate)
        fds, deviation = ((ys[:, 0] - ys[:, 1]) / (2.0 * delta_theta) for _, ys, _, _ in stack), 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # as for the states: overflow shows in values
        for k, xs, dots, eig in pairs:
            end = k + len(xs)
            lams.append(eig[0][:, 0].min())
            drift = max(drift, float(np.max(np.abs(np.trace(xs[:, 0], axis1=1, axis2=2) - 1.0))))
            flows.append(flow_block(model, theta, grid[k:end], xs, dots, eig, tol))
            while fds is not None and done < end:  # compare up to end, drawing theta blocks
                if not len(fd):
                    try:
                        fd = next(fds)
                    except Exception as exc:  # a state or a pole alike: raised if the pair finishes
                        held, fds = exc, None
                        break
                n = min(len(fd), end - done)
                deviation = max(deviation, float(np.max(np.abs(xs[done - k : done - k + n, 1] - fd[:n]))))
                fd, done = fd[n:], done + n
    if held is not None:
        raise held
    return Trajectory(
        model=model, theta=theta, grid=grid, dt=dt, tolerances=tol, max_trace_drift=drift,
        min_eigenvalue=float(min(lams)), flow=flow_table(model, grid, dt, flows), theta_consistency=deviation,
    )


# Step of the theta check, the one central difference in theta.
DEFAULT_DELTA_THETA = 1e-4
