"""QFI flow, per-channel decomposition, and non-Markovianity classification.

The full flow at a grid point is Tr{L [2 d/dt(drho_dtheta) - L drho/dt]}
with both time derivatives taken from the generator, so it includes every
contribution: the channel subflows gamma_i * J_i, the Hamiltonian-derivative
term, and the lumped remainder produced by theta-dependent rates or Lindblad
operators.  The remainder is reported as a residual rather than expanded in
closed form; an independent finite-difference derivative of the QFI series
validates the whole assembly.

Sign convention: J_i = -Tr{rho [L,A_i]† [L,A_i]} is nonpositive for any
valid state, so the sign of the subflow I_i = gamma_i * J_i follows the sign
of the decay rate -- negative rates show up as positive subflows.

:func:`flow_records` is columnar: it works on bounded blocks of grid points
as ``(n, d, d)`` stacks (one batched SLD eigendecomposition, stacked
products for J_i, the Hamiltonian term and the full flow, an array stencil
for the finite-difference oracle) and returns one :class:`FlowTable` of
arrays over the grid.  The one-point functions (:func:`subflow_J`,
:func:`hamiltonian_term`, :func:`full_flow`, :func:`fd_flow_oracle`) stay
public as its references.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import DEFAULT_EPS_RANK, sld_stack
from .model import (
    ModelSpec,
    apply_generator,
    apply_generator_theta_derivative,
    compile_generator,
    scalar_values,
)
from .operators import DimensionMismatchError, commutator, dagger
from .propagation import Trajectory

__all__ = [
    "FlowTable",
    "IntervalReport",
    "SIGN_THRESHOLD",
    "subflow_J",
    "hamiltonian_term",
    "full_flow",
    "residual_T",
    "fd_flow_oracle",
    "flow_records",
    "classify_intervals",
]

# Sign classification threshold: separates genuine sign changes of gamma / I
# from rounding noise near their zeros.
SIGN_THRESHOLD = 1e-10

_IMAG_WARN = 1e-10


@dataclass(frozen=True, eq=False)
class FlowTable:
    """All flow quantities on the grid, one array per column.

    Grid columns have shape ``(N,)``; the per-channel columns ``gamma``,
    ``J`` and ``I = gamma * J`` have shape ``(n_channels, N)``, one row per
    channel in declaration order, labelled by ``labels``; ``sum(table.I)``
    is the subflow sum, added channel by channel.
    """

    t: np.ndarray
    qfi: np.ndarray
    flow_fd: np.ndarray
    full_flow: np.ndarray
    ham_term: np.ndarray
    residual_T: np.ndarray
    thresholded_pairs: np.ndarray  # eigenvalue pairs the SLD support convention cut
    labels: tuple[str, ...]
    gamma: np.ndarray
    J: np.ndarray
    I: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class IntervalReport:
    """Where a channel's rate is negative, where its subflow is positive, and
    how much of the former the latter covers (None when the rate never goes
    negative)."""

    channel: str
    negative_rate_intervals: tuple[tuple[float, float], ...]
    positive_subflow_intervals: tuple[tuple[float, float], ...]
    overlap_fraction: float | None


def _real_trace(m: np.ndarray, what: str) -> float:
    val = complex(np.trace(m))
    scale = max(1.0, abs(val.real))
    if abs(val.imag) > _IMAG_WARN * scale:
        warnings.warn(
            f"{what} has imaginary residue {val.imag:.3e}; "
            "likely Hermiticity loss upstream",
            RuntimeWarning,
            stacklevel=3,
        )
    return val.real


def subflow_J(rho: np.ndarray, L: np.ndarray, A: np.ndarray) -> float:
    """-Tr{rho [L,A]† [L,A]}; nonpositive because rho and [L,A]†[L,A] are PSD."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != np.shape(L) or rho.shape != np.shape(A):
        raise DimensionMismatchError(
            f"incompatible shapes {rho.shape}, {np.shape(L)}, {np.shape(A)}"
        )
    C = commutator(np.asarray(L, dtype=complex), np.asarray(A, dtype=complex))
    return -_real_trace(rho @ dagger(C) @ C, "subflow")


def hamiltonian_term(
    model: ModelSpec,
    theta: float,
    t: float,
    rho: np.ndarray,
    L: np.ndarray,
) -> float:
    """-2i Tr(L [dH/dtheta, rho]); exactly zero for theta-independent H."""
    if model.dH_dtheta.is_zero:
        return 0.0
    dH = model.dH_dtheta.evaluate(t, theta)
    return _real_trace(-2.0j * (L @ commutator(dH, np.asarray(rho, dtype=complex))), "hamiltonian term")


def full_flow(
    model: ModelSpec,
    theta: float,
    t: float,
    rho: np.ndarray,
    drho_dtheta: np.ndarray,
    L: np.ndarray,
) -> float:
    """Complete flow Tr{L [2 d/dt(drho_dtheta) - L drho/dt]} from the generator."""
    rhodot = apply_generator(model, theta, t, rho)
    sigdot = apply_generator_theta_derivative(model, theta, t, rho, drho_dtheta)
    return _real_trace(L @ (2.0 * sigdot - L @ rhodot), "full flow")


def residual_T(full_flow_value: float, ham_term_value: float, sum_subflows: float) -> float:
    """Lumped remainder of the flow beyond the Hamiltonian term and the subflows."""
    return full_flow_value - ham_term_value - sum_subflows


def fd_flow_oracle(qfi_series, dt: float, k: int) -> float:
    """Second-order finite-difference time derivative of the QFI series at index k.

    Central difference at interior points, one-sided three-point stencils at
    the endpoints.  Independent of the generator-based flow computation.
    """
    n = len(qfi_series)
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if not 0 <= k < n:
        raise IndexError(f"index {k} outside series of length {n}")
    f = qfi_series
    if k == 0:
        return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    if k == n - 1:
        return (3.0 * f[n - 1] - 4.0 * f[n - 2] + f[n - 3]) / (2.0 * dt)
    return (f[k + 1] - f[k - 1]) / (2.0 * dt)


def _real_traces(m: np.ndarray, what: str) -> np.ndarray:
    """Real parts of the traces of a stack; warns as :func:`_real_trace` does, once,
    for the first matrix whose imaginary residue is not rounding."""
    vals = np.trace(m, axis1=1, axis2=2)
    residue = np.abs(vals.imag) > _IMAG_WARN * np.maximum(1.0, np.abs(vals.real))
    if residue.any():
        warnings.warn(
            f"{what} has imaginary residue {vals.imag[np.argmax(residue)]:.3e}; "
            "likely Hermiticity loss upstream",
            RuntimeWarning,
            stacklevel=3,
        )
    return vals.real


def _fd_series(f: np.ndarray, dt: float) -> np.ndarray:
    """:func:`fd_flow_oracle` at every index of the series f at once."""
    n = len(f)
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    out = np.empty(n)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
    out[-1] = (3.0 * f[n - 1] - 4.0 * f[n - 2] + f[n - 3]) / (2.0 * dt)
    return out


def flow_records(
    traj: Trajectory,
    eps_rank: float = DEFAULT_EPS_RANK,
) -> FlowTable:
    """SLD, QFI, and all flow quantities at every grid point of a trajectory.

    Works on blocks of grid points (bounded by the compiled generator's
    ``COEFFICIENT_BYTES``) as stacks: one batched eigendecomposition gives the
    SLDs, QFIs and support-convention counts (:func:`sld_stack`), and the
    subflows, Hamiltonian term and full flow are stacked products in the
    operation order of the scalar :func:`subflow_J`, :func:`hamiltonian_term`
    and :func:`full_flow`, which stay as their references.
    """
    model = traj.model
    theta = traj.theta
    gen = compile_generator(model)
    size = gen.times_per_block(1)
    n = len(traj.grid)
    qfi = np.empty(n)
    ham = np.zeros(n)
    full = np.empty(n)
    thresholded = np.empty(n, dtype=int)
    gammas = np.empty((len(model.channels), n))
    Js = np.empty((len(model.channels), n))
    for start in range(0, n, size):
        block = slice(start, start + size)
        times = traj.grid[block]
        rho, sig = traj.rho[block], traj.drho_dtheta[block]
        L, qfi[block], thresholded[block] = sld_stack(rho, sig, eps_rank=eps_rank, tol=traj.tolerances)
        for i, ch in enumerate(model.channels):
            gammas[i, block] = scalar_values(ch.gamma, times, theta)
            A = ch.A.evaluate_many(times, theta)
            C = L @ A - A @ L
            Js[i, block] = -_real_traces(rho @ C.conj().swapaxes(1, 2) @ C, "subflow")
        if not model.dH_dtheta.is_zero:
            dH = model.dH_dtheta.evaluate_many(times, theta)
            ham[block] = _real_traces(-2.0j * (L @ (dH @ rho - rho @ dH)), "hamiltonian term")
        dots = gen.act(gen.operators(times, (theta,)), np.stack([rho, sig], axis=1))
        full[block] = _real_traces(L @ (2.0 * dots[:, 1] - L @ dots[:, 0]), "full flow")
    Is = gammas * Js
    return FlowTable(
        t=traj.grid,
        qfi=qfi,
        flow_fd=_fd_series(qfi, traj.dt),
        full_flow=full,
        ham_term=ham,
        residual_T=residual_T(full, ham, sum(Is)),
        thresholded_pairs=thresholded,
        labels=tuple(ch.label for ch in model.channels),
        gamma=gammas,
        J=Js,
        I=Is,
    )


def _mask_intervals(times: np.ndarray, mask: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Maximal runs of True in mask, as (t_start, t_end) pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return tuple(zip(times[edges[::2]].tolist(), times[edges[1::2] - 1].tolist()))


def classify_intervals(
    table: FlowTable,
    threshold: float = SIGN_THRESHOLD,
) -> list[IntervalReport]:
    """Per-channel negative-rate and positive-subflow intervals with overlap.

    The overlap fraction is the share of grid points with gamma < 0 where the
    subflow is also positive; it is None (not applicable) when the rate never
    goes negative.  Values within ``threshold`` of zero are treated as zero.
    """
    if not len(table):
        raise ValueError("empty flow table")
    reports = []
    for label, neg, pos in zip(table.labels, table.gamma < -threshold, table.I > threshold):
        n_neg = int(np.count_nonzero(neg))
        overlap = float(np.count_nonzero(neg & pos) / n_neg) if n_neg else None
        reports.append(
            IntervalReport(
                channel=label,
                negative_rate_intervals=_mask_intervals(table.t, neg),
                positive_subflow_intervals=_mask_intervals(table.t, pos),
                overlap_fraction=overlap,
            )
        )
    return reports
