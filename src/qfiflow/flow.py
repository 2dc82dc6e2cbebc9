"""QFI flow, per-channel decomposition, and non-Markovianity classification.

The full flow at a grid point is Tr{L [2 d/dt(drho_dtheta) - L drho/dt]}
with both time derivatives taken from the generator, so it includes every
contribution: the channel subflows gamma_i * J_i, the Hamiltonian-derivative
term, and the lumped remainder produced by theta-dependent rates or Lindblad
operators.  The remainder is reported as a residual rather than expanded in
closed form; an independent finite-difference derivative of the QFI series
validates the whole assembly.

The SLD L_jk = 2 s_jk / (p_j + p_k), s = U† drho_dtheta U, solves drho_dtheta
= (rho L + L rho)/2 in the eigenbasis of rho; pairs below a relative rank
cutoff are zeroed (support convention) and counted.  The QFI, the sum over
kept pairs of 2 |s_jk|^2 / (p_j + p_k), is real and non-negative by
construction.  The flow products take Hermitian inputs and return the real
part of their traces.

Sign convention: J_i = -Tr{rho [L,A_i]† [L,A_i]} is nonpositive for any
valid state, so the sign of the subflow I_i = gamma_i * J_i follows the sign
of the decay rate -- negative rates show up as positive subflows.

:func:`flow_block` is columnar: it takes a block of grid points as
``(n, d, d)`` stacks, with the eigendecomposition and time derivatives the
propagation already formed, and :func:`flow_table` joins a run's blocks into
one :class:`FlowTable` of arrays over the grid.  :func:`subflow_J`,
:func:`hamiltonian_term` and :func:`full_flow` are its stacked products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, scalar_values
from .operators import DimensionMismatchError, ToleranceConfig, hermiticity_defect, hermitize, matmul

__all__ = [
    "FlowTable",
    "IntervalReport",
    "SIGN_THRESHOLD",
    "DEFAULT_EPS_RANK",
    "subflow_J",
    "hamiltonian_term",
    "full_flow",
    "flow_block",
    "flow_table",
    "classify_intervals",
]

# Sign classification threshold: separates genuine sign changes of gamma / I
# from rounding noise near their zeros.
SIGN_THRESHOLD = 1e-10

# SLD rank cutoff, relative to each state's largest eigenvalue.
DEFAULT_EPS_RANK = 1e-12


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


def _stacks(*ms) -> list[np.ndarray]:
    """Complex ``(..., n, d, d)`` stacks sharing their last three axes, or DimensionMismatchError."""
    out = [np.asarray(m, dtype=complex) for m in ms]
    shape = out[0].shape[-3:]
    if len(shape) != 3 or shape[1] != shape[2] or any(m.shape[-3:] != shape for m in out):
        raise DimensionMismatchError(f"incompatible shapes {', '.join(str(m.shape) for m in out)}")
    return out


def subflow_J(rho: np.ndarray, L: np.ndarray, A: np.ndarray) -> np.ndarray:
    """-Tr{rho [L,A]† [L,A]} per matrix of ``(n, d, d)`` stacks, shape ``(n,)``, or
    ``(c, n)`` for one A stack per channel, ``(c, n, d, d)``; nonpositive because
    rho and [L,A]†[L,A] are PSD.  Taken as -sum conj(C) * (C rho), C = [L, A]."""
    rho, L, A = _stacks(rho, L, A)
    C = matmul(L, A) - matmul(A, L)
    return -np.einsum("...ij,...ij->...", C.conj(), matmul(C, rho)).real


def hamiltonian_term(dH: np.ndarray, rho: np.ndarray, L: np.ndarray) -> np.ndarray:
    """-2i Tr(L [dH/dtheta, rho]) per matrix of ``(n, d, d)`` stacks."""
    dH, rho, L = _stacks(dH, rho, L)
    commutator = matmul(dH, rho) - matmul(rho, dH)
    return np.trace(-2.0j * matmul(L, commutator), axis1=-2, axis2=-1).real


def full_flow(L: np.ndarray, rhodot: np.ndarray, sigdot: np.ndarray) -> np.ndarray:
    """Complete flow Tr{L [2 d/dt(drho_dtheta) - L drho/dt]} per matrix of
    ``(n, d, d)`` stacks, from the generator's drho/dt and d/dt(drho_dtheta)."""
    L, rhodot, sigdot = _stacks(L, rhodot, sigdot)
    return np.trace(matmul(L, 2.0 * sigdot - matmul(L, rhodot)), axis1=-2, axis2=-1).real


def _fd_series(f: np.ndarray, dt: float) -> np.ndarray:
    """Second-order finite-difference time derivative of the series f at every index.

    Central differences at interior points, one-sided three-point stencils at
    the endpoints.  Independent of the generator-based flow computation.
    """
    n = len(f)
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    out = np.empty(n)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
    out[-1] = (3.0 * f[n - 1] - 4.0 * f[n - 2] + f[n - 3]) / (2.0 * dt)
    return out


def _sld_in_eigenbasis(sig: np.ndarray, p: np.ndarray, U: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """The SLDs ``(n, d, d)``, QFIs ``(n,)`` and thresholded-pair counts ``(n,)`` of an
    ``(n, d, d)`` stack drho_dtheta, from the eigendecomposition (p, U) of the hermitized states.

    Eigenvalues slightly negative (within the positivity tolerance) are clamped
    to zero for the pair denominators; the QFI sum over kept pairs then exceeds
    Tr[L^2 rho] by exactly sum_k max(0, -p_k) (L^2)_kk.  Raises ValueError for a
    non-finite or non-Hermitian drho_dtheta or a state without positive eigenvalues.
    """
    if not np.isfinite(sig).all():
        raise ValueError("matrix contains non-finite entries")
    defect = hermiticity_defect(sig)
    bound = 10.0 * tol.herm * np.maximum(1.0, np.abs(sig).max(axis=(1, 2)))
    if np.any(defect > bound):
        raise ValueError(f"drho_dtheta is not Hermitian: defect {defect[np.argmax(defect > bound)]:.3e}")
    p_max = p[:, -1]
    if np.any(p_max <= 0.0):
        raise ValueError("rho has no positive eigenvalues")
    p_clamped = np.clip(p, 0.0, None)
    denom = p_clamped[:, :, None] + p_clamped[:, None, :]
    keep = denom > DEFAULT_EPS_RANK * p_max[:, None, None]
    U_h = U.conj().swapaxes(1, 2)
    sig_eig = matmul(matmul(U_h, hermitize(sig)), U)
    L_eig = np.where(keep, 2.0 * sig_eig / np.where(keep, denom, 1.0), 0.0)
    L = hermitize(matmul(matmul(U, L_eig), U_h))
    # Re(L_jk conj(s_jk)) = 2 |s_jk|^2 / (p_j + p_k): each product pairs equal signs
    qfi = (L_eig.real * sig_eig.real + L_eig.imag * sig_eig.imag).sum(axis=(1, 2))
    return L, qfi, np.count_nonzero(~keep, axis=(1, 2))


def flow_block(
    model: ModelSpec, theta: float, times: np.ndarray, pairs: np.ndarray, dots: np.ndarray, eig, tol: ToleranceConfig
) -> tuple[np.ndarray, ...]:
    """The QFIs, thresholded pairs, full flow and Hamiltonian term ``(n,)``, and the
    rates and J_i ``(n_channels, n)``, of a block of grid points, for :func:`flow_table`.

    ``pairs[j]`` is (rho, drho_dtheta) at ``times[j]``, ``dots[j]`` its time
    derivative and ``eig`` the eigendecomposition ``(p, U)`` of the hermitized
    states, from which the SLDs are formed; :func:`subflow_J` takes every
    channel in one stack.
    """
    rho = pairs[:, 0]
    L, qfi, thresholded = _sld_in_eigenbasis(pairs[:, 1], *eig, tol)
    gammas = np.empty((len(model.channels), len(times)))
    A = np.empty((len(model.channels),) + rho.shape, dtype=complex)
    for i, ch in enumerate(model.channels):
        gammas[i] = scalar_values(ch.gamma, times, theta)
        A[i] = ch.A.evaluate_many(times, theta)
    dH = model.dH_dtheta
    ham = np.zeros(len(times)) if dH.is_zero else hamiltonian_term(dH.evaluate_many(times, theta), rho, L)
    return qfi, thresholded, full_flow(L, dots[:, 0], dots[:, 1]), ham, gammas, subflow_J(rho, L, A)


def flow_table(model: ModelSpec, grid: np.ndarray, dt: float, blocks: list[tuple[np.ndarray, ...]]) -> FlowTable:
    """The :class:`FlowTable` of a run from its :func:`flow_block` results in grid
    order: the finite-difference oracle is the stencil of the QFI column, and
    the residual ``full_flow - ham_term - sum(I)``."""
    qfi, thresholded, full, ham, gammas, Js = (np.concatenate(c, axis=-1) for c in zip(*blocks))
    Is = gammas * Js
    return FlowTable(
        t=grid,
        qfi=qfi,
        flow_fd=_fd_series(qfi, dt),
        full_flow=full,
        ham_term=ham,
        residual_T=full - ham - sum(Is),
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


def classify_intervals(table: FlowTable) -> list[IntervalReport]:
    """Per-channel negative-rate and positive-subflow intervals with overlap.

    The overlap fraction is the share of grid points with gamma < 0 where the
    subflow is also positive; it is None (not applicable) when the rate never
    goes negative.  Values within ``SIGN_THRESHOLD`` of zero are treated as zero.
    """
    if not len(table):
        raise ValueError("empty flow table")
    reports = []
    for label, neg, pos in zip(table.labels, table.gamma < -SIGN_THRESHOLD, table.I > SIGN_THRESHOLD):
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
