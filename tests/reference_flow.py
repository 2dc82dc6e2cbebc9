"""References for the library's flow: one-point forms, and the flow of stored states.

Each one-point function works on one grid point with plain matrices, the
way the library did before its flow quantities were stacked.  ``sld``
solves the SLD equation with its own eigendecomposition, and ``full_flow``
takes its time derivatives from the hand-written generator loops of
``reference_generator``, so it shares no code path with the compiled
generator that ``propagate`` uses.

``flow_records`` is the flow of a run's states computed after the fact, as the
library did before ``propagate`` formed it in its own pass: the time
derivatives of every given state from the compiled generator, one more
eigendecomposition per state from the solver of the library's density gate
(closed form for 2 x 2 states), then its ``flow_block`` and ``flow_table``.
``library_sld`` is the library's SLD of two stacks of states, from the
gate's solver the same way.  Neither checks the states, so a test may hand
them any stack.
"""

import warnings
from typing import NamedTuple

import numpy as np
from reference_generator import commutator, evaluate, reference_generator, reference_generator_theta_derivative

from qfiflow.flow import DEFAULT_EPS_RANK, _sld_in_eigenbasis, flow_block, flow_table
from qfiflow.model import compile_generator
from qfiflow.operators import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    _spectrum,
    as_operator,
    dagger,
    hermitize,
)

_IMAG_WARN = 1e-10


class SldResult(NamedTuple):
    L: np.ndarray
    qfi: float
    thresholded_pairs: int


def _real_trace(m: np.ndarray, what: str) -> float:
    val = complex(np.trace(m))
    if abs(val.imag) > _IMAG_WARN * max(1.0, abs(val.real)):
        warnings.warn(f"{what} has imaginary residue {val.imag:.3e}", RuntimeWarning, stacklevel=3)
    return val.real


def sld(rho: np.ndarray, drho_dtheta: np.ndarray, eps_rank: float = DEFAULT_EPS_RANK) -> SldResult:
    """L_jk = 2 (drho)_jk / (p_j + p_k) in the eigenbasis of rho, with pairs whose
    clamped sum is at most eps_rank * p_max zeroed and counted, and the QFI
    Tr[L^2 rho] plus sum_k max(0, -p_k) (L^2)_kk: the pair denominators see the
    eigenvalues clamped at zero, so the QFI does too."""
    rho = as_operator(rho)
    sig = as_operator(drho_dtheta)
    if rho.shape != sig.shape:
        raise DimensionMismatchError(f"rho has shape {rho.shape}, drho_dtheta has shape {sig.shape}")
    p, U = np.linalg.eigh(hermitize(rho))
    p_clamped = np.clip(p, 0.0, None)
    denom = p_clamped[:, None] + p_clamped[None, :]
    keep = denom > eps_rank * p[-1]
    sig_eig = U.conj().T @ hermitize(sig) @ U
    L_eig = np.where(keep, 2.0 * sig_eig / np.where(keep, denom, 1.0), 0.0)
    L = hermitize(U @ L_eig @ U.conj().T)
    clamp = np.clip(-p, 0.0, None) @ np.diagonal(U.conj().T @ L @ L @ U).real
    return SldResult(L, _real_trace(L @ L @ rho, "QFI") + clamp, int(np.count_nonzero(~keep)))


def library_sld(rho: np.ndarray, drho_dtheta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The library's SLDs, QFIs and thresholded-pair counts of two ``(n, d, d)``
    stacks, from the density gate's ``eigh`` of the hermitized states, as a propagation forms them."""
    eig = _spectrum(hermitize(np.asarray(rho, dtype=complex)), vectors=True)
    return _sld_in_eigenbasis(np.asarray(drho_dtheta, dtype=complex), *eig, DEFAULT_TOLERANCES)


def subflow_J(rho: np.ndarray, L: np.ndarray, A: np.ndarray) -> float:
    """-Tr{rho [L,A]† [L,A]}."""
    C = commutator(np.asarray(L, dtype=complex), np.asarray(A, dtype=complex))
    return -_real_trace(np.asarray(rho, dtype=complex) @ dagger(C) @ C, "subflow")


def hamiltonian_term(model, theta: float, t: float, rho: np.ndarray, L: np.ndarray) -> float:
    """-2i Tr(L [dH/dtheta, rho]); exactly zero for theta-independent H."""
    if model.dH_dtheta.is_zero:
        return 0.0
    dH = evaluate(model.dH_dtheta, t, theta)
    return _real_trace(-2.0j * (L @ commutator(dH, np.asarray(rho, dtype=complex))), "hamiltonian term")


def full_flow(model, theta: float, t: float, rho: np.ndarray, drho_dtheta: np.ndarray, L: np.ndarray) -> float:
    """Tr{L [2 d/dt(drho_dtheta) - L drho/dt]} with both derivatives from the generator loops."""
    rhodot = reference_generator(model, theta, t, rho)
    sigdot = reference_generator_theta_derivative(model, theta, t, rho, drho_dtheta)
    return _real_trace(L @ (2.0 * sigdot - L @ rhodot), "full flow")


def fd_flow_oracle(qfi_series, dt: float, k: int) -> float:
    """Second-order finite-difference derivative of the series at index k."""
    f = qfi_series
    n = len(f)
    if k == 0:
        return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    if k == n - 1:
        return (3.0 * f[n - 1] - 4.0 * f[n - 2] + f[n - 3]) / (2.0 * dt)
    return (f[k + 1] - f[k - 1]) / (2.0 * dt)


def flow_records(model, theta: float, grid: np.ndarray, dt: float, rho, sig, tol=DEFAULT_TOLERANCES):
    """The FlowTable of the states rho and drho_dtheta = sig at the grid times, in one
    block: their time derivatives from ``act`` on the generator at those times, and the
    eigendecomposition of every state from the density gate's solver, as a propagation forms them."""
    gen = compile_generator(model)
    pairs = np.stack([rho, sig], axis=1)
    dots = gen.act(gen.operators(grid, (theta,)), pairs)
    eig = _spectrum(hermitize(rho), vectors=True)
    block = flow_block(model, theta, grid, pairs, dots, eig, tol)
    return flow_table(model, grid, dt, [block])
