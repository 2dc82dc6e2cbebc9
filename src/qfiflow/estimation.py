"""Symmetric logarithmic derivative and quantum Fisher information.

The SLD L is the Hermitian solution of drho_dtheta = (rho L + L rho)/2,
assembled in the eigenbasis of rho as L_jk = 2 (drho)_jk / (p_j + p_k).
Near-singular states are the main numerical hazard: eigenvalue pairs whose
sum falls below a relative rank cutoff are zeroed (support convention) and
counted, so callers can see when the convention engaged.  :func:`sld_stack`
does this for a stack of states with one batched eigendecomposition, which
a propagation takes from its density gate (``density_eigh``).
"""

from __future__ import annotations

import warnings

import numpy as np

from .operators import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    ToleranceConfig,
    hermiticity_defect,
    hermitize,
    matmul,
)

__all__ = ["sld_stack", "DEFAULT_EPS_RANK"]

DEFAULT_EPS_RANK = 1e-12


def sld_stack(
    rho: np.ndarray,
    drho_dtheta: np.ndarray,
    eps_rank: float = DEFAULT_EPS_RANK,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the SLD equation in the eigenbasis of rho for every matrix of two
    ``(n, d, d)`` stacks, with one batched eigendecomposition.

    Returns the SLDs ``(n, d, d)``, the QFIs Tr[L^2 rho] ``(n,)`` and the
    thresholded-pair counts ``(n,)``.  Eigenvalues slightly negative (within
    the positivity tolerance) are clamped to zero for the pair denominators
    only; rho itself is untouched.  ``eps_rank`` is relative to each state's
    largest eigenvalue.  Raises ValueError for non-finite entries, a
    non-Hermitian drho_dtheta or a state without positive eigenvalues, and
    warns when a QFI trace has a non-rounding imaginary residue.
    """
    if eps_rank <= 0.0:
        raise ValueError(f"eps_rank must be positive, got {eps_rank!r}")
    rho = np.asarray(rho, dtype=complex)
    sig = np.asarray(drho_dtheta, dtype=complex)
    if rho.ndim != 3 or rho.shape[1] != rho.shape[2] or rho.shape != sig.shape:
        raise DimensionMismatchError(
            f"rho has shape {rho.shape}, drho_dtheta has shape {sig.shape}"
        )
    if not np.isfinite(rho).all():
        raise ValueError("matrix contains non-finite entries")
    return _sld_in_eigenbasis(rho, sig, *np.linalg.eigh(hermitize(rho)), eps_rank, tol)


def _sld_in_eigenbasis(
    rho: np.ndarray, sig: np.ndarray, p: np.ndarray, U: np.ndarray, eps_rank: float, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sld_stack` from the eigendecomposition (p, U) of the hermitized states,
    which the propagation's density gate has already made; checks drho_dtheta."""
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
    keep = denom > eps_rank * p_max[:, None, None]
    U_h = U.conj().swapaxes(1, 2)
    sig_eig = matmul(matmul(U_h, hermitize(sig)), U)
    L_eig = np.where(keep, 2.0 * sig_eig / np.where(keep, denom, 1.0), 0.0)
    L = hermitize(matmul(matmul(U, L_eig), U_h))
    vals = np.trace(matmul(matmul(L, L), rho), axis1=1, axis2=2)
    scale = np.maximum(1.0, np.abs(vals.real))
    residue = np.abs(vals.imag) > 1e-12 * scale
    if residue.any():
        k = int(np.argmax(residue))
        warnings.warn(
            f"QFI trace has imaginary residue {vals.imag[k]:.3e} (scale {scale[k]:.3e}); "
            "inputs may have lost Hermiticity",
            RuntimeWarning,
            stacklevel=3,
        )
    return L, vals.real, np.count_nonzero(~keep, axis=(1, 2))
