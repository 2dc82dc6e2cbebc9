"""Dense complex-matrix algebra and density-operator validation.

Everything downstream (generators, propagation, SLD computation, flow
decomposition) is built on the small set of operations in this module.
Matrices are plain ``numpy`` arrays of complex dtype; dimensions stay at
desk scale (tensor products of a few qubits), so there are no sparse paths.
Stacks of 2 x 2 matrices (qubits) take two structured paths, as a stacked
BLAS or LAPACK call costs about 1 us per matrix: :func:`matmul` multiplies
them elementwise, and the density gate decomposes them in closed form.

Basis convention for the qubit helpers: index 0 is the ground state |0>,
index 1 the excited state |1>, and ``SIGMA_MINUS`` = |0><1| generates the
decay |1> -> |0>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IDENTITY_2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "ModelError",
    "DimensionMismatchError",
    "DensityValidationError",
    "NotHermitianError",
    "TraceDeviationError",
    "NegativeEigenvalueError",
    "dagger",
    "matmul",
    "hermitize",
    "hermiticity_defect",
    "validate_density",
    "density_eigh",
    "as_operator",
]

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared numerical tolerances for density-operator validation.

    ``positivity`` is deliberately looser than machine precision: runs with
    negative decay rates legitimately push eigenvalues slightly below zero.
    """

    herm: float = 1e-10
    trace: float = 1e-9
    positivity: float = 1e-9


DEFAULT_TOLERANCES = ToleranceConfig()


class ModelError(ValueError):
    """An operand or model ingredient rejected; ``pointer`` locates its field in a model's config."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


class DimensionMismatchError(ModelError):
    """Operands do not share one square dimension."""


class DensityValidationError(ValueError):
    """A density-matrix invariant failed; ``deviation`` is the measured size
    (``validate_density`` also sets ``index``, the failing matrix's position)."""

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


class NotHermitianError(DensityValidationError):
    pass


class TraceDeviationError(DensityValidationError):
    pass


class NegativeEigenvalueError(DensityValidationError):
    pass


def as_operator(data) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of matrices, broadcast alike; 2 x 2 factors are
    multiplied elementwise, as column times row summed over the inner index."""
    if a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
    return a @ b


def hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2, matrix by matrix for a stack; the result is exactly Hermitian
    and idempotent under repeats."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermiticity_defect(m: np.ndarray):
    """max |m - m†| entrywise, matrix by matrix for a stack: a number for one
    matrix, an array of shape ``m.shape[:-2]`` for a stack."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def validate_density(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Check the density-matrix invariants of a matrix, or of every matrix of an
    ``(n, d, d)`` stack; return the smallest eigenvalue.

    Each matrix must have finite entries (else ``ValueError``), then pass
    Hermiticity, unit trace and positivity within ``tol`` (else the matching
    :class:`DensityValidationError` subclass with the measured deviation).
    The error raised is that of the first failing matrix in stack order, and
    its ``index`` attribute is that matrix's position (0 for a single
    matrix).  Only matrices before the first non-finite, non-Hermitian or
    off-trace one reach the solver, in one call (closed form for 2 x 2 matrices).
    """
    return float(_gate(m, tol, vectors=False)[:, 0].min())


def density_eigh(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
    """:func:`validate_density` with ``eigh`` for ``eigvalsh``: the eigenvalues ``(n, d)``
    and eigenvectors ``(n, d, d)`` of the hermitized stack, for the SLD to reuse."""
    return _gate(m, tol, vectors=True)


def _gate(m: np.ndarray, tol: ToleranceConfig, vectors: bool):
    m = np.asarray(m, dtype=complex)
    stack = m if m.ndim == 3 else m[None]
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or 0 in stack.shape:
        raise DimensionMismatchError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    finite = np.isfinite(stack).all(axis=(1, 2))
    n_finite = len(stack) if finite.all() else int(np.argmin(finite))
    head = stack[:n_finite]
    herm = hermiticity_defect(head)
    tr = np.abs(np.trace(head, axis1=1, axis2=2) - 1.0)
    off = (herm > tol.herm) | (tr > tol.trace)
    n_checked = int(np.argmax(off)) if off.any() else n_finite
    eig = _spectrum(hermitize(stack[:n_checked]), vectors)
    lam = (eig[0] if vectors else eig)[:, 0]  # numpy < 2.0 returns a plain (w, v) tuple
    negative = lam < -tol.positivity
    if negative.any():
        k = int(np.argmax(negative))
        exc = NegativeEigenvalueError(
            f"minimum eigenvalue {lam[k]:.3e} < {-tol.positivity:.3e}", float(lam[k])
        )
    elif n_checked < n_finite:
        k = n_checked
        if herm[k] > tol.herm:
            exc = NotHermitianError(f"hermiticity defect {herm[k]:.3e} > {tol.herm:.3e}", float(herm[k]))
        else:
            exc = TraceDeviationError(f"trace deviation {tr[k]:.3e} > {tol.trace:.3e}", float(tr[k]))
    elif n_finite < len(stack):
        k = n_finite
        exc = ValueError("matrix contains non-finite entries")
    else:
        return eig
    exc.index = k
    raise exc


def _spectrum(h: np.ndarray, vectors: bool):
    """The gate's ``eigh`` (or ``eigvalsh``); 2 x 2 [[a, b], [b*, c]] in closed form: with h = (a - c)/2 and
    r = |(h, b)|, eigenvalues (a + c)/2 -/+ r; after (h, b) is scaled by a power of 2 near 1/r, the top eigenvector
    (h + r, b*) if h > 0, else (b, r - h), of norm sqrt(2 r (r + |h|)); its complement the other; U = I at r = 0."""
    if h.shape[-1] != 2:
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(h)
    a, c, b = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 0, 1]
    half, mid = 0.5 * (a - c), 0.5 * (a + c)
    r = np.hypot(half, np.abs(b))
    p = np.stack([mid - r, mid + r], axis=1)
    if not vectors:
        return p
    e = -np.frexp(r)[1]
    half, b = np.ldexp(half, e), np.ldexp(b.real, e) + 1j * np.ldexp(b.imag, e)
    r = np.sqrt(half * half + (b * b.conj()).real)
    top = r + np.abs(half) + (r == 0)
    norm = np.sqrt(2.0 * r * top) + (r == 0)
    up, top, b = half > 0, top / norm, b / norm
    x, y = np.where(up, top, b), np.where(up, b.conj(), top)
    return p, np.stack([y.conj(), x, -x.conj(), y], axis=1).reshape(-1, 2, 2)
