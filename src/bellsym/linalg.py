"""Small complex-matrix helpers: products, adjoints, Hermitian spectra, predicates.

Everything here operates on square complex numpy arrays and is pure. All
tolerances are explicit parameters with stated defaults; there is no hidden
global tolerance.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_square_matrix",
    "matmul",
    "dagger",
    "max_abs",
    "allclose_abs",
    "is_hermitian",
    "is_unitary",
    "hermitian_eig",
    "validate_density_matrix",
]


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex128 array; raise ValueError otherwise."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product of two same-dimension square matrices."""
    a = as_square_matrix(a, "a")
    b = as_square_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=np.complex128).conj().T


def max_abs(a) -> float:
    """Largest entry magnitude (max norm)."""
    return float(np.max(np.abs(np.asarray(a))))


def allclose_abs(a, b, tol: float) -> bool:
    """Entrywise equality within an absolute tolerance."""
    return max_abs(np.asarray(a) - np.asarray(b)) <= tol


def is_hermitian(a, tol: float = 1e-10) -> bool:
    a = as_square_matrix(a)
    return max_abs(a - dagger(a)) <= tol


def is_unitary(a, tol: float = 1e-10) -> bool:
    """True iff ||a† a - I||_max <= tol; for a stack of shape (..., d, d),
    iff that holds for every matrix in it."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    eye = np.eye(a.shape[-1])
    return max_abs(np.swapaxes(a.conj(), -1, -2) @ a - eye) <= tol


def hermitian_eig(a, herm_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with real eigenvalues sorted descending and
    eigenvectors as the corresponding columns. Each eigenvector's phase is
    canonicalized so that its largest-magnitude component is real positive,
    making the output deterministic for reproducible downstream extraction.
    """
    a = as_square_matrix(a)
    if not is_hermitian(a, herm_tol):
        raise ValueError("matrix is not Hermitian within tolerance "
                         f"{herm_tol:g}")
    vals, vecs = np.linalg.eigh((a + dagger(a)) / 2.0)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(vecs.shape[1]):
        v = vecs[:, k]
        j = int(np.argmax(np.abs(v)))
        pivot = v[j]
        if abs(pivot) > 0.0:
            vecs[:, k] = v * (np.conj(pivot) / abs(pivot))
    return vals, vecs


def validate_density_matrix(
    rho,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Validate a two-qubit density matrix and return it as complex128.

    Checks: 4x4 shape, Hermiticity within ``herm_tol``, unit trace within
    ``trace_tol``, and all eigenvalues >= ``eig_floor`` (positive semidefinite
    up to numerical noise).
    """
    rho = as_square_matrix(rho, "density matrix")
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    if max_abs(rho - dagger(rho)) > herm_tol:
        raise ValueError("density matrix is not Hermitian within "
                         f"{herm_tol:g}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} is not 1 within "
                         f"{trace_tol:g}")
    smallest = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
    if smallest < eig_floor:
        raise ValueError("density matrix has negative eigenvalue "
                         f"{smallest:g} below floor {eig_floor:g}")
    return rho
