"""Small complex-matrix helpers: adjoints, Hermitian spectra, predicates.

Everything here operates on square complex numpy arrays and is pure. The
tolerances are the named module constants below.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_square_matrix",
    "dagger",
    "max_abs",
    "is_unitary",
    "hermitian_eig",
    "validate_density_matrix",
]

UNITARITY_TOL = 1e-10       # ||a† a - I||_max of a unitary
HERMITIAN_TOL = 1e-10       # ||a - a†||_max of a matrix to diagonalize
DENSITY_HERM_TOL = 1e-12    # ||rho - rho†||_max of a density matrix
DENSITY_TRACE_TOL = 1e-12   # |Tr rho - 1|
DENSITY_EIG_FLOOR = -1e-10  # smallest eigenvalue a density matrix may have


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square, finite complex128 array; raise ValueError
    otherwise."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has a NaN or an infinite entry")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=np.complex128).conj().T


def max_abs(a) -> float:
    """Largest entry magnitude (max norm)."""
    return float(np.max(np.abs(np.asarray(a))))


def is_unitary(a) -> bool:
    """True iff ||a† a - I||_max <= UNITARITY_TOL; for a stack of shape
    (..., d, d), iff that holds for every matrix in it."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    eye = np.eye(a.shape[-1])
    return max_abs(np.swapaxes(a.conj(), -1, -2) @ a - eye) <= UNITARITY_TOL


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with real eigenvalues sorted descending and
    eigenvectors as the corresponding columns. Each eigenvector's phase is
    canonicalized so that its largest-magnitude component is real positive,
    making the output deterministic for reproducible downstream extraction.
    """
    a = as_square_matrix(a)
    if max_abs(a - dagger(a)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance "
                         f"{HERMITIAN_TOL:g}")
    vals, vecs = np.linalg.eigh((a + dagger(a)) / 2.0)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    # np.hypot rounds like abs() of a complex scalar; np.abs of an array may not
    mag = np.hypot(pivot.real, pivot.imag)
    phase = np.divide(np.conj(pivot), mag, out=np.ones_like(pivot),
                      where=mag > 0.0)
    return vals, vecs * phase


def validate_density_matrix(rho) -> np.ndarray:
    """Validate a two-qubit density matrix and return it as complex128.

    Checks: finite 4x4 entries, Hermiticity within ``DENSITY_HERM_TOL``,
    unit trace within ``DENSITY_TRACE_TOL``, and all eigenvalues >=
    ``DENSITY_EIG_FLOOR`` (positive semidefinite up to numerical noise).
    """
    rho = as_square_matrix(rho, "density matrix")
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    if not max_abs(rho - dagger(rho)) <= DENSITY_HERM_TOL:
        raise ValueError("density matrix is not Hermitian within "
                         f"{DENSITY_HERM_TOL:g}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 within "
                         f"{DENSITY_TRACE_TOL:g}")
    smallest = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
    if not smallest >= DENSITY_EIG_FLOOR:
        raise ValueError("density matrix has negative eigenvalue "
                         f"{smallest:g} below floor {DENSITY_EIG_FLOOR:g}")
    return rho
