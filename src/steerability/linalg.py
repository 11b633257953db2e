"""Dense linear algebra for 4x4 Hermitian and 3x3 real matrices.

Thin, contract-checked wrappers around LAPACK (via numpy.linalg) sized to
the two-qubit problem: descending eigensystems, correlation-matrix singular
values, Frobenius norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian

# Hermiticity admission window (max-norm of A - A^dagger).
HERM_TOL = 1e-10
# Eigendecomposition reconstruction guarantee (max-norm).
RECON_TOL = 1e-9


@dataclass(frozen=True)
class EigenSystem4:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray   # shape (4,), real, descending
    eigenvectors: np.ndarray  # shape (4, 4), column k pairs with eigenvalues[k]


def hermitian_eigensystem(A: np.ndarray) -> EigenSystem4:
    """Eigendecompose a 4x4 Hermitian matrix, eigenvalues sorted descending.

    Raises NotHermitian when max|A - A^dagger| exceeds HERM_TOL and
    NoConvergence when the underlying iteration fails.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {A.shape}")
    dev = np.max(np.abs(A - A.conj().T))
    if dev > HERM_TOL:
        raise NotHermitian(f"max |A - A^dagger| = {dev:.3e} exceeds {HERM_TOL:.1e}")
    try:
        w, v = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    # eigh returns ascending order; flip to descending, keeping pairs aligned.
    return EigenSystem4(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def singular_values_3x3(T: np.ndarray) -> np.ndarray:
    """Singular values of a real 3x3 matrix, descending.

    Computed as square roots of the eigenvalues of T^t T (clamped at 0);
    signs are irrelevant to every downstream formula.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("matrix entries must be finite")
    u = np.linalg.eigvalsh(T.T @ T)
    return np.sqrt(np.clip(u[::-1], 0.0, None))


def frobenius_norm(A: np.ndarray) -> float | np.ndarray:
    """sqrt(sum |entry|^2) over the last two axes; an array for a stack of matrices."""
    norm = np.sqrt(np.sum(np.abs(np.asarray(A)) ** 2, axis=(-2, -1)))
    return float(norm) if norm.ndim == 0 else norm
