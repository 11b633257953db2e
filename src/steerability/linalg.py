"""Dense linear algebra for 4x4 Hermitian and 3x3 real matrices, and one bisection.

Thin, contract-checked wrappers around LAPACK (via numpy.linalg) sized to
the two-qubit problem: descending eigensystems, correlation-matrix singular
values, Frobenius norms, each for one matrix or a (..., n, n) stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian

# Hermiticity admission window (max-norm of A - A^dagger).
HERM_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem4:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray   # shape (..., 4), real, descending
    eigenvectors: np.ndarray  # shape (..., 4, 4), column k pairs with eigenvalues[..., k]


def scalar_or_array(x):
    """A Python scalar for a 0-d result (one state), the array itself for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def square(x):
    """x ** 2 elementwise, rounded as Python's float ** 2 (libm pow, as in float_power's
    loop); numpy's x * x and np.power(x, 2) differ in the last bit for about 1 in 1,000."""
    return scalar_or_array(np.float_power(x, 2.0))


def first_failure(ok) -> tuple[int, ...] | None:
    """Index of the first state where the condition ok is not True, () for a single state;
    None when it holds everywhere.  A comparison with NaN is False, so NaN fails every check."""
    return None if ok.all() else tuple(np.argwhere(~ok)[0].tolist())


def at_state(i: tuple[int, ...]) -> str:
    """Error-message suffix naming state i of a stack; empty for a single state."""
    return f" (state {', '.join(map(str, i))} of the stack)" if i else ""


def hermitian_eigensystem(A: np.ndarray) -> EigenSystem4:
    """Eigendecompose a 4x4 Hermitian matrix or stack, eigenvalues descending.

    Raises NotHermitian when max|A - A^dagger| exceeds HERM_TOL and
    NoConvergence when the underlying iteration fails.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {A.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # finite entries can still overflow
        dev = np.abs(A - np.swapaxes(A.conj(), -2, -1)).max(axis=(-2, -1))
    if (i := first_failure(dev <= HERM_TOL)) is not None:
        raise NotHermitian(f"max |A - A^dagger| = {dev[i]:.3e} exceeds {HERM_TOL:.1e}{at_state(i)}")
    try:
        w, v = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    # eigh returns ascending order; flip to descending, keeping pairs aligned.
    return EigenSystem4(eigenvalues=w[..., ::-1].copy(), eigenvectors=v[..., ::-1].copy())


def singular_values_3x3(T: np.ndarray) -> np.ndarray:
    """Singular values of a real 3x3 matrix or stack, descending.

    Computed as square roots of the eigenvalues of T^t T (clamped at 0);
    signs are irrelevant to every downstream formula.
    """
    T = np.asarray(T, dtype=float)
    if T.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {T.shape}")
    if (i := first_failure(np.isfinite(T).all(axis=(-2, -1)))) is not None:
        raise ValueError(f"matrix entries must be finite{at_state(i)}")
    u = np.linalg.eigvalsh(np.swapaxes(T, -2, -1) @ T)
    return np.sqrt(np.clip(u[..., ::-1], 0.0, None))


def frobenius_norm(A: np.ndarray) -> float | np.ndarray:
    """sqrt(sum |entry|^2) over the last two axes; an array for a stack of matrices."""
    return scalar_or_array(np.sqrt(np.sum(np.abs(np.asarray(A)) ** 2, axis=(-2, -1))))


def bisect(above, lo: float, hi: float, width: float) -> float:
    """Midpoint of [lo, hi] after halving it, moving hi where above(mid) holds and lo where
    it does not, until it is no wider than width, a step leaves it unchanged, or 80 steps."""
    for _ in range(80):
        if hi - lo <= width:
            break
        mid = (lo + hi) / 2
        step = (lo, mid) if above(mid) else (mid, hi)
        if step == (lo, hi):
            break  # the loop is deterministic, so every later step repeats this one
        lo, hi = step
    return (lo + hi) / 2
