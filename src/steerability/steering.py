"""Linear steering functional for 2 or 3 measurement settings.

The functional of a state rho and directions mu = {u_i, v_i} is

    F_n(rho, mu) = (1 / sqrt(n)) |sum_i <(u_i . s) (x) (v_i . s)>|

with u_i unit vectors, {v_i} orthonormal, and s the Pauli vector.  Values
above 1 certify steerability for that setting; the measurement-optimal
values are F2 = sqrt(s1^2 + s2^2) and F3 = ||T||_F in terms of the singular
values s_i of the correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency, InvalidSetting
from .linalg import at_state, bisect, first_failure, frobenius_norm, scalar_or_array
from . import states, teleport

_DIR_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSetting:
    """n pairs of directions: unit vectors u and an orthonormal set v, or a stack of them."""

    u: np.ndarray  # (..., n, 3)
    v: np.ndarray  # (..., n, 3)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.ndim < 2 or u.shape[-1] != 3 or u.shape != v.shape:
            raise InvalidSetting(f"need matching (n, 3) arrays, got {u.shape} and {v.shape}")
        n = u.shape[-2]
        if n not in (2, 3):
            raise InvalidSetting(f"n must be 2 or 3, got {n}")
        norms = np.abs(np.linalg.norm(u, axis=-1) - 1.0).max(axis=-1)
        if (i := first_failure(norms <= _DIR_TOL)) is not None:
            raise InvalidSetting(f"u directions must be unit vectors{at_state(i)}")
        gram = np.abs(v @ np.swapaxes(v, -2, -1) - np.eye(n)).max(axis=(-2, -1))
        if (i := first_failure(gram <= _DIR_TOL)) is not None:
            raise InvalidSetting(f"v directions must be orthonormal{at_state(i)}")

    @property
    def n(self) -> int:
        return self.u.shape[-2]


def steering_operator(mu: MeasurementSetting) -> np.ndarray:
    """S = (1/sqrt(n)) sum_i (u_i . s) (x) (v_i . s), so Tr(S rho) is the signed functional;
    (..., 4, 4) for a stack of settings."""
    return np.einsum("...ij,...ik,jkab->...ab", mu.u, mu.v, states.PAULI_2Q[1:, 1:]) / np.sqrt(mu.n)


def steering_functional(rho: np.ndarray, mu: MeasurementSetting) -> float | np.ndarray:
    """Evaluate the functional for explicit directions, broadcasting state and setting stacks.

    The signed Bloch-level sum u_i^t T v_i must match the direct operator trace;
    a mismatch beyond 1e-10 means a convention bug somewhere.
    """
    T = states.to_bloch(rho).T
    bloch = np.einsum("...ij,...jk,...ik->...", mu.u, T, mu.v) / np.sqrt(mu.n)
    direct = np.real(np.trace(steering_operator(mu) @ rho, axis1=-2, axis2=-1))
    if (i := first_failure(np.abs(bloch - direct) <= 1e-10)) is not None:
        raise InternalInconsistency(
            f"Bloch evaluation {bloch[i]:.15g} vs trace evaluation {direct[i]:.15g}{at_state(i)}"
        )
    return abs(scalar_or_array(bloch))


def f3_max(rho: np.ndarray) -> float | np.ndarray:
    """Best three-setting value of a state or (..., 4, 4) stack: ||T||_F."""
    return frobenius_norm(states.to_bloch(rho).T)


def f2_max(rho: np.ndarray) -> float | np.ndarray:
    """Best two-setting value of a state or stack: sqrt(M) = sqrt(s1^2 + s2^2), with M the
    CHSH quantity of teleport.aux_criteria."""
    return scalar_or_array(np.sqrt(teleport.aux_criteria(rho).M))


def _equalized_frame(M: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal columns v_1..v_k in the top-k eigenspace span of symmetric M
    with all quadratic forms v_i^t M v_i equal to their mean.

    Works by pinning diagonal entries of the k x k restriction one at a time
    with plane rotations, possible because the target is majorized by the
    eigenvalues; it stops once their spread is at most 1e-12 of the largest.
    """
    W = np.linalg.eigh(M)[1][:, ::-1][:, :k]  # top-k eigenvectors, descending
    D = W.T @ M @ W                           # k x k restriction, ~diagonal
    mean = np.trace(D) / k
    for _ in range(k - 1):
        d = np.diag(D)
        hi = int(np.argmax(d))
        lo = int(np.argmin(d))
        if d[hi] - d[lo] <= 1e-12 * d[hi]:
            break
        # Rotate in the (hi, lo) plane until entry hi equals the mean; entry hi is at
        # or above it at theta = 0 and at or below it at pi/2, so bisection on the angle
        # is safe.  Python floats: math.cos/math.sin round like np.cos/np.sin on these
        # angles (pinned in the tests), so each step has numpy's bits.
        d_hh, d_ll, d_hl, target = float(D[hi, hi]), float(D[lo, lo]), float(D[hi, lo]), float(mean)

        def at_or_below(theta: float) -> bool:
            c, s = math.cos(theta), math.sin(theta)
            return c * c * d_hh + s * s * d_ll + 2 * c * s * d_hl <= target

        theta = bisect(at_or_below, 0.0, math.pi / 2, 0.0)
        c, s = np.cos(theta), np.sin(theta)
        G = np.eye(k)
        G[hi, hi] = c
        G[lo, lo] = c
        G[hi, lo] = -s
        G[lo, hi] = s
        D = G.T @ D @ G
        W = W @ G
    return W


def optimal_directions(rho: np.ndarray, n: int) -> MeasurementSetting:
    """Directions attaining the measurement-optimal functional value at every scale of T.

    The v_i span the top-n right-singular subspace of T, rotated so each
    |T v_i| carries an equal share of the attainable correlation weight;
    u_i = T v_i / |T v_i|.  T is first scaled by the power of two that brings
    its largest entry into [1/2, 1), which is exact, so the directions do not
    depend on the scale of T.  The coordinate axes are returned only for
    T = 0, where every setting gives 0.
    """
    if n not in (2, 3):
        raise InvalidSetting(f"n must be 2 or 3, got {n}")
    T = states.to_bloch(rho).T
    if not T.any():
        frame = np.eye(3)[:n]
        return MeasurementSetting(u=frame, v=frame)
    T = np.ldexp(T, -np.frexp(np.abs(T).max())[1])
    v = _equalized_frame(T.T @ T, n).T  # rows are the v_i
    Tv = v @ T.T
    return MeasurementSetting(u=Tv / np.linalg.norm(Tv, axis=1)[:, None], v=v)
