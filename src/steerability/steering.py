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
from .linalg import at_state, first_failure, frobenius_norm, scalar_or_array
from . import states, teleport

_DIR_TOL = 1e-10
# Joint-measurability ceiling: three dichotomic qubit observables become
# compatible at unsharpness 1/sqrt(3), so no state exceeds sqrt(3).
JM_BOUND = np.sqrt(3.0)


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
    return np.einsum("...ij,...ik,jkab->...ab", mu.u, mu.v, states.PAULI_AB) / np.sqrt(mu.n)


def steering_functional(rho: np.ndarray, mu: MeasurementSetting) -> float | np.ndarray:
    """Evaluate the functional for explicit directions, broadcasting state and setting stacks.

    The signed Bloch-level sum u_i^t T v_i must match the direct operator trace;
    a mismatch beyond 1e-10 means a convention bug somewhere.
    """
    rho = np.asarray(rho, dtype=complex)
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


def jm_bound_check(value: float | np.ndarray) -> bool | np.ndarray:
    """True where the value respects the sqrt(3) joint-measurability ceiling."""
    return scalar_or_array(np.asarray(value, dtype=float) <= JM_BOUND + 1e-9)


def _equalized_frame(M: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal columns v_1..v_k in the top-k eigenspace span of symmetric M
    with all quadratic forms v_i^t M v_i equal to their mean.

    Works by pinning diagonal entries of the k x k restriction one at a time
    with plane rotations; possible because the target is majorized by the
    eigenvalues.
    """
    w, W = np.linalg.eigh(M)
    W = W[:, ::-1][:, :k]          # top-k eigenvectors, descending
    D = W.T @ M @ W                # k x k restriction, ~diagonal
    V = W.copy()
    mean = np.trace(D) / k
    for _ in range(k - 1):
        d = np.diag(D)
        hi = int(np.argmax(d))
        lo = int(np.argmin(d))
        if d[hi] - d[lo] <= 1e-15:
            break
        # Rotate in the (hi, lo) plane until entry hi equals the mean; the
        # endpoints bracket the target, so bisection on the angle is safe.
        # Python floats: math.cos/math.sin round like np.cos/np.sin on these
        # angles (pinned in the tests), so each step has numpy's bits.
        d_hh, d_ll, d_hl, target = float(D[hi, hi]), float(D[lo, lo]), float(D[hi, lo]), float(mean)

        def pinned(theta: float) -> float:
            c, s = math.cos(theta), math.sin(theta)
            return c * c * d_hh + s * s * d_ll + 2 * c * s * d_hl - target

        a, b = 0.0, math.pi / 2  # pinned(a) >= 0 >= pinned(b) by the argmax/argmin choice
        for _ in range(80):
            mid = (a + b) / 2
            step = (mid, b) if pinned(mid) > 0 else (a, mid)
            if step == (a, b):
                break  # the loop is deterministic, so every later step repeats this one
            a, b = step
        theta = (a + b) / 2
        c, s = np.cos(theta), np.sin(theta)
        G = np.eye(k)
        G[hi, hi] = c
        G[lo, lo] = c
        G[hi, lo] = -s
        G[lo, hi] = s
        D = G.T @ D @ G
        V = V @ G
    return V


def optimal_directions(rho: np.ndarray, n: int) -> MeasurementSetting:
    """Directions attaining the measurement-optimal functional value.

    The v_i span the top-n right-singular subspace of T, rotated so each
    |T v_i| carries an equal share of the attainable correlation weight;
    u_i = T v_i / |T v_i|.  When T vanishes on that subspace the functional
    is 0 and the coordinate axes are returned as a placeholder frame.
    """
    if n not in (2, 3):
        raise InvalidSetting(f"n must be 2 or 3, got {n}")
    T = states.to_bloch(rho).T
    V = _equalized_frame(T.T @ T, n)
    v = V.T  # rows are the v_i
    Tv = v @ T.T
    lengths = np.linalg.norm(Tv, axis=1)
    if np.all(lengths < 1e-12):
        frame = np.eye(3)[:n]
        return MeasurementSetting(u=frame, v=frame)
    # |T v_i| are equal by construction, so a degenerate row only occurs alongside
    # an (all-degenerate) zero restriction handled above; mask it all the same.
    ok = lengths >= 1e-12
    u = np.where(ok[:, None], Tv, np.eye(3)[:n]) / np.where(ok, lengths, 1.0)[:, None]
    return MeasurementSetting(u=u, v=v)
