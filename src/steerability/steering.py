"""Linear steering functional for 2 or 3 measurement settings.

The functional of a state rho and directions mu = {u_i, v_i} is

    F_n(rho, mu) = (1 / sqrt(n)) |sum_i <(u_i . s) (x) (v_i . s)>|

with u_i unit vectors, {v_i} orthonormal, and s the Pauli vector.  Values
above 1 certify steerability for that setting; the measurement-optimal
values are F2 = sqrt(s1^2 + s2^2) and F3 = ||T||_F in terms of the singular
values s_i of the correlation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency, InvalidSetting
from .linalg import at_state, first_failure, frobenius_norm, scalar_or_array, singular_values_3x3, square
from . import states

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
        if (i := first_failure(~(norms <= _DIR_TOL))) is not None:  # NaN counts as bad
            raise InvalidSetting(f"u directions must be unit vectors{at_state(i)}")
        gram = np.abs(v @ np.swapaxes(v, -2, -1) - np.eye(n)).max(axis=(-2, -1))
        if (i := first_failure(~(gram <= _DIR_TOL))) is not None:
            raise InvalidSetting(f"v directions must be orthonormal{at_state(i)}")

    @property
    def n(self) -> int:
        return self.u.shape[-2]


@dataclass(frozen=True)
class SteeringValue:
    """Nonnegative functional value (an array for a stack); the threshold is exactly 1."""

    value: float | np.ndarray

    @property
    def violated(self) -> bool:
        return self.value > 1.0


def steering_operator(mu: MeasurementSetting) -> np.ndarray:
    """S = (1/sqrt(n)) sum_i (u_i . s) (x) (v_i . s), so Tr(S rho) is the signed functional;
    (..., 4, 4) for a stack of settings."""
    return np.einsum("...ij,...ik,jkab->...ab", mu.u, mu.v, states.PAULI_AB) / np.sqrt(mu.n)


def _signed_functional(rho: np.ndarray, mu: MeasurementSetting) -> float | np.ndarray:
    """Signed (pre-absolute-value) functional, cross-checked two ways.

    The Bloch-level sum u_i^t T v_i must match the direct operator trace;
    a mismatch beyond 1e-10 means a convention bug somewhere.
    """
    rho = np.asarray(rho, dtype=complex)
    T = states.to_bloch(rho).T
    bloch = np.einsum("...ij,...jk,...ik->...", mu.u, T, mu.v) / np.sqrt(mu.n)
    direct = np.real(np.trace(steering_operator(mu) @ rho, axis1=-2, axis2=-1))
    if (i := first_failure(np.abs(bloch - direct) > 1e-10)) is not None:
        raise InternalInconsistency(
            f"Bloch evaluation {bloch[i]:.15g} vs trace evaluation {direct[i]:.15g}{at_state(i)}"
        )
    return scalar_or_array(bloch)


def steering_functional(rho: np.ndarray, mu: MeasurementSetting) -> SteeringValue:
    """Evaluate the functional for explicit directions, broadcasting state and setting stacks."""
    return SteeringValue(abs(_signed_functional(rho, mu)))


def f3_max(rho: np.ndarray) -> SteeringValue:
    """Best three-setting value of a state or (..., 4, 4) stack: ||T||_F."""
    return SteeringValue(frobenius_norm(states.to_bloch(rho).T))


def f2_max(rho: np.ndarray) -> SteeringValue:
    """Best two-setting value of a state or stack: sqrt of the two largest eigenvalues of T^t T."""
    s = singular_values_3x3(states.to_bloch(rho).T)
    return SteeringValue(scalar_or_array(np.sqrt(square(s[..., 0]) + square(s[..., 1]))))


def jm_bound_check(value: SteeringValue | float | np.ndarray) -> bool | np.ndarray:
    """True where the value respects the sqrt(3) joint-measurability ceiling."""
    x = value.value if isinstance(value, SteeringValue) else value
    return scalar_or_array(np.asarray(x, dtype=float) <= JM_BOUND + 1e-9)


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
        def pinned(theta: float) -> float:
            c, s = np.cos(theta), np.sin(theta)
            return (
                c * c * D[hi, hi]
                + s * s * D[lo, lo]
                + 2 * c * s * D[hi, lo]
                - mean
            )
        a, b = 0.0, np.pi / 2  # pinned(a) >= 0 >= pinned(b) by the argmax/argmin choice
        for _ in range(80):
            mid = (a + b) / 2
            if pinned(mid) > 0:
                a = mid
            else:
                b = mid
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
    u = np.empty_like(Tv)
    for i, ell in enumerate(lengths):
        # |T v_i| are equal by construction, so a degenerate row only occurs
        # alongside an (all-degenerate) zero restriction handled above.
        u[i] = Tv[i] / ell if ell >= 1e-12 else np.eye(3)[i]
    return MeasurementSetting(u=u, v=v)
