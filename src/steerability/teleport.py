"""Teleportation and CHSH criteria from the correlation-matrix singular values.

With u_1 >= u_2 >= u_3 the eigenvalues of T^t T:

    N = sqrt(u_1) + sqrt(u_2) + sqrt(u_3)   (useful for teleportation iff > 1)
    M = u_1 + u_2                            (violates CHSH iff > 1)

Since F3 = sqrt(u_1 + u_2 + u_3) <= N, every 3-steerable state is useful
for teleportation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm, scalar_or_array, singular_values_3x3, square
from . import states


@dataclass(frozen=True)
class AuxCriteria:
    """Teleportation and CHSH quantities from one singular-value computation."""

    N: float
    M: float
    u: np.ndarray  # (..., 3) eigenvalues of T^t T, descending


def aux_criteria(rho: np.ndarray) -> AuxCriteria:
    """N and M of a state or (..., 4, 4) stack from one singular-value decomposition of T."""
    return aux_of(singular_values_3x3(states.to_bloch(rho).T))


def aux_of(s: np.ndarray) -> AuxCriteria:
    """aux_criteria from the descending singular values s (..., 3) of T, already computed."""
    M = square(s[..., 0]) + square(s[..., 1])
    return AuxCriteria(N=scalar_or_array(np.sum(s, axis=-1)), M=M, u=s**2)


def steer_implies_teleport_check(rho: np.ndarray) -> bool | np.ndarray:
    """True when (F3 > 1 implies N > 1) holds for this state (each state of a stack).

    This should never return False; it exists as a checkable witness of the
    steerability-to-teleportation implication.
    """
    T = states.to_bloch(rho).T
    f3 = frobenius_norm(T)  # steering.f3_max
    n = aux_of(singular_values_3x3(T)).N
    return scalar_or_array((f3 <= 1.0) | (n > 1.0))
