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

from .linalg import scalar_or_array, singular_values_3x3, square
from . import states, steering


@dataclass(frozen=True)
class AuxCriteria:
    """Teleportation and CHSH quantities from one singular-value computation."""

    N: float
    M: float
    u: np.ndarray  # (..., 3) eigenvalues of T^t T, descending


def aux_criteria(rho: np.ndarray) -> AuxCriteria:
    """N and M of a state or (..., 4, 4) stack from one singular-value decomposition of T."""
    s = singular_values_3x3(states.to_bloch(rho).T)
    M = square(s[..., 0]) + square(s[..., 1])
    return AuxCriteria(N=scalar_or_array(np.sum(s, axis=-1)), M=M, u=s**2)


def teleportation_N(rho: np.ndarray) -> float:
    """Sum of the singular values of T; above 1 the state is useful for teleportation."""
    return aux_criteria(rho).N


def chsh_M(rho: np.ndarray) -> float:
    """Sum of the two largest eigenvalues of T^t T; above 1 CHSH is violated."""
    return aux_criteria(rho).M


def steer_implies_teleport_check(rho: np.ndarray) -> bool | np.ndarray:
    """True when (F3 > 1 implies N > 1) holds for this state (each state of a stack).

    This should never return False; it exists as a checkable witness of the
    steerability-to-teleportation implication.
    """
    f3 = steering.f3_max(rho).value
    n = teleportation_N(rho)
    return scalar_or_array((f3 <= 1.0) | (n > 1.0))
