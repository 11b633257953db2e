"""Steering operators and witnesses for violation under a global unitary.

A steering operator S(mu) reproduces the signed functional as Tr(S rho);
the affine witness I - S then has expectation 1 - (signed functional),
negative exactly when the setting certifies violation.  For a state whose
orbit optimum exceeds 1, conjugating the witness of its Bell-diagonal
canonical form by the canonicalizing unitary yields an operator that is
nonnegative on every orbit-safe state but negative on the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotActivatable
from . import absolute, steering
from .steering import steering_operator


@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian detector with the unitary and setting that produced it."""

    matrix: np.ndarray            # (4, 4) Hermitian
    unitary: np.ndarray           # (4, 4) activating unitary
    setting: steering.MeasurementSetting


def steering_witness(mu: steering.MeasurementSetting) -> np.ndarray:
    """Affine witness I - S(mu) with expectation 1 - (signed functional); (..., 4, 4) for a stack.

    Directions with the opposite sign of S are themselves a valid setting
    (flip every u_i), so sign selection is left to the caller choosing mu.
    """
    return np.eye(4, dtype=complex) - steering_operator(mu)


def activation_witness(sigma: np.ndarray) -> WitnessOperator:
    """Witness detecting that a global unitary can push sigma past the bound.

    Raises NotActivatable when sigma is orbit-safe (the same test as
    decide_aus3), in which case no such operator exists.
    """
    sigma = np.asarray(sigma, dtype=complex)
    canonical = absolute.bell_diagonal_canonical(sigma)
    if absolute.frobenius_ball_check(sigma):
        best = absolute.f3_global_max(canonical.weights)
        raise NotActivatable(
            f"orbit optimum {best:.12g} is orbit-safe; no global unitary creates a violation"
        )
    mu = steering.optimal_directions(canonical.matrix, 3)
    U = canonical.unitary
    W = U.conj().T @ steering_witness(mu) @ U
    return WitnessOperator(matrix=W, unitary=U, setting=mu)
