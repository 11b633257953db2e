"""Membership in the set of states that keep satisfying the three-setting
steering inequality under every global unitary.

Over the unitary orbit of a state the best three-setting value is attained
at a Bell-diagonal state and depends only on the spectrum:

    best^2 = 3 sum_i x_i^2 - 2 sum_{i<j} x_i x_j = 4 Tr(rho^2) - 1.

Membership is therefore equivalent to purity <= 1/2, to the Bloch-parameter
sum |a|^2 + |b|^2 + ||T||_F^2 <= 1, and to lying in the Frobenius ball of
radius 1/2 around the maximally mixed state.  All routes are computed
independently and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency
from .linalg import at_state, first_failure, frobenius_norm, hermitian_eigensystem
from .linalg import scalar_or_array, square
from . import states

# Tolerance for boundary comparisons, applied on the purity scale.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class AbsoluteVerdict:
    """Outcome of the four independent membership criteria; arrays for a stack."""

    in_aus3: bool
    f3_global_max: float  # best three-setting value over the unitary orbit
    spectrum_lhs: float   # 3 Tr(rho^2) - 2 sum_{i<j} x_i x_j, from eigenvalues
    purity: float         # Tr(rho^2), from the Frobenius norm of rho
    bloch_sum: float      # |a|^2 + |b|^2 + ||T||_F^2
    spread: float         # worst purity-scale disagreement between the routes


@dataclass(frozen=True)
class BellDiagonalState:
    """Spectrum placed on the Bell basis, with the unitary that gets there."""

    weights: np.ndarray  # (..., 4) descending, assigned to {Phi+, Phi-, Psi+, Psi-}
    unitary: np.ndarray  # (..., 4, 4), canonical = unitary @ rho @ unitary^dagger
    matrix: np.ndarray   # (..., 4, 4) the Bell-diagonal state itself


def orbit_safe(purity: float) -> bool:
    """The one membership boundary: purity <= 1/2 up to BOUNDARY_TOL."""
    return purity <= 0.5 + BOUNDARY_TOL


def _spectrum_lhs(x: np.ndarray) -> float | np.ndarray:
    """best^2 = 3 sum_i x_i^2 - 2 sum_{i<j} x_i x_j of four eigenvalues (last axis)."""
    return scalar_or_array(3.0 * np.sum(x**2, axis=-1) - 2.0 * states.pairwise_sum(x))


def f3_global_max(spectrum) -> float | np.ndarray:
    """Best three-setting value over the global-unitary orbit of four eigenvalues
    summing to 1, or of each spectrum in a (..., 4) stack."""
    x = np.asarray(spectrum, dtype=float)
    if x.shape[-1:] != (4,):
        raise ValueError(f"expected 4 eigenvalues, got shape {x.shape}")
    return scalar_or_array(np.sqrt(np.maximum(_spectrum_lhs(x), 0.0)))


def decide_aus3(rho: np.ndarray) -> AbsoluteVerdict:
    """Evaluate all four membership criteria and require they agree.

    Each criterion runs on its own code path (eigensolver, matrix norm,
    Bloch decomposition, orbit formula).  The values are compared on a
    common purity scale; a spread beyond BOUNDARY_TOL raises
    InternalInconsistency (naming the state, in a stack) rather than silently
    picking a winner.  Membership is orbit_safe of the Frobenius purity.
    """
    rho = np.asarray(rho, dtype=complex)

    spectrum_lhs = _spectrum_lhs(hermitian_eigensystem(rho).eigenvalues)

    purity = square(frobenius_norm(rho))

    form = states.to_bloch(rho)
    bloch_sum = (
        np.sum(form.a**2, axis=-1) + np.sum(form.b**2, axis=-1) + np.sum(form.T**2, axis=(-2, -1))
    )

    f3 = np.sqrt(np.maximum(spectrum_lhs, 0.0))

    # Purity-equivalents of the four criteria; all should match to ~1e-12.
    purities = {
        "spectrum": (spectrum_lhs + 1.0) / 4.0,
        "frobenius": purity,
        "bloch": (bloch_sum + 1.0) / 4.0,
        "orbit": (square(f3) + 1.0) / 4.0,
    }
    spread = np.abs(np.array(list(purities.values())) - purity).max(axis=0)
    if (i := first_failure(spread > BOUNDARY_TOL)) is not None:
        raise InternalInconsistency(
            "criteria disagree: "
            + ", ".join(f"{k}={np.asarray(p)[i]:.15g}" for k, p in purities.items())
            + at_state(i)
        )
    return AbsoluteVerdict(
        in_aus3=scalar_or_array(orbit_safe(purity)),
        f3_global_max=scalar_or_array(f3),
        spectrum_lhs=spectrum_lhs,
        purity=purity,
        bloch_sum=scalar_or_array(bloch_sum),
        spread=scalar_or_array(spread),
    )


def bell_diagonal_canonical(rho: np.ndarray) -> BellDiagonalState:
    """Bell-diagonal state carrying the spectrum of rho, plus the unitary.

    The descending eigenvalues are assigned to {Phi+, Phi-, Psi+, Psi-} (any
    assignment gives the same best value; this one is fixed for
    reproducibility).  The returned state attains the orbit optimum.
    """
    sys = hermitian_eigensystem(rho)
    B = states.BELL_BASIS
    U = B @ np.swapaxes(sys.eigenvectors.conj(), -2, -1)
    canonical = (B * sys.eigenvalues[..., None, :]) @ B.conj().T
    return BellDiagonalState(weights=sys.eigenvalues, unitary=U, matrix=canonical)


def frobenius_ball_check(rho: np.ndarray) -> bool:
    """True when rho lies in the Frobenius ball of radius 1/2 around I/4:
    ||rho - I/4||^2 = Tr(rho^2) - 1/4, judged on decide_aus3's purity, bit for bit."""
    return orbit_safe(square(frobenius_norm(np.asarray(rho, dtype=complex))))


def reduced_pair_verdict(psi: np.ndarray) -> dict[str, AbsoluteVerdict]:
    """Membership verdicts for all two-qubit reductions of a pure 3-qubit state.

    For each kept pair the orbit optimum must satisfy best^2 = 1 + 2 l^2
    with l the Bloch length of the traced-out qubit; a violation beyond
    1e-9 raises InternalInconsistency.
    """
    complement = {"AB": "C", "BC": "A", "AC": "B"}
    verdicts: dict[str, AbsoluteVerdict] = {}
    for pair, lone in complement.items():
        sigma = states.reduce_to_pair(psi, pair)
        verdict = decide_aus3(sigma)
        ell = states.single_qubit_bloch_norm(psi, lone)
        expected = 1.0 + 2.0 * ell**2
        if abs(verdict.f3_global_max**2 - expected) > 1e-9:
            raise InternalInconsistency(
                f"pair {pair}: best^2 = {verdict.f3_global_max**2:.15g}, "
                f"expected 1 + 2 l^2 = {expected:.15g}"
            )
        verdicts[pair] = verdict
    return verdicts
