"""Seeded randomness: Haar unitaries, Hilbert-Schmidt random states, and the
Monte Carlo estimates built on them.

Every public operation is a pure function of its inputs and a
(seed, stream) pair; workers get independent streams and reductions are
order-independent, so results do not depend on how work is split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states, steering
from .linalg import scalar_or_array


@dataclass(frozen=True)
class SeededGenerator:
    """Reproducible randomness source: one stream per (seed, stream) pair."""

    seed: int
    stream: int = 0

    def rng(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        )


def _ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Ginibre matrices: real parts, then imaginary parts, standard normal."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (..., dim, dim) Ginibre stack.

    QR factorization, then column phases fixed so the triangular factor has
    positive diagonal (removing the factorization ambiguity that would bias
    the distribution).
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phase = diag / np.abs(diag)
    return q * phase[..., None, :]


def _hilbert_schmidt(g: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt-measure states from a (..., 4, 4) Ginibre stack:
    rho = G G^dagger / Tr(G G^dagger)."""
    gg = g @ np.swapaxes(g.conj(), -2, -1)
    tr = np.trace(gg, axis1=-2, axis2=-1).real
    return gg / tr[..., None, None]


def haar_from_rng(rng: np.random.Generator, dim: int = 4, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries from an existing generator."""
    return _haar(_ginibre(rng, (dim, dim) if size is None else (size, dim, dim)))


def states_from_rng(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt-measure states from an existing generator."""
    return _hilbert_schmidt(_ginibre(rng, (4, 4) if size is None else (size, 4, 4)))


def haar_unitary(g: SeededGenerator) -> np.ndarray:
    """First Haar unitary of the stream; identical (seed, stream) give identical output."""
    return haar_from_rng(g.rng())


def random_state(g: SeededGenerator) -> np.ndarray:
    """First Hilbert-Schmidt random state of the stream, validated."""
    return states.validate(states_from_rng(g.rng()))


def empirical_f3_sup(
    rho: np.ndarray, trials: int, g: SeededGenerator | list[SeededGenerator]
) -> float | np.ndarray:
    """Largest best-three-setting value seen over sampled global unitaries,
    for one state and its SeededGenerator or a (..., 4, 4) stack and one per state.

    The sweep always includes the identity, so the input state's own value
    is a floor.  The result can never exceed the closed-form orbit optimum
    sqrt(4 Tr(rho^2) - 1); the gap shrinks as trials grow.  Each state draws
    its unitaries from its own generator in chunks of 4096, so a stack gives
    the bits of its states one at a time.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 state or stack, got shape {rho.shape}")
    rngs = [g.rng()] if isinstance(g, SeededGenerator) else [one.rng() for one in g]
    flat = rho.reshape(-1, 4, 4)
    if len(rngs) != len(flat):
        raise ValueError(f"need one generator per state: got {len(rngs)} for {len(flat)} states")
    best = steering.f3_max(flat)
    chunk = 4096
    for done in range(0, trials, chunk):
        shape = (min(chunk, trials - done), 4, 4)
        U = _haar(np.stack([_ginibre(rng, shape) for rng in rngs]))
        conjugated = U @ flat[:, None] @ np.swapaxes(U.conj(), -2, -1)
        best = np.maximum(best, np.max(steering.f3_max(conjugated), axis=-1))
    return scalar_or_array(best.reshape(rho.shape[:-2]))


def purity_at_most_half(rhos: np.ndarray) -> np.ndarray:
    """The set the Monte Carlo checks sample: Tr(rho^2) <= 1/2 for each state of a stack,
    with no tolerance (unlike absolute.orbit_safe, which is a membership verdict)."""
    return np.sum(np.abs(rhos) ** 2, axis=(-2, -1)) <= 0.5


def aus3_volume_estimate(samples: int, g: SeededGenerator) -> tuple[float, float]:
    """Fraction of Hilbert-Schmidt random states with purity <= 1/2.

    Returns (fraction, binomial standard error).
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    rng = g.rng()
    hits = 0
    chunk = 8192
    for done in range(0, samples, chunk):
        rhos = states_from_rng(rng, size=min(chunk, samples - done))
        hits += int(np.sum(purity_at_most_half(rhos)))
    fraction = hits / samples
    stderr = float(np.sqrt(fraction * (1.0 - fraction) / samples))
    return fraction, stderr
