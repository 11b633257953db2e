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


def haar_from_rng(rng: np.random.Generator, dim: int = 4, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries from an existing generator.

    Ginibre draw, QR factorization, then column phases fixed so the
    triangular factor has positive diagonal (removing the factorization
    ambiguity that would bias the distribution).
    """
    shape = (dim, dim) if size is None else (size, dim, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phase = diag / np.abs(diag)
    return q * phase[..., None, :]


def states_from_rng(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt-measure states: rho = G G^dagger / Tr(G G^dagger)."""
    shape = (4, 4) if size is None else (size, 4, 4)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gg = g @ np.swapaxes(g.conj(), -2, -1)
    tr = np.trace(gg, axis1=-2, axis2=-1).real
    return gg / tr[..., None, None]


def haar_unitary(g: SeededGenerator) -> np.ndarray:
    """First Haar unitary of the stream; identical (seed, stream) give identical output."""
    return haar_from_rng(g.rng())


def random_state(g: SeededGenerator) -> np.ndarray:
    """First Hilbert-Schmidt random state of the stream, validated."""
    return states.validate(states_from_rng(g.rng()))


def empirical_f3_sup(rho: np.ndarray, trials: int, g: SeededGenerator) -> float:
    """Largest best-three-setting value seen over sampled global unitaries.

    The sweep always includes the identity, so the input state's own value
    is a floor.  The result can never exceed the closed-form orbit optimum
    sqrt(4 Tr(rho^2) - 1); the gap shrinks as trials grow.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rho = np.asarray(rho, dtype=complex)
    best = steering.f3_max(rho)
    rng = g.rng()
    chunk = 4096
    done = 0
    while done < trials:
        count = min(chunk, trials - done)
        U = haar_from_rng(rng, size=count)
        conjugated = U @ rho @ np.swapaxes(U.conj(), -2, -1)
        best = max(best, float(np.max(steering.f3_max(conjugated))))
        done += count
    return best


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
    done = 0
    while done < samples:
        count = min(chunk, samples - done)
        rhos = states_from_rng(rng, size=count)
        hits += int(np.sum(purity_at_most_half(rhos)))
        done += count
    fraction = hits / samples
    stderr = float(np.sqrt(fraction * (1.0 - fraction) / samples))
    return fraction, stderr
