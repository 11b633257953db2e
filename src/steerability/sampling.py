"""Seeded randomness: Haar unitaries, Hilbert-Schmidt random states, and the
Monte Carlo estimates built on them.

Every public operation is a pure function of its inputs and a (seed, stream) pair, or one
such pair per state of a stack.  The volume estimate reads each state's purity from its
Ginibre draw, builds rho only where that purity cannot settle the verdict (so its counts
equal the rho-based test's), and draws the next chunk on a worker thread into the second
of two chunk buffers: 20,000 draws took 17.2 ms, 11.8 ms threaded, on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

from . import states, steering
from .linalg import scalar_or_array

# aus3_volume_estimate decides a state whose fast purity lies this close to 1/2
# again from rho; the fast and rho-based purities differ by rounding only.
_HS_GUARD = 1e-12
# Sampled unitaries empirical_f3_sup holds at once below 4096 trials: it sweeps
# max(1, _SWEEP_UNITARIES // trials) states per stack.  One stack saves the
# per-state QR and f3_max overhead at few trials; at 300 trials a stack of more
# than one state was slower than one state per stack.
_SWEEP_UNITARIES = 512


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


def _ginibre_parts(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out[0], then out[1], of a (2, n, 4, 4) buffer with _ginibre(rng, (n, 4, 4))'s normals."""
    for part in out:
        rng.standard_normal(out=part)


def _hs_purity(parts: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of rho = G G^dagger / Tr(G G^dagger), G = parts[0] + i parts[1], for a (2, n, 4, 4)
    stack, from G's real row products, batch last, 4096 at a time; within 7.8e-16 of rho's (10^7 draws)."""
    n = parts.shape[1]
    buffer, purity = np.empty((4, 8, min(n, 4096))), np.empty(n)
    for lo in range(0, n, 4096):
        x = buffer[..., : min(4096, n - lo)]  # x[i, :4], x[i, 4:]: parts of G[:, i, :]
        np.copyto(x.reshape(4, 2, 4, -1), parts[:, lo : lo + 4096].transpose(2, 0, 3, 1))
        rows = [np.sum(row * row, axis=0) for row in x]  # diagonal of G G^dagger
        square = sum(d * d for d in rows)
        for i, j in itertools.combinations(range(4), 2):
            real = np.sum(x[i] * x[j], axis=0)
            imag = np.sum(x[i, 4:] * x[j, :4] - x[i, :4] * x[j, 4:], axis=0)
            square = square + 2 * (real * real + imag * imag)
        purity[lo : lo + 4096] = square / sum(rows) ** 2
    return purity


def haar_from_rng(rng: np.random.Generator, dim: int = 4, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries from an existing generator."""
    return _haar(_ginibre(rng, (dim, dim) if size is None else (size, dim, dim)))


def states_from_rng(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt-measure states from an existing generator."""
    return _hilbert_schmidt(_ginibre(rng, (4, 4) if size is None else (size, 4, 4)))


def random_state(g: SeededGenerator | list[SeededGenerator]) -> np.ndarray:
    """First Hilbert-Schmidt random state of the stream, validated, drawn as a one-element list;
    for a list of n streams, the (n, 4, 4) stack of their first states, each as drawn alone."""
    streams = [g] if isinstance(g, SeededGenerator) else g
    rhos = states.validate(_hilbert_schmidt(np.stack([_ginibre(one.rng(), (4, 4)) for one in streams])))
    return rhos[0] if isinstance(g, SeededGenerator) else rhos


def empirical_f3_sup(
    rho: np.ndarray, trials: int, g: SeededGenerator | list[SeededGenerator]
) -> float | np.ndarray:
    """Largest best-three-setting value seen over sampled global unitaries,
    for one state and its SeededGenerator or a (..., 4, 4) stack and one per state.

    The sweep always includes the identity, so the input state's own value
    is a floor.  The result can never exceed the closed-form orbit optimum
    sqrt(4 Tr(rho^2) - 1); the gap shrinks as trials grow.  Each state draws
    its unitaries from its own generator in chunks of 4096, so a stack gives
    the bits of its states one at a time; states are swept in stacks of
    max(1, 512 // trials), which bounds the memory a large stack takes.
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
    step, chunk = max(1, _SWEEP_UNITARIES // trials), 4096
    for first in range(0, len(flat), step):
        stack = slice(first, first + step)
        for done in range(0, trials, chunk):
            shape = (min(chunk, trials - done), 4, 4)
            U = _haar(np.stack([_ginibre(rng, shape) for rng in rngs[stack]]))
            conjugated = U @ flat[stack, None] @ np.swapaxes(U.conj(), -2, -1)
            best[stack] = np.maximum(best[stack], np.max(steering.f3_max(conjugated), axis=-1))
    return scalar_or_array(best.reshape(rho.shape[:-2]))


def purity_at_most_half(rhos: np.ndarray) -> np.ndarray:
    """The set the Monte Carlo checks sample: Tr(rho^2) <= 1/2 for each state of a stack,
    with no tolerance (unlike absolute.orbit_safe, which is a membership verdict)."""
    return np.sum(np.abs(rhos) ** 2, axis=(-2, -1)) <= 0.5


def aus3_volume_estimate(samples: int, g: SeededGenerator) -> tuple[float, float]:
    """Fraction of Hilbert-Schmidt random states with purity <= 1/2.

    Returns (fraction, binomial standard error).  Draws Ginibre matrices in chunks of 8192
    and reads each purity from the draw (_hs_purity); a state within _HS_GUARD of 1/2 is
    decided by purity_at_most_half on its rho, so every verdict equals that rho-based test's.
    One worker thread draws chunk k + 1 (in single-thread order) into the second of two chunk
    buffers while the caller reduces chunk k: 17.2 ms, 11.8 ms threaded, for 20,000 draws.
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    rng, sizes = g.rng(), [min(8192, samples - done) for done in range(0, samples, 8192)]
    parts, handoff, failed = np.empty((2, 2, sizes[0], 4, 4)), threading.Barrier(2), []
    def draw() -> None:  # the only code that touches rng while the worker runs
        try:
            for k, n in enumerate(sizes):
                _ginibre_parts(rng, parts[k % 2, :, :n])
                handoff.wait()  # chunk k is drawn and chunk k - 1 reduced
        except BaseException as exc:  # BrokenBarrierError if the caller failed first
            failed.append(exc)
            handoff.abort()

    worker, hits = threading.Thread(target=draw), 0
    worker.start()
    try:
        for chunk in (parts[k % 2, :, :n] for k, n in enumerate(sizes)):
            handoff.wait()
            purity = _hs_purity(chunk)
            inside, near = purity <= 0.5, np.abs(purity - 0.5) <= _HS_GUARD
            inside[near] = purity_at_most_half(_hilbert_schmidt(chunk[0, near] + 1j * chunk[1, near]))
            hits += int(np.count_nonzero(inside))
    except threading.BrokenBarrierError:  # the worker failed
        raise failed[0] from None
    except BaseException:
        handoff.abort()  # only on an error: the worker may still be waking from its last wait
        raise
    finally:
        worker.join()
    fraction = hits / samples
    return fraction, float(np.sqrt(fraction * (1.0 - fraction) / samples))
