"""The invariant battery: the paper's claims about the orbit-safe set, each
checked on seeded random states.

Every check takes (n, seed) and returns (ok, worst_margin).  Draws come from
fixed SeededGenerator streams, so a (n, seed) pair always gives the same
margin to the last bit; `steerability verify` prints these margins.
"""

from __future__ import annotations

import numpy as np

from . import absolute, sampling, states, steering, teleport


def _draws(seed: int, streams) -> np.ndarray:
    """Stack of the first random state of each (seed, stream), validated as one stack."""
    rngs = (sampling.SeededGenerator(seed, k).rng() for k in streams)
    return states.validate(np.stack([sampling.states_from_rng(rng) for rng in rngs]))


def maximality(n: int, seed: int) -> tuple[bool, float]:
    """Sampled orbit values never beat the closed form; the canonical
    Bell-diagonal state attains it.  Margin: worst (observed - bound).

    Each of the n states gets its own n sampled unitaries, so the cost
    grows with the square of n.
    """
    rhos = _draws(seed, range(0, 2 * n, 2))
    canonical = absolute.bell_diagonal_canonical(rhos)
    bound = absolute.verdict_of(rhos, canonical.weights, states.to_bloch(rhos)).f3_global_max
    sup = np.array([
        sampling.empirical_f3_sup(rho, n, sampling.SeededGenerator(seed, 2 * k + 1))
        for k, rho in enumerate(rhos)
    ])
    attained = steering.f3_max(canonical.matrix)
    worst = float(np.max(np.maximum(sup - bound, np.abs(attained - bound))))
    return worst <= 1e-9, worst


def four_criteria(n: int, seed: int) -> tuple[bool, float]:
    """All membership routes agree; margin: worst purity-scale spread.

    A spread beyond the boundary tolerance raises InternalInconsistency
    from decide_aus3, naming the four route values and the state.
    """
    worst = float(np.max(absolute.decide_aus3(_draws(seed, range(n))).spread))
    return worst <= 1e-9, worst


def steer_implies_teleport(n: int, seed: int) -> tuple[bool, float]:
    """F3 <= N on every draw; margin: worst F3 - N."""
    rhos = _draws(seed, range(n))
    worst = float(np.max(steering.f3_max(rhos) - teleport.aux_criteria(rhos).N))
    return bool(np.all(teleport.steer_implies_teleport_check(rhos))) and worst <= 1e-10, worst


def convexity(n: int, seed: int) -> tuple[bool, float]:
    """Mixtures of member states stay members; margin: worst purity - 1/2."""
    rng = sampling.SeededGenerator(seed, 0).rng()
    members = np.empty((0, 4, 4), dtype=complex)
    while len(members) < 2 * n:
        batch = sampling.states_from_rng(rng, size=4 * n)
        members = np.concatenate([members, batch[sampling.purity_at_most_half(batch)]])[: 2 * n]
    lam = rng.uniform(size=n)[:, None, None]
    mix = lam * members[0::2] + (1.0 - lam) * members[1::2]
    verdict = absolute.decide_aus3(states.validate(mix))
    return bool(np.all(verdict.in_aus3)), float(np.max(verdict.purity - 0.5))
