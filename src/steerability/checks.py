"""The invariant battery: the paper's claims about the orbit-safe set, each
checked on seeded random states.

Every check takes (n, seed) and returns (ok, worst_margin).  Draws come from
fixed SeededGenerator streams, so a (n, seed) pair always gives the same
margin to the last bit; `steerability verify` prints these margins.
"""

from __future__ import annotations

import numpy as np

from . import absolute, sampling, states, steering, teleport


def maximality(n: int, seed: int) -> tuple[bool, float]:
    """Sampled orbit values never beat the closed form; the canonical
    Bell-diagonal state attains it.  Margin: worst (observed - bound)."""
    worst = -np.inf
    for k in range(n):
        rho = sampling.random_state(sampling.SeededGenerator(seed, 2 * k))
        bound = absolute.decide_aus3(rho).f3_global_max
        sup = sampling.empirical_f3_sup(rho, n, sampling.SeededGenerator(seed, 2 * k + 1))
        canonical = absolute.bell_diagonal_canonical(rho)
        attained = steering.f3_max(canonical.matrix).value
        worst = max(worst, sup - bound, abs(attained - bound))
    return worst <= 1e-9, worst


def four_criteria(n: int, seed: int) -> tuple[bool, float]:
    """All membership routes agree; margin: worst purity-scale spread.

    A spread beyond the boundary tolerance raises InternalInconsistency
    from decide_aus3, naming the four route values.
    """
    worst = 0.0
    for k in range(n):
        rho = sampling.random_state(sampling.SeededGenerator(seed, k))
        worst = max(worst, absolute.decide_aus3(rho).spread)
    return worst <= 1e-9, worst


def steer_implies_teleport(n: int, seed: int) -> tuple[bool, float]:
    """F3 <= N on every draw; margin: worst F3 - N."""
    worst = -np.inf
    ok = True
    for k in range(n):
        rho = sampling.random_state(sampling.SeededGenerator(seed, k))
        f3 = steering.f3_max(rho).value
        n_value = teleport.teleportation_N(rho)
        worst = max(worst, f3 - n_value)
        # teleport.steer_implies_teleport_check, on the values computed above
        ok = ok and (f3 <= 1.0 or n_value > 1.0)
    return ok and worst <= 1e-10, worst


def convexity(n: int, seed: int) -> tuple[bool, float]:
    """Mixtures of member states stay members; margin: worst purity - 1/2."""
    rng = sampling.SeededGenerator(seed, 0).rng()
    members: list[np.ndarray] = []
    while len(members) < 2 * n:
        batch = sampling.states_from_rng(rng, size=4 * n)
        for rho in batch:
            if np.sum(np.abs(rho) ** 2) <= 0.5:
                members.append(rho)
                if len(members) == 2 * n:
                    break
    worst = -np.inf
    ok = True
    for k in range(n):
        lam = rng.uniform()
        mix = lam * members[2 * k] + (1.0 - lam) * members[2 * k + 1]
        verdict = absolute.decide_aus3(states.validate(mix))
        worst = max(worst, verdict.purity - 0.5)
        ok = ok and verdict.in_aus3
    return ok, worst
