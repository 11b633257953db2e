"""Deciding whether a global unitary can ever make a state violate the
three-setting steering bound.

Four independent criteria answer the same question and must agree:
spectrum, purity, Bloch parameters, and the distance from the maximally
mixed state.
"""

import numpy as np

import steerability as sb

CASES = [
    ("maximally mixed I/4", np.eye(4) / 4),
    ("werner p = 0.5", sb.werner(0.5)),
    ("werner p = 1/sqrt(3) (boundary)", sb.werner(1 / np.sqrt(3))),
    ("werner p = 0.6", sb.werner(0.6)),
    ("gisin lam = 0.8, theta = 0.3", sb.gisin(0.8, 0.3)),
    ("singlet", sb.werner(1.0)),
]

print("=" * 72)
print("membership of the orbit-safe set (no violation under ANY global unitary)")
print("=" * 72)

for name, rho in CASES:
    verdict = sb.decide_aus3(rho)
    ball = sb.frobenius_ball_check(rho)
    as_given = sb.f3_max(rho)
    print(f"\n{name}")
    print(f"  F3 with the best fixed measurements : {as_given:.6f}"
          f"  -> steerable as given: {as_given > 1}")
    print(f"  best F3 over the whole unitary orbit: {verdict.f3_global_max:.6f}")
    print(f"  purity                              : {verdict.purity:.6f} (threshold 1/2)")
    print(f"  |a|^2 + |b|^2 + ||T||^2             : {verdict.bloch_sum:.6f} (threshold 1)")
    print(f"  inside radius-1/2 Frobenius ball    : {ball}")
    print(f"  orbit-safe                          : {verdict.in_aus3}")

print("\nThe interesting case is gisin(0.8, 0.3): it satisfies the inequality")
print("as given (F3 = 0.876 <= 1) yet its purity 0.66 exceeds 1/2, so some")
print("global unitary pushes it past the bound. Werner p = 0.5 is safe on its")
print("entire orbit; p = 0.6 already violates with fixed measurements.")
