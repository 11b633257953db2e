"""The best violation on a unitary orbit lives at a Bell-diagonal state.

Random global unitaries never beat sqrt(4 purity - 1), and the canonical
Bell-diagonal state carrying the same spectrum attains it exactly.
"""

import numpy as np

import steerability as sb

rho = sb.gisin(0.8, 0.3)
verdict = sb.decide_aus3(rho)
bound = verdict.f3_global_max

print("state: gisin(lam = 0.8, theta = 0.3)")
print(f"F3 as given                 : {sb.f3_max(rho):.12f}")
print(f"closed-form orbit optimum   : {bound:.12f}  (= sqrt(4 purity - 1))")

print("\nrandom-unitary sweep (running maximum):")
for trials in (10, 100, 1000, 10_000):
    sup = sb.empirical_f3_sup(rho, trials, sb.SeededGenerator(2024))
    print(f"  {trials:6d} trials: sup = {sup:.12f}   gap = {bound - sup:.2e}")

canonical = sb.bell_diagonal_canonical(rho)
print("\ncanonical Bell-diagonal form")
print(f"  weights on (Phi+, Phi-, Psi+, Psi-): {np.round(canonical.weights, 6)}")
print(f"  F3 of the canonical state          : {sb.f3_max(canonical.matrix):.12f}")
print(f"  unitarity error of the map         : "
      f"{np.max(np.abs(canonical.unitary @ canonical.unitary.conj().T - np.eye(4))):.2e}")

mu = sb.optimal_directions(canonical.matrix, 3)
print("\nmeasurement directions attaining the optimum on the canonical state:")
for i in range(3):
    print(f"  u_{i + 1} = {np.round(mu.u[i], 6)}    v_{i + 1} = {np.round(mu.v[i], 6)}")
print(f"functional at these directions: "
      f"{sb.steering_functional(canonical.matrix, mu):.12f}")
