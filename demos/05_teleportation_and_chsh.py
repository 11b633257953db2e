"""How the steering functionals sit between the CHSH quantity M and the
teleportation quantity N across the Werner family.

All four come from the correlation-matrix singular values s1 >= s2 >= s3:
F2^2 = s1^2 + s2^2 = M, F3^2 = s1^2 + s2^2 + s3^2, N = s1 + s2 + s3,
and F3 <= N always -- so a 3-steerable state is always useful for
teleportation.
"""

import numpy as np

import steerability as sb
from steerability import checks

print(f"{'p':>6} {'M':>8} {'F2':>8} {'F3':>8} {'N':>8}"
      f"  chsh-violating  3-steerable  teleport-useful")
for p in np.arange(0.0, 1.0 + 1e-9, 0.1):
    rho = sb.werner(p)
    aux = sb.aux_criteria(rho)
    f2 = sb.f2_max(rho)
    f3 = sb.f3_max(rho)
    print(f"{p:6.2f} {aux.M:8.4f} {f2:8.4f} {f3:8.4f} {aux.N:8.4f}"
          f"  {str(aux.M > 1):>14}  {str(f3 > 1):>11}  {str(aux.N > 1):>15}")

print("\nthresholds on the Werner line: teleportation at p = 1/3,")
print("3-setting steering at p = 1/sqrt(3) ~ 0.5774, CHSH at p = 1/sqrt(2) ~ 0.7071.")

print("\nF3 <= N on random states (worst margin over 2000 draws):")
_, worst = checks.steer_implies_teleport(2000, 55)
print(f"  max(F3 - N) = {worst:.6f}  (never positive)")
