"""Threshold scans of the Werner and Gisin families.

Plots F3(orbit optimum) - 1 against the family parameter; the sign change
marks where global-unitary activation becomes possible.  The same curves
are available from the command line:

    steerability scan --family werner --from 0 --to 1 --step 0.001
"""

import numpy as np

import steerability as sb

grid = np.arange(0.0, 1.0 + 1e-12, 0.05)

for family, param_name, closed_form in (
    ("werner", "p", 1 / np.sqrt(3)),
    ("gisin", "lambda", 2 / 3),
):
    result = sb.scan_family(family, grid)
    print(f"\n{family} family")
    print(f"{param_name:>8}   F3* - 1    orbit-safe")
    verdict = result.verdict
    for value, f3, inside in zip(result.grid, verdict.f3_global_max, verdict.in_aus3):
        excess = f3 - 1.0
        bar = "#" * int(20 * max(excess, 0) / 0.8)
        print(f"{value:8.2f}   {excess:+.4f}    {str(inside):5} {bar}")
    fine = sb.scan_family(family, np.arange(0.0, 1.0 + 1e-12, 1e-3))
    print(f"refined boundary: {fine.threshold:.12f}")
    print(f"closed form     : {closed_form:.12f}")

print("\nGisin verdicts do not depend on the angle (the spectrum does not):")
for theta in (0.1, np.pi / 4, 1.4):
    t = sb.scan_family("gisin", np.arange(0.0, 1.0 + 1e-12, 1e-3), theta=theta).threshold
    print(f"  theta = {theta:.4f}: boundary at {t:.12f}")
