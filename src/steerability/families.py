"""Benchmark state families and parameter-threshold scans.

Closed forms used by the scans:
  * Werner  p |psi-><psi-| + (1-p) I/4: spectrum {(1+3p)/4, (1-p)/4 x3},
    orbit optimum sqrt(3) p, boundary p = 1/sqrt(3).
  * Gisin   lam |psi_theta><psi_theta| + (1-lam) (|00><00| + |11><11|)/2:
    spectrum {lam, (1-lam)/2 x2, 0} independent of theta, boundary lam = 2/3.
  * X states: purity sum v_i^2 + 2(v5^2 + v6^2), boundary at 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import OutOfRange
from .linalg import bisect, first_failure
from . import absolute, states

#: Families admitting a one-parameter threshold scan.
SCANNABLE = ("werner", "gisin")

#: States built and decided per stack in scan_family (bounds its peak memory).
SCAN_CHUNK = 8192

GHZ_STATE = np.zeros(8, dtype=complex)
GHZ_STATE[0] = GHZ_STATE[7] = 1 / np.sqrt(2.0)

W_STATE = np.zeros(8, dtype=complex)
W_STATE[1] = W_STATE[2] = W_STATE[4] = 1 / np.sqrt(3.0)


@dataclass(frozen=True)
class ScanResult:
    grid: np.ndarray                   # (n,) parameter values
    verdict: absolute.AbsoluteVerdict  # fields are (n,) arrays, one entry per grid value
    threshold: float | None            # refined boundary parameter, None if no crossing


def _weights(family: str, w) -> np.ndarray:
    """w as a (..., 1, 1) float array, checked to lie in [0, 1]; the first bad entry is named."""
    arr = np.asarray(w, dtype=float)
    if (i := first_failure((0.0 <= arr) & (arr <= 1.0))) is not None:
        raise OutOfRange(f"{family} weight must lie in [0, 1], got {arr[i]}")
    return arr[..., None, None]


def werner(p) -> np.ndarray:
    """Mixture of the singlet with white noise, weight p in [0, 1] (a weight array: a stack)."""
    p = _weights("werner", p)
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    return states.validate(p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0)


def gisin(lam, theta: float) -> np.ndarray:
    """Mixture of sin(theta)|01> + cos(theta)|10> with an even |00>/|11> mix (lam as in werner)."""
    lam = _weights("gisin", lam)
    if not 0.0 < theta < np.pi / 2:
        raise OutOfRange(f"gisin angle must lie in (0, pi/2), got {theta}")
    psi = np.array([0, np.sin(theta), np.cos(theta), 0], dtype=complex)
    mix = np.zeros((4, 4), dtype=complex)
    mix[0, 0] = mix[3, 3] = 0.5
    return states.validate(lam * np.outer(psi, psi.conj()) + (1.0 - lam) * mix)


def x_state(v1: float, v2: float, v3: float, v4: float, v5: float, v6: float) -> np.ndarray:
    """Diagonal weights v1..v4 with anti-diagonal coherences v5 (00/11) and v6 (01/10)."""
    diag = np.array([v1, v2, v3, v4], dtype=float)
    if not np.all(diag >= 0.0):
        raise OutOfRange(f"diagonal weights must be nonnegative, got {diag}")
    if not abs(diag.sum() - 1.0) <= 1e-10:
        raise OutOfRange(f"diagonal weights must sum to 1, got {diag.sum():.12g}")
    if not (abs(v5) <= 1.0 and abs(v6) <= 1.0):  # before squaring, which could overflow
        raise OutOfRange(f"need |v5|, |v6| <= 1, got v5 = {v5}, v6 = {v6}")
    if not v5**2 <= v1 * v4 + 1e-15:
        raise OutOfRange(f"need v5^2 <= v1 v4, got {v5**2:.12g} > {v1 * v4:.12g}")
    if not v6**2 <= v2 * v3 + 1e-15:
        raise OutOfRange(f"need v6^2 <= v2 v3, got {v6**2:.12g} > {v2 * v3:.12g}")
    M = np.diag(diag).astype(complex)
    M[0, 3] = M[3, 0] = v5
    M[1, 2] = M[2, 1] = v6
    return states.validate(M)


def _predicted_walk(values_of, lo: float, hi: float, ends, width: float):
    """A bisect predicate on [lo, hi], holding where a value exceeds 1.0, from values_of, which
    maps a float array to values entry by entry; ends holds the values at lo and hi.

    At a midpoint it has not seen, it starts a round from the nearest decided values below
    and above it, which are the ends of that midpoint's interval: bisect stepped through
    both, and a round's points after its first wrong guess lie in the half bisect left. It
    predicts each answer from the line through those values (equal ends predict one answer
    throughout), walks bisect on the prediction, and decides every midpoint of the walk in
    one values_of call. bisect still picks every step from decided values, so it asks and
    returns what it would with one values_of call per step.
    """
    # Python floats, so an overflowing slope is inf without a warning; 0.0 and -0.0 share a key
    value = dict(zip((lo, hi), map(float, ends)))

    def above(mid: float) -> bool:
        if mid not in value:
            x0, x1 = max(x for x in value if x < mid), min(x for x in value if x > mid)
            f0, slope = value[x0], (value[x1] - value[x0]) / (x1 - x0)
            points = []

            def predict(m: float) -> bool:
                points.append(m)
                return f0 + slope * (m - x0) > 1.0

            bisect(predict, x0, x1, width)
            value.update(zip(points, values_of(np.array(points)).tolist()))
        return value[mid] > 1.0

    return above


def scan_family(family: str, grid, theta: float = np.pi / 4) -> ScanResult:
    """Evaluate a one-parameter family on a grid and refine its boundary.

    The family states are built and decided in stacks of SCAN_CHUNK grid
    values.  A sign change of (orbit optimum - 1) between neighbours is
    refined by bisection to 1e-9; each stack decides the walk predicted by
    interpolating the decided values (_predicted_walk), and the walk and its
    threshold are those of one state per step.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise OutOfRange("parameter grid must be a nonempty 1-d sequence")
    if family not in SCANNABLE:
        raise OutOfRange(f"scannable families are {SCANNABLE}, got {family!r}")

    def decide(values) -> absolute.AbsoluteVerdict:
        return absolute.decide_aus3(werner(values) if family == "werner" else gisin(values, theta))

    chunks = [decide(grid[i : i + SCAN_CHUNK]) for i in range(0, grid.size, SCAN_CHUNK)]
    verdict = absolute.AbsoluteVerdict(
        **{f.name: np.concatenate([getattr(c, f.name) for c in chunks]) for f in fields(chunks[0])}
    )
    # The orbit optimum is 1 exactly on the boundary (Gisin starts there at lam = 0),
    # so the crossing is found from the tolerant flag; the strict refinement
    # keeps the exact threshold (orbit_safe would move Werner's by 1.15e-9).
    threshold = None
    flags = verdict.in_aus3
    crossings = np.flatnonzero(flags[:-1] & ~flags[1:])
    if crossings.size:
        i = crossings[0]
        lo, hi = float(grid[i]), float(grid[i + 1])
        ends = verdict.f3_global_max[i : i + 2]
        above = _predicted_walk(lambda mids: decide(mids).f3_global_max, lo, hi, ends, 1e-9)
        threshold = bisect(above, lo, hi, 1e-9)
    return ScanResult(grid=grid, verdict=verdict, threshold=threshold)
