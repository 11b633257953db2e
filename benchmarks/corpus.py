"""Seeded corpus of state files for the ``analyze-corpus`` workload.

The generator uses numpy alone, never the library under test, so the
program only ever sees the files it writes.  Every file records a state of
known purity in one of the three accepted forms:

* ``matrix``: 4 rows of 4 ``[re, im]`` pairs,
* ``bloch``:  local Bloch vectors and the correlation matrix,
* ``family``: ``werner {p}``, ``gisin {lambda, theta}`` or ``xstate {v1..v6}``.

Exactly ``n // 3`` states are activatable (purity above 1/2) for any seed,
so about one report in three takes the witness path.  Purities keep 0.05
away from the boundary 1/2, where membership is a matter of tolerance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Out of every ten files: four matrix, three bloch, one of each family.
KINDS = ("matrix",) * 4 + ("bloch",) * 3 + ("werner", "gisin", "xstate")
SAFE_PURITY = (0.34, 0.45)         # gisin needs purity >= 1/3
ACTIVATABLE_PURITY = (0.55, 0.85)

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_I2 = np.eye(2)
_PAULI_A = np.stack([np.kron(s, _I2) for s in _PAULI])
_PAULI_B = np.stack([np.kron(_I2, s) for s in _PAULI])
_PAULI_AB = np.stack([[np.kron(si, sj) for sj in _PAULI] for si in _PAULI])


@dataclass(frozen=True)
class Entry:
    """One generated state file and what its report must show."""

    path: str
    kind: str
    purity: float
    activatable: bool


def _spectrum(rng: np.random.Generator, purity: float) -> np.ndarray:
    """Four eigenvalues with the given purity and smallest eigenvalue >= 0.005.

    lambda = t y + (1 - t) I/4 has purity 1/4 + t^2 (|y|^2 - 1/4); draw y
    until the t that hits the target is at most 0.98.
    """
    while True:
        y = rng.dirichlet(np.full(4, 0.3))
        excess = float(np.sum(y**2)) - 0.25
        if excess > 0 and (purity - 0.25) / excess <= 0.98**2:
            t = np.sqrt((purity - 0.25) / excess)
            return t * y + (1.0 - t) / 4.0


def _haar(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_state(rng: np.random.Generator, purity: float) -> np.ndarray:
    U = _haar(rng)
    rho = (U * _spectrum(rng, purity)) @ U.conj().T
    return (rho + rho.conj().T) / 2  # exactly Hermitian in floating point


def _xstate(rng: np.random.Generator, purity: float) -> dict:
    """X-state parameters: purity = sum v_i^2 + 2 c^2 (v1 v4 + v2 v3)."""
    while True:
        v = rng.dirichlet(np.ones(4))
        base = float(np.sum(v**2))
        room = 2.0 * (v[0] * v[3] + v[1] * v[2])
        if base <= purity and room > 0 and purity - base <= 0.9 * room:
            c = np.sqrt((purity - base) / room)
            s5, s6 = rng.choice((-1.0, 1.0), size=2)
            return {
                "v1": v[0], "v2": v[1], "v3": v[2], "v4": v[3],
                "v5": s5 * c * np.sqrt(v[0] * v[3]),
                "v6": s6 * c * np.sqrt(v[1] * v[2]),
            }


def _record(rng: np.random.Generator, kind: str, purity: float) -> dict:
    if kind == "werner":
        p = np.sqrt((4.0 * purity - 1.0) / 3.0)
        return {"format": "family", "family": "werner", "parameters": {"p": p}}
    if kind == "gisin":
        lam = (1.0 + np.sqrt(6.0 * purity - 2.0)) / 3.0
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        return {
            "format": "family",
            "family": "gisin",
            "parameters": {"lambda": lam, "theta": theta},
        }
    if kind == "xstate":
        return {"format": "family", "family": "xstate", "parameters": _xstate(rng, purity)}
    rho = _random_state(rng, purity)
    if kind == "matrix":
        return {
            "format": "matrix",
            "matrix": [[[z.real, z.imag] for z in row] for row in rho],
        }
    return {
        "format": "bloch",
        "a": np.real(np.einsum("iab,ba->i", _PAULI_A, rho)).tolist(),
        "b": np.real(np.einsum("iab,ba->i", _PAULI_B, rho)).tolist(),
        "T": np.real(np.einsum("ijab,ba->ij", _PAULI_AB, rho)).tolist(),
    }


def generate(seed: int, n: int, directory: str) -> list[Entry]:
    """Write n state files under directory; the same seed gives the same files."""
    rng = np.random.default_rng([0x636F7270, seed])
    activatable = np.zeros(n, dtype=bool)
    activatable[: n // 3] = True
    activatable = rng.permutation(activatable)
    kinds = rng.permutation(np.resize(np.array(KINDS), n))
    os.makedirs(directory, exist_ok=True)
    entries = []
    for k in range(n):
        lo, hi = ACTIVATABLE_PURITY if activatable[k] else SAFE_PURITY
        purity = float(rng.uniform(lo, hi))
        path = os.path.join(directory, f"{k:04d}.json")
        with open(path, "w") as fh:
            json.dump(_record(rng, str(kinds[k]), purity), fh)
        entries.append(Entry(path, str(kinds[k]), purity, bool(activatable[k])))
    return entries
