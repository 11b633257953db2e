"""Two-qubit density matrices: validation, Hilbert-Schmidt (Bloch) form,
spectra, and pure three-qubit reductions.

Conventions fixed here and relied on everywhere else:
  * Pauli order X, Y, Z; qubit order A (left Kronecker factor) then B.
  * Computational basis |00>, |01>, |10>, |11>; three-qubit kets
    |000> .. |111> lexicographic.
  * Bell basis order {Phi+, Phi-, Psi+, Psi-}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency, NotHermitian, NotPositive, NotUnitTrace
from .linalg import HERM_TOL, at_state, first_failure, frobenius_norm, hermitian_eigensystem
from .linalg import scalar_or_array, square

# Window in which a slightly negative eigenvalue is treated as round-off.
EIG_CLAMP_TOL = 1e-10

PAULI_1Q = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_I2 = np.eye(2, dtype=complex)

# Kronecker tables: PAULI_A[i] = s_i (x) I, PAULI_B[j] = I (x) s_j,
# PAULI_AB[i, j] = s_i (x) s_j.
PAULI_A = np.stack([np.kron(s, _I2) for s in PAULI_1Q])
PAULI_B = np.stack([np.kron(_I2, s) for s in PAULI_1Q])
PAULI_AB = np.stack([[np.kron(si, sj) for sj in PAULI_1Q] for si in PAULI_1Q])

_RT2 = np.sqrt(2.0)
# Columns: Phi+ = (|00>+|11>)/rt2, Phi- = (|00>-|11>)/rt2,
#          Psi+ = (|01>+|10>)/rt2, Psi- = (|01>-|10>)/rt2.
BELL_BASIS = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=complex,
) / _RT2


@dataclass(frozen=True)
class BlochForm:
    """Local Bloch vectors and correlation matrix of a two-qubit state."""

    a: np.ndarray  # (..., 3) Alice Bloch vector
    b: np.ndarray  # (..., 3) Bob Bloch vector
    T: np.ndarray  # (..., 3, 3) correlation matrix T_ij = Tr(rho s_i (x) s_j)


@dataclass(frozen=True)
class SpectrumReport:
    """Descending eigenvalues of a state plus derived scalars (arrays for a stack)."""

    eigenvalues: np.ndarray           # (..., 4), descending
    purity: float | np.ndarray        # sum of squared eigenvalues
    pairwise_sum: float | np.ndarray  # sum_{i<j} x_i x_j


def validate(M: np.ndarray) -> np.ndarray:
    """Check a 4x4 matrix or (..., 4, 4) stack for state-hood and return it (cleaned).

    Hermiticity and unit trace are required within 1e-10.  Eigenvalues in
    [-1e-10, 0) are treated as round-off: they are clamped to zero and the
    state is renormalized.  Anything more negative raises NotPositive.  In a
    stack, the first failing state is named by its index.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    H = np.swapaxes(M.conj(), -2, -1)
    dev = np.abs(M - H).max(axis=(-2, -1))
    if (i := first_failure(dev > HERM_TOL)) is not None:
        raise NotHermitian(f"max |M - M^dagger| = {dev[i]:.3e} exceeds {HERM_TOL:.1e}{at_state(i)}")
    tr = np.trace(M, axis1=-2, axis2=-1)
    if (i := first_failure(np.abs(tr - 1.0) > 1e-10)) is not None:
        raise NotUnitTrace(f"trace = {tr[i]:.12g}, expected 1{at_state(i)}")
    sys = hermitian_eigensystem((M + H) / 2)
    w = sys.eigenvalues
    if (i := first_failure(w[..., -1] < -EIG_CLAMP_TOL)) is not None:
        raise NotPositive(f"eigenvalue {w[i][-1]:.3e} below -{EIG_CLAMP_TOL:.1e}{at_state(i)}")
    clamp = w[..., -1] < 0.0
    if clamp.any():
        V = sys.eigenvectors
        R = (V * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(V.conj(), -2, -1)
        R = R / np.trace(R, axis1=-2, axis2=-1).real[..., None, None]
        M = np.where(clamp[..., None, None], R, M)
    return M


def to_bloch(rho: np.ndarray) -> BlochForm:
    """Hilbert-Schmidt decomposition of a valid state or a (..., 4, 4) stack.

    a_i = Tr(rho s_i (x) I), b_j = Tr(rho I (x) s_j), T_ij = Tr(rho s_i (x) s_j).
    """
    rho = np.asarray(rho, dtype=complex)
    a = np.real(np.einsum("iab,...ba->...i", PAULI_A, rho))
    b = np.real(np.einsum("iab,...ba->...i", PAULI_B, rho))
    T = np.real(np.einsum("ijab,...ba->...ij", PAULI_AB, rho))
    return BlochForm(a=a, b=b, T=T)


def from_bloch(form: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from Bloch data; inverse of to_bloch.

    Raises NotPositive when the data does not describe a state.
    """
    a = np.asarray(form.a, dtype=float)
    b = np.asarray(form.b, dtype=float)
    T = np.asarray(form.T, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # finite data can still overflow
        M = (
            np.eye(4, dtype=complex)
            + np.einsum("i,iab->ab", a, PAULI_A)
            + np.einsum("j,jab->ab", b, PAULI_B)
            + np.einsum("ij,ijab->ab", T, PAULI_AB)
        ) / 4.0
    if not np.all(np.isfinite(M)):
        raise NotPositive("Bloch data gives a non-finite matrix, so it describes no state")
    return validate(M)


def spectrum_report(rho: np.ndarray) -> SpectrumReport:
    """Descending spectrum, purity and pairwise eigenvalue sum of a state or stack.

    Purity is computed both spectrally and as the squared Frobenius norm;
    disagreement beyond 1e-10 raises InternalInconsistency naming the state.
    """
    rho = np.asarray(rho, dtype=complex)
    w = hermitian_eigensystem(rho).eigenvalues
    purity = np.sum(w**2, axis=-1)
    frob = np.asarray(square(frobenius_norm(rho)))
    if (i := first_failure(np.abs(purity - frob) > 1e-10)) is not None:
        raise InternalInconsistency(
            f"spectral purity {purity[i]:.15g} vs Frobenius purity {frob[i]:.15g}{at_state(i)}"
        )
    return SpectrumReport(eigenvalues=w, purity=scalar_or_array(purity), pairwise_sum=pairwise_sum(w))


def pairwise_sum(x: np.ndarray) -> float | np.ndarray:
    """sum_{i<j} x_i x_j of four eigenvalues (last axis), summed in a fixed order."""
    return scalar_or_array(sum(x[..., i] * x[..., j] for i in range(4) for j in range(i + 1, 4)))


def _check_pure3(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (8,):
        raise ValueError(f"expected 8 amplitudes, got shape {psi.shape}")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if abs(norm_sq - 1.0) > 1e-12:
        raise ValueError(f"state vector norm^2 = {norm_sq:.15g}, expected 1")
    return psi


def reduce_to_pair(psi: np.ndarray, keep: str) -> np.ndarray:
    """Partial trace of a pure three-qubit state onto qubit pair AB, BC or AC."""
    psi = _check_pure3(psi)
    t = psi.reshape(2, 2, 2)
    if keep == "AB":
        rho = np.einsum("abc,dec->abde", t, t.conj())
    elif keep == "BC":
        rho = np.einsum("abc,ade->bcde", t, t.conj())
    elif keep == "AC":
        rho = np.einsum("abc,dbe->acde", t, t.conj())
    else:
        raise ValueError(f"keep must be 'AB', 'BC' or 'AC', got {keep!r}")
    return validate(rho.reshape(4, 4))


def single_qubit_bloch_norm(psi: np.ndarray, which: str) -> float:
    """Bloch-vector length of one marginal qubit of a pure three-qubit state."""
    psi = _check_pure3(psi)
    t = psi.reshape(2, 2, 2)
    if which == "A":
        rho1 = np.einsum("abc,dbc->ad", t, t.conj())
    elif which == "B":
        rho1 = np.einsum("abc,adc->bd", t, t.conj())
    elif which == "C":
        rho1 = np.einsum("abc,abd->cd", t, t.conj())
    else:
        raise ValueError(f"which must be 'A', 'B' or 'C', got {which!r}")
    vec = np.real(np.einsum("iab,ba->i", PAULI_1Q, rho1))
    return float(np.linalg.norm(vec))
