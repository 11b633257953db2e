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

# Kronecker table PAULI_2Q[m, n] = s_m (x) s_n, with s_0 = I and s_1, s_2, s_3 = X, Y, Z.
PAULI_2Q = np.stack([[np.kron(si, sj) for sj in (_I2, *PAULI_1Q)] for si in (_I2, *PAULI_1Q)])

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

    eigenvalues: np.ndarray     # (..., 4), descending
    purity: float | np.ndarray  # sum of squared eigenvalues


def validate(M: np.ndarray) -> np.ndarray:
    """Check a 4x4 matrix or (..., 4, 4) stack for state-hood and return it (cleaned).

    A non-finite entry raises NotPositive first.  Hermiticity and unit trace are required within
    1e-10; the state returned is the Hermitian part (M + M^dagger)/2 whose magnitude and spectrum
    are checked, so every later route reads one matrix.  Eigenvalues in [-1e-10, 0) are round-off:
    they are clamped to zero and the state is renormalized.  Anything more negative raises
    NotPositive, as does an entry beyond 2 in magnitude (a state's lie in the unit disc), checked
    before the eigensolve, which may not converge on it.  A stack names its first failing state.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
    if (i := first_failure(np.isfinite(M).all(axis=(-2, -1)))) is not None:
        raise NotPositive(f"non-finite matrix entry, so it describes no state{at_state(i)}")
    H = np.swapaxes(M.conj(), -2, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # finite entries can still overflow
        dev = np.abs(M - H).max(axis=(-2, -1))
        tr = np.trace(M, axis1=-2, axis2=-1)
        mean = (M + H) / 2  # an overflowing entry fails the check on its magnitude below
    if (i := first_failure(dev <= HERM_TOL)) is not None:
        raise NotHermitian(f"max |M - M^dagger| = {dev[i]:.3e} exceeds {HERM_TOL:.1e}{at_state(i)}")
    if (i := first_failure(np.abs(tr - 1.0) <= 1e-10)) is not None:
        raise NotUnitTrace(f"trace = {tr[i]:.12g}, expected 1{at_state(i)}")
    peak = np.abs(mean).max(axis=(-2, -1))
    if (i := first_failure(peak <= 2.0)) is not None:
        raise NotPositive(f"entry of magnitude {peak[i]:.3e} exceeds 2{at_state(i)}")
    sys = hermitian_eigensystem(mean)
    w = sys.eigenvalues
    if (i := first_failure(w[..., -1] >= -EIG_CLAMP_TOL)) is not None:
        raise NotPositive(f"eigenvalue {w[i][-1]:.3e} below -{EIG_CLAMP_TOL:.1e}{at_state(i)}")
    clamp = w[..., -1] < 0.0
    if clamp.any():
        V = sys.eigenvectors
        R = (V * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(V.conj(), -2, -1)
        R = R / np.trace(R, axis1=-2, axis2=-1).real[..., None, None]
        mean = np.where(clamp[..., None, None], R, mean)
    return mean


def to_bloch(rho: np.ndarray) -> BlochForm:
    """Hilbert-Schmidt decomposition of a valid state or a (..., 4, 4) stack.

    a_i = R_i0, b_j = R_0j and T_ij = R_ij of R_mn = Tr(rho s_m (x) s_n), with s_0 = I.
    """
    R = np.real(np.einsum("mnab,...ba->...mn", PAULI_2Q, np.asarray(rho, dtype=complex)))
    return BlochForm(a=R[..., 1:, 0], b=R[..., 0, 1:], T=R[..., 1:, 1:])


def from_bloch(form: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from Bloch data; inverse of to_bloch.

    validate raises NotPositive when the data describes no state, an overflowing sum included.
    """
    a = np.asarray(form.a, dtype=float)
    b = np.asarray(form.b, dtype=float)
    T = np.asarray(form.T, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # finite data can still overflow
        M = (
            np.eye(4, dtype=complex)
            + np.einsum("i,iab->ab", a, PAULI_2Q[1:, 0])
            + np.einsum("j,jab->ab", b, PAULI_2Q[0, 1:])
            + np.einsum("ij,ijab->ab", T, PAULI_2Q[1:, 1:])
        ) / 4.0
    return validate(M)


def spectrum_report(rho: np.ndarray) -> SpectrumReport:
    """Descending spectrum and purity of a state or stack.

    Purity is computed both spectrally and as the squared Frobenius norm;
    disagreement beyond 1e-10 raises InternalInconsistency naming the state.
    """
    return spectrum_of(rho, hermitian_eigensystem(rho).eigenvalues)


def spectrum_of(rho: np.ndarray, w: np.ndarray) -> SpectrumReport:
    """spectrum_report of rho from its descending eigenvalues w (..., 4), already computed."""
    purity = np.sum(w**2, axis=-1)
    frob = np.asarray(square(frobenius_norm(rho)))
    if (i := first_failure(np.abs(purity - frob) <= 1e-10)) is not None:
        raise InternalInconsistency(
            f"spectral purity {purity[i]:.15g} vs Frobenius purity {frob[i]:.15g}{at_state(i)}"
        )
    return SpectrumReport(eigenvalues=w, purity=scalar_or_array(purity))


def _check_pure3(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (8,):
        raise ValueError(f"expected 8 amplitudes, got shape {psi.shape}")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if not abs(norm_sq - 1.0) <= 1e-12:
        raise ValueError(f"state vector norm^2 = {norm_sq:.15g}, expected 1")
    return psi


# Partial traces of a three-qubit tensor t[a, b, c] onto a qubit pair or one qubit.
_PAIR_TRACES = {"AB": "abc,dec->abde", "BC": "abc,ade->bcde", "AC": "abc,dbe->acde"}
_QUBIT_TRACES = {"A": "abc,dbc->ad", "B": "abc,adc->bd", "C": "abc,abd->cd"}


def reduce_to_pair(psi: np.ndarray, keep: str) -> np.ndarray:
    """Partial trace of a pure three-qubit state onto qubit pair AB, BC or AC."""
    t = _check_pure3(psi).reshape(2, 2, 2)
    if keep not in _PAIR_TRACES:
        raise ValueError(f"keep must be 'AB', 'BC' or 'AC', got {keep!r}")
    return validate(np.einsum(_PAIR_TRACES[keep], t, t.conj()).reshape(4, 4))


def single_qubit_bloch_norm(psi: np.ndarray, which: str) -> float:
    """Bloch-vector length of one marginal qubit of a pure three-qubit state."""
    t = _check_pure3(psi).reshape(2, 2, 2)
    if which not in _QUBIT_TRACES:
        raise ValueError(f"which must be 'A', 'B' or 'C', got {which!r}")
    rho1 = np.einsum(_QUBIT_TRACES[which], t, t.conj())
    vec = np.real(np.einsum("iab,ba->i", PAULI_1Q, rho1))
    return float(np.linalg.norm(vec))
