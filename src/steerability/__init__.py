"""Steering criteria for two-qubit states and their global-unitary orbits.

The central question the library answers: can a given two-qubit state be
pushed past the three-setting linear steering bound by some global unitary?
Membership in the set of states that cannot ("orbit-safe" states) is decided
by four independent routes -- spectrum, purity, Bloch parameters, Frobenius
ball -- which are cross-checked on every call.  Companion criteria
(teleportation usefulness N, CHSH quantity M), steering witnesses, Haar /
Hilbert-Schmidt sampling, and the standard benchmark families round out the
toolkit.
"""

from .errors import (
    InternalInconsistency,
    InvalidSetting,
    NoConvergence,
    NotActivatable,
    NotHermitian,
    NotPositive,
    NotUnitTrace,
    OutOfRange,
)
from .linalg import (
    EigenSystem4,
    HERM_TOL,
    frobenius_norm,
    hermitian_eigensystem,
    singular_values_3x3,
)
from .states import (
    BELL_BASIS,
    BlochForm,
    PAULI_1Q,
    SpectrumReport,
    from_bloch,
    reduce_to_pair,
    single_qubit_bloch_norm,
    spectrum_report,
    to_bloch,
    validate,
)
from .steering import (
    MeasurementSetting,
    f2_max,
    f3_max,
    optimal_directions,
    steering_functional,
    steering_operator,
)
from .absolute import (
    AbsoluteVerdict,
    BellDiagonalState,
    bell_diagonal_canonical,
    decide_aus3,
    f3_global_max,
    frobenius_ball_check,
    reduced_pair_verdict,
)
from .teleport import AuxCriteria, aux_criteria, steer_implies_teleport_check
from .witness import WitnessOperator, activation_witness, steering_witness
from .sampling import (
    SeededGenerator,
    aus3_volume_estimate,
    empirical_f3_sup,
    haar_from_rng,
    random_state,
    states_from_rng,
)
from .families import (
    GHZ_STATE,
    ScanResult,
    W_STATE,
    gisin,
    scan_family,
    werner,
    x_state,
)

__version__ = "0.1.0"
