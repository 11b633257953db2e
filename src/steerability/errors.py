"""Exception types shared across the library."""


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NoConvergence(RuntimeError):
    """Eigenvalue iteration failed to converge."""


class NotUnitTrace(ValueError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotPositive(ValueError):
    """Non-finite entry, entry beyond 2 in magnitude, or eigenvalue below the negative window."""


class InvalidSetting(ValueError):
    """Measurement directions violate the unit / orthonormality constraints."""


class InternalInconsistency(RuntimeError):
    """Independently computed routes disagree; signals a numerical bug."""


class NotActivatable(ValueError):
    """State stays below the steering bound on its whole unitary orbit."""


class OutOfRange(ValueError):
    """Family parameter outside its admissible range."""
