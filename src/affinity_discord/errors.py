"""Exception types raised across the package, and the integer-argument rule that raises two."""

import numpy as np


class ValidationError(ValueError):
    """An input violates a structural or numerical precondition."""


class NonSquareError(ValidationError):
    """Matrix is not square."""


class NonHermitianError(ValidationError):
    """Matrix fails the Hermiticity tolerance."""


class NotPSDError(ValidationError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotUnitTraceError(ValidationError):
    """Density matrix trace differs from one."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class InvalidBlochVectorError(ValidationError):
    """Correlation triple does not define a physical Bell-diagonal state."""


class InvalidProbabilitiesError(ValidationError):
    """Probability vector is negative or not normalized."""


class OutOfRangeError(ValidationError):
    """Scalar parameter lies outside its admissible interval."""


class WrongDimensionError(ValidationError):
    """Operation requires a specific subsystem dimension."""


class UnknownFamilyError(ValidationError):
    """Unrecognized state-family tag."""


class UnsupportedDimensionError(Exception):
    """Subsystem dimension exceeds what the optimizer supports."""


def _require_int(value, name: str, low: int) -> int:
    """``value`` as an int: an int or numpy integer, not a bool, and at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise OutOfRangeError(f"{name} must be {bound}, got {value}")
    return int(value)
