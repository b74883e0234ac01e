"""Exception types shared across the package.

Validation failures raise subclasses of :class:`ValidationError` so callers can
catch one base type at API boundaries (the CLI maps them to exit code 2).
"""

from __future__ import annotations

__all__ = [
    "ValidationError",
    "NonSquareMatrixError",
    "NegativeOffDiagonalError",
    "RowSumError",
    "NegativeTimeError",
    "InvalidInitialStateError",
    "StateOutOfRangeError",
    "TimeOutOfRangeError",
    "MissingFieldError",
    "DimensionMismatchError",
    "ZeroVolatilityError",
    "BadIntervalError",
    "TargetMismatchError",
    "NonFiniteSolutionError",
    "DegenerateDualError",
    "ConfigError",
]


class ValidationError(ValueError):
    """Base class for input validation failures."""


class NonSquareMatrixError(ValidationError):
    """Rate matrix is not square."""


class NegativeOffDiagonalError(ValidationError):
    """Rate matrix has a negative off-diagonal entry."""


class RowSumError(ValidationError):
    """Rate matrix row sum differs from zero beyond tolerance."""


class NegativeTimeError(ValidationError):
    """A time argument that must be nonnegative was negative."""


class InvalidInitialStateError(ValidationError):
    """Initial chain state outside 1..D."""


class StateOutOfRangeError(ValidationError):
    """A chain state label outside 1..D."""


class TimeOutOfRangeError(ValidationError):
    """A time argument outside the model horizon [0, T]."""


class MissingFieldError(ValidationError):
    """Required configuration field absent."""


class DimensionMismatchError(ValidationError):
    """Array arguments have inconsistent shapes."""


class ZeroVolatilityError(ValidationError):
    """A volatility table entry is zero (the model requires sigma != 0)."""


class BadIntervalError(ValidationError):
    """An interval [a, b] with a > b, or outside the model horizon."""


class TargetMismatchError(ValidationError):
    """A solved coefficient triple was given for a loss target other than d."""


class NonFiniteSolutionError(RuntimeError):
    """Numerical integration produced a non-finite value."""


class DegenerateDualError(ValueError):
    """The dual problem has no interior maximizer (flat market, theta == 0)."""


class ConfigError(ValueError):
    """Malformed run configuration (bad JSON, types, or override paths)."""
