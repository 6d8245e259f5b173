"""Exception types shared across the package.

Everything raised on purpose derives from :class:`JitterFitError`, so callers
(including the CLI) can catch one base class and still tell the failure modes
apart by subclass.
"""

import numbers

__all__ = [
    "JitterFitError",
    "ParameterDomainError",
    "SingularDensityError",
    "InsufficientDataError",
    "DegenerateDataError",
    "NonConvergenceError",
    "SetupError",
    "TraceFormatError",
    "WireFormatError",
]


class JitterFitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(JitterFitError, ValueError):
    """A parameter or sample value lies outside its mathematical domain."""


def _int_field(name: str, value) -> int:
    """``int(value)``, or a :class:`ParameterDomainError` naming the field
    when that fails or would drop a fraction (``2.5``; ``250.0`` is fine)."""
    try:
        result = int(value)
        if isinstance(value, numbers.Number) and value != result:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ParameterDomainError(f"{name} must be an integer, got {value!r}") from None
    return result


class SingularDensityError(JitterFitError, ValueError):
    """A density was evaluated at a point where it diverges."""


class InsufficientDataError(JitterFitError, ValueError):
    """Too few samples to carry out the requested estimate."""


class DegenerateDataError(JitterFitError, ValueError):
    """The samples carry no usable spread, so the estimate is unbounded."""


class NonConvergenceError(JitterFitError, RuntimeError):
    """An iterative solve exhausted its iteration budget.

    The last iterate is kept on the exception so callers can inspect how far
    the solve got.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class SetupError(JitterFitError, RuntimeError):
    """Model initialization failed before the first iteration could run."""


class TraceFormatError(JitterFitError, ValueError):
    """A trace file could not be parsed.

    ``line_number`` is the 1-based offending line when one can be named.
    """

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class WireFormatError(JitterFitError, ValueError):
    """An announcement record failed validation while encoding or decoding."""
