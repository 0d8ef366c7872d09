"""Exception types shared across the library."""


class HardyLabError(Exception):
    """Base class for all library errors."""


class ParseError(HardyLabError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """Identifier is neither ``x``, a known function, nor a bound parameter."""


class EvalDomainError(HardyLabError):
    """Evaluation left the real domain (log of a nonpositive value, division
    by zero, negative base to a power that is not a finite integer)."""

    def __init__(self, message, x=None):
        if x is not None:
            message = f"{message} at x={x!r}"
        super().__init__(message)
        self.x = x


class ExponentRangeError(HardyLabError):
    """Sampled exponent leaves the admissible range (1, infinity)."""


class IntegrabilityProbeError(HardyLabError):
    """Local integrability probe returned a non-finite value."""


class NoFiniteBracketError(HardyLabError):
    """The Luxemburg norm is not finite: the modular of f is infinite or
    suspected divergent, or the root bracket passed its cap."""


class InvalidParamsError(HardyLabError):
    """Preset parameters violate the preset's constraints."""


class ZeroSetUnresolvedError(HardyLabError):
    """A zero set needed for an indicator could not be bracketed."""


class InvalidTestFunctionError(HardyLabError):
    """Test function violates the hypotheses of the requested inequality."""


class VacuousInstanceError(HardyLabError):
    """Left-hand side is numerically indistinguishable from zero."""


class InadmissibleInstanceError(HardyLabError):
    """Instance failed its admissibility checks; see check_admissibility."""
