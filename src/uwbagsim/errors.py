"""Exception hierarchy shared across the simulator and analysis pipeline."""


class UwbAgSimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValue(UwbAgSimError, ValueError):
    """A value outside its accepted range; still a ValueError to library callers."""


class UnknownCell(UwbAgSimError):
    """Requested a parameter-table cell that does not exist."""


class InvalidGeometry(InvalidValue):
    """Link geometry with nonpositive horizontal distance or negative height."""


class InvalidRate(InvalidValue):
    """Arrival rate must be strictly positive."""


class WindowTooSmall(InvalidValue):
    """Scan window too short to host a channel realization."""


class EmptyRealization(UwbAgSimError):
    """Operation requires a realization with at least one tap."""


class NonPositivePower(InvalidValue):
    """Power ratio requires strictly positive linear powers."""


class ZeroTemplate(UwbAgSimError):
    """Deconvolution template has no energy."""


class EmptyInput(UwbAgSimError):
    """Operation requires at least one input record."""


class InsufficientData(UwbAgSimError):
    """Not enough arrivals to estimate model parameters."""


class MalformedFile(UwbAgSimError):
    """An input file could not be parsed.

    Carries the offending path and 1-based line number so command-line
    diagnostics can point at the exact location.
    """

    def __init__(self, path: str, line: int, reason: str) -> None:
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason

    def __reduce__(self):  # so a pool worker's error reaches the parent
        return type(self), (self.path, self.line, self.reason)
