"""Exception types shared across the package."""


class PoisswellError(Exception):
    """Base class for all package errors."""


class NonConvergence(PoisswellError):
    """Iterative elliptic solve failed to reach tolerance."""


class StabilityViolation(PoisswellError):
    """Requested time step exceeds the scheme's stability bound."""


class MissingPhase(PoisswellError):
    """Spinor reconstruction requested but no phase is tracked."""


class WignerNotReal(PoisswellError):
    """A Wigner slice has a significant imaginary part (under-resolved data)."""


class InsufficientHistory(PoisswellError):
    """Operation needs more trajectory snapshots than are available."""


class ConfigError(PoisswellError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Malformed config text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ConfigError):
    """Config parsed but violates a constraint; names the offending key."""

    def __init__(self, message, key=None):
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)
        self.key = key
