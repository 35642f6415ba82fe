"""Exception types shared across the package."""


class NefError(Exception):
    """Base class for all package errors."""


class DuplicateIdError(NefError):
    pass


class UnknownEndpointError(NefError):
    pass


class ShapeMismatchError(NefError):
    pass


class LearningOnNodeError(NefError):
    pass


class InfeasibleTuningError(NefError):
    pass


class SingularSystemError(NefError):
    pass


class BuildError(NefError):
    """Compilation failure; message carries the offending connection/ensemble id."""


class NonFiniteSignalError(NefError):
    """A simulated signal went NaN/inf; message carries the connection id."""


class NonFiniteStateError(NefError):
    """A plant state went NaN/inf."""


class DivergedLearningError(NefError):
    """An online-learned decoder exceeded the divergence guard."""


class ConfigError(NefError):
    """Configuration file problem; `line` is the 1-based offending line."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownKeyError(ConfigError):
    pass


class DuplicateKeyError(ConfigError):
    pass


class ConfigTypeError(ConfigError):
    pass
