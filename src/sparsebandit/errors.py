"""Exception hierarchy shared across the package."""


class SparseBanditError(Exception):
    """Base class for all package errors."""


class ValidationError(SparseBanditError, ValueError):
    """An input violates a documented invariant; the message names it."""


class DimensionMismatchError(ValidationError):
    pass


class MisspecificationBoundError(ValidationError):
    """The misspecification vector exceeds the declared epsilon."""


class SparsityError(ValidationError):
    """A parameter vector violates its declared sparsity."""


class NormBoundError(ValidationError):
    """A vector violates a required norm bound."""


class GuardExceededError(SparseBanditError):
    """A configuration exceeds a desk-scale guard and was refused up front."""


class ConvergenceError(SparseBanditError):
    """An iterative solver hit its cap without meeting its target."""


class CertificationError(SparseBanditError):
    """No compression map met its distortion certificate within the retry budget."""


class RetriesExhaustedError(SparseBanditError):
    """Seeded regeneration failed for every retry; ``reports`` holds one
    rejection report per attempt."""

    def __init__(self, message, reports=()):
        super().__init__(message)
        self.reports = list(reports)


class OverflowGuardError(SparseBanditError):
    """A threshold formula saturated beyond the representable desk scale."""


class EmptySurvivorError(SparseBanditError):
    """An elimination loop removed every candidate; diagnostic, see run log."""


class ConfigError(SparseBanditError):
    """A harness configuration file failed to parse or validate."""
