"""Exception types shared across the package."""


class IrlobsError(Exception):
    """Base class for package-specific errors."""


class NumericOverflowError(IrlobsError):
    """A numerical operation produced NaN/Inf or lost a required definiteness."""


class WindowUnderflowError(IrlobsError):
    """A signal lookup requested a time outside the retained window."""


class SolverFailureError(IrlobsError):
    """An iterative solver failed; carries the last residual when available."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankDeficiencyError(IrlobsError):
    """A linear system was numerically rank deficient; carries the numerical rank."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class SampleTimeError(IrlobsError, ValueError):
    """A sample's time skips or repeats a step of its signal's grid."""


class ConfigError(IrlobsError):
    """An experiment configuration failed validation."""


class ArgumentError(ValueError):
    """A constructor argument failed validation; ``name`` is the argument."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name

    def __reduce__(self):  # unpickling calls the class with these arguments
        return type(self), (self.name, str(self))
