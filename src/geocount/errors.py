"""Exception hierarchy shared by all geocount modules.

Error messages name the module, operation and offending parameter so that
batch runs can report failures precisely.
"""


class GeocountError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GeocountError, ValueError):
    """An argument violates an operation's precondition."""


class ConfigurationError(GeocountError):
    """A requested (kind, scheme, ...) combination is not supported."""


class CatalogError(GeocountError):
    """A requested item is outside the built-in catalog."""


class DomainError(GeocountError):
    """A function was evaluated outside its domain of definition."""


class IntegrationFailureError(GeocountError):
    """An ODE integration violated a conservation or residual bound."""

    def __init__(self, message, sigma=None):
        super().__init__(message)
        self.sigma = sigma


class NumericalError(GeocountError):
    """A numerical result is outside the range round-off can explain."""


class PoleError(NumericalError):
    """An evaluation point is too close to a pole."""


class DegeneracyError(NumericalError):
    """A matrix that must be invertible is numerically singular."""


class ConvergenceError(GeocountError):
    """Successive extrapolation estimates failed to agree."""
