"""Exception types shared across the package."""


class LatSweepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LatSweepError, ValueError):
    """Malformed or non-finite input data."""


class DegenerateSpringError(InvalidInputError):
    """A spring has zero length in the reference configuration."""


class AssumptionError(LatSweepError, ValueError):
    """A standing assumption of the model is violated.

    The message names the failed assumption (constraint rank, kinematic
    determinacy, or existence of self-stress states).
    """


class InfeasibleSetError(LatSweepError, RuntimeError):
    """A projection target set is empty."""


class ConeProjectionError(LatSweepError, RuntimeError):
    """A cone projection missed its optimality conditions beyond tolerance.

    Raised instead of returning a velocity that is not the projection.
    """


class SafeLoadError(InfeasibleSetError):
    """The yield box no longer meets the self-stress plane at some time."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class InitialConditionError(LatSweepError, ValueError):
    """Initial stress is inadmissible or not self-equilibrated."""


class UnsupportedLoadError(LatSweepError, ValueError):
    """Load schedule violates a solver precondition."""


class InvalidStateError(LatSweepError, ValueError):
    """A solver state is outside its admissible set beyond tolerance."""


class SchemaError(LatSweepError, ValueError):
    """A network document violates the file schema.

    Carries ``field`` identifying the offending location, e.g.
    ``"springs[3].stiffness"``.
    """

    def __init__(self, message, field=None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class DegenerateMetricsError(LatSweepError, ValueError):
    """Trajectory has no events and no usable elastic slope."""
