"""Exception hierarchy shared by all floatconv modules.

Every exception carries an ``exit_code``, the CLI's process exit code:
2 for a numerical or simulation failure, from the base class, and 1 for
the three input errors, ValidationError, DomainError and ParseError.
"""


class FloatConvError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ValidationError(FloatConvError):
    """A value violates a constructor or operation precondition."""

    exit_code = 1


class DomainError(FloatConvError):
    """A displacement or angle lies outside the element's domain."""

    exit_code = 1


class ParseError(FloatConvError):
    """Malformed CSV input; carries the offending 1-based line number."""

    exit_code = 1

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SingularityError(FloatConvError):
    """Counter-spring tension reached zero, the torque balance is singular."""


class NumericalError(FloatConvError):
    """A profile failed verification, or a sweep summary is not finite or too large."""


class NoRootError(FloatConvError):
    """The equilibrium residual never crosses the applied force."""


class IndeterminateEquilibrium(FloatConvError):
    """Every displacement is an equilibrium (perfectly balanced converter).

    This is the defining behaviour of the floating converter, reported as
    a distinct outcome rather than a root.
    """


class UnreachableForce(FloatConvError):
    """Requested grip force lies outside the working spring's range."""


class UnreachableObject(FloatConvError):
    """Object lies beyond the positioning travel plus converter stroke."""


class ActuatorStall(FloatConvError):
    """Required operating force exceeds the actuator force cap."""


class BackdriveFault(FloatConvError):
    """Grip reaction back-drives the positioning stage (no latch fitted)."""
