"""Exception hierarchy shared by all floatconv modules.

Every exception carries an ``exit_code`` so the CLI can map failures to
its documented process exit codes: 1 for validation/configuration
problems, 2 for numerical or simulation failures.
"""


class FloatConvError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(FloatConvError):
    """A value violates a constructor or operation precondition."""


class DomainError(FloatConvError):
    """A displacement or angle lies outside the element's domain."""


class ParseError(FloatConvError):
    """Malformed CSV input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SingularityError(FloatConvError):
    """Counter-spring tension reached zero, the torque balance is singular."""

    exit_code = 2


class NumericalError(FloatConvError):
    """A profile failed verification, or a sweep summary is not finite or too large."""

    exit_code = 2


class NoRootError(FloatConvError):
    """The equilibrium residual never crosses the applied force."""

    exit_code = 2


class IndeterminateEquilibrium(FloatConvError):
    """Every displacement is an equilibrium (perfectly balanced converter).

    This is the defining behaviour of the floating converter, reported as
    a distinct outcome rather than a root.
    """

    exit_code = 2


class UnreachableForce(FloatConvError):
    """Requested grip force lies outside the working spring's range."""

    exit_code = 2


class UnreachableObject(FloatConvError):
    """Object lies beyond the positioning travel plus converter stroke."""

    exit_code = 2


class ActuatorStall(FloatConvError):
    """Required operating force exceeds the actuator force cap."""

    exit_code = 2


class BackdriveFault(FloatConvError):
    """Grip reaction back-drives the positioning stage (no latch fitted)."""

    exit_code = 2
