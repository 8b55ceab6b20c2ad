"""floatconv: non-circular pulley synthesis and floating-converter simulation.

Build pulley profiles that realize the inverse of an elastic element's
force-displacement law, simulate the resulting floating displacement-force
converter quasi-statically, and drive a low-operating-force gripper model
from it. Geometry and tables export as deterministic CSV/SVG.

Typical use:

    from floatconv import ForceCharacteristic, synthesize_weight_counter

    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, circular_radius=0.02, load=10.0)
"""

from .characteristics import ForceCharacteristic
from .converter import (
    EnergyLedger,
    FloatingConverter,
    SweepSummary,
    SweepTable,
)
from .errors import (
    ActuatorStall,
    BackdriveFault,
    DomainError,
    FloatConvError,
    IndeterminateEquilibrium,
    NoRootError,
    NumericalError,
    ParseError,
    SingularityError,
    UnreachableForce,
    UnreachableObject,
    ValidationError,
)
from .export import profile_to_csv, profile_to_svg, read_profile_csv
from .gripper import (
    GraspPlan,
    GraspTrace,
    GripperModel,
    TraceRow,
    plan_grasp,
    simulate_grasp,
)
from .pulley import (
    CounterElement,
    PulleyProfile,
    synthesize_spring_counter,
    synthesize_weight_counter,
)

__version__ = "0.1.0"

__all__ = [
    "ForceCharacteristic",
    "CounterElement",
    "PulleyProfile",
    "FloatingConverter",
    "SweepTable",
    "SweepSummary",
    "EnergyLedger",
    "GripperModel",
    "GraspPlan",
    "GraspTrace",
    "TraceRow",
    "synthesize_weight_counter",
    "synthesize_spring_counter",
    "plan_grasp",
    "simulate_grasp",
    "profile_to_csv",
    "profile_to_svg",
    "read_profile_csv",
    "FloatConvError",
    "ValidationError",
    "DomainError",
    "ParseError",
    "SingularityError",
    "NumericalError",
    "NoRootError",
    "IndeterminateEquilibrium",
    "UnreachableForce",
    "UnreachableObject",
    "ActuatorStall",
    "BackdriveFault",
]
