"""Grasp planning and simulation for the converter-driven gripper.

The gripper stacks a fast positioning stage and a floating converter in
series against the object. Grasping happens in two phases: the stage runs
the jaw up to the object, stopping one step short so a small gap x
remains, then the converter's actuator advances the balance point until
the working spring delivers the requested grip force. Because the
operating force of the converter is the constant k*x rather than the grip
force itself, a weak actuator can command a much larger grip: the
amplification is u_final / x.

A one-way latch (torque diode) grounds the grip reaction so it cannot
back-drive the stage's lead screw; without it any positive grip reaction
retreats the stage and the target is never reached.

Time is discrete ticks that only order events; the force state at each
tick is quasi-static. Runs are deterministic; distinct runs may execute
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .characteristics import (
    _at_least, _columns, _count, _flag, _floats, _frozen, _length, _real, _slack,
)
from .converter import FloatingConverter
from .errors import (
    ActuatorStall,
    BackdriveFault,
    UnreachableForce,
    UnreachableObject,
    ValidationError,
)

GRIP_FORCE_TOL = 1e-6  # N, grip considered on-target within this band

# cap on each phase's tick count (positioning up to the object, gripping
# over the spring's extension), so a tiny stage step cannot ask for an
# unbounded trace
MAX_GRASP_TICKS = 2**20

POSITIONING = "positioning"
GRIPPING = "gripping"
DONE = "done"


@dataclass(frozen=True)
class GripperModel:
    """Converter in series with a stepped positioning stage and latch."""

    converter: FloatingConverter
    stage_travel: float        # m
    stage_step: float          # m per tick
    latch_holds: bool
    actuator_force_cap: float  # N
    object_position: float     # m from jaw start

    def __post_init__(self):
        _floats(self, "stage_travel", "stage_step", "actuator_force_cap", "object_position")
        _flag("latch_holds", self.latch_holds)
        _at_least("stage_step", self.stage_step, 0, strict=True)
        _at_least("stage_travel", self.stage_travel, 0)
        _length("stage_travel", self.stage_travel)
        _at_least("actuator_force_cap", self.actuator_force_cap, 0, strict=True)
        reach = self.stage_travel + self.converter.left.x_max
        if not 0 < self.object_position <= reach + _slack(reach):
            raise ValidationError(
                f"object at {self.object_position} m outside reach (0, {reach:g}] m"
            )
        ticks = max(self.object_position, self.converter.left.x_max) / self.stage_step
        if not ticks <= MAX_GRASP_TICKS:
            raise ValidationError(
                f"stage_step {self.stage_step:g} m needs {ticks:.3g} ticks, "
                f"more than MAX_GRASP_TICKS = {MAX_GRASP_TICKS}"
            )


class GraspPlan(NamedTuple):
    """plan_grasp's answer for its model, built by it alone: the stage stop in
    whole steps, the gap that stop leaves and the converter stroke to the grip."""

    model: GripperModel
    n_stop: int
    gap_x: float             # m
    converter_stroke: float  # m


@dataclass(frozen=True, eq=False)
class GraspTrace:
    """A grasp's rows as columns: tick 0, the positioning ticks, the
    gripping ticks and a closing ``done`` row that repeats the last one.

    The tick is the row index. Rows 0 to ``n_positioning`` are positioning
    rows, the last row is ``done`` and the rows between are gripping. The
    latch is engaged wherever it holds and the grip is positive.
    """

    jaw: np.ndarray        # m
    grip: np.ndarray       # N
    actuator: np.ndarray   # N
    n_positioning: int
    latch_holds: bool

    def __post_init__(self):
        jaw = _columns(self, ("jaw", "grip", "actuator"), "trace columns", 2)[0]
        if not np.isfinite(jaw).all():
            raise ValidationError("trace jaw must be finite")
        _count("n_positioning", self.n_positioning, 0, jaw.size - 2)
        _flag("latch_holds", self.latch_holds)

    @property
    def phase_counts(self) -> tuple[tuple[str, int], ...]:
        """(phase, rows) in row order."""
        n_gripping = self.jaw.size - self.n_positioning - 2
        return (POSITIONING, self.n_positioning + 1), (GRIPPING, n_gripping), (DONE, 1)

    @property
    def latch(self) -> np.ndarray:
        """Per row: the latch holds and grounds a positive grip reaction."""
        return (self.grip > 0) & self.latch_holds

    @property
    def rows(self) -> tuple[tuple, ...]:
        """(tick, phase, jaw_m, grip_n, actuator_n, latch) per row, built on each access."""
        phases = [phase for phase, n in self.phase_counts for _ in range(n)]
        columns = (self.jaw, self.grip, self.actuator, self.latch)
        return tuple(zip(range(self.jaw.size), phases, *(column.tolist() for column in columns)))

    @property
    def max_actuator(self) -> float:
        return float(self.actuator.max())

    @property
    def final_grip(self) -> float:
        return float(self.grip[-1])

    @property
    def amplification(self) -> float:
        """Peak grip force per peak actuator force; inf for a free converter."""
        max_actuator = self.max_actuator
        if max_actuator == 0.0:
            return math.inf
        return float(self.grip.max()) / max_actuator


def plan_grasp(model: GripperModel, target_grip: float) -> GraspPlan:
    """Stage stop, remaining gap and converter stroke for a target grip force.

    The stage halts at the last whole step strictly before the object (and
    never past its travel), leaving gap_x in (0, stage_step * (1 + 1e-9)]
    under normal geometry. The stroke is the inverse of the working
    characteristic at the target force.
    """
    target_grip = _real("target_grip", target_grip)
    if not math.isfinite(target_grip):
        raise UnreachableForce(f"target grip must be finite, got {target_grip!r}")
    if target_grip < 0:
        raise UnreachableForce(f"target grip must be >= 0, got {target_grip}")
    # a zero grip needs no stroke; the law's inverse refuses what it cannot deliver
    stroke = 0.0 if target_grip == 0.0 else model.converter.left.extension_at(target_grip)

    step = model.stage_step
    # one step short of the object; the 1e-9 guard keeps exact multiples
    # from landing the jaw on the object
    n_stop = max(math.ceil(model.object_position / step - 1e-9) - 1, 0)
    if n_stop * step > model.stage_travel + _slack(model.stage_travel):
        n_stop = int(model.stage_travel / step * (1 + 1e-12))
    gap_x = model.object_position - n_stop * step

    reach = model.stage_travel + stroke
    if model.object_position > reach + _slack(reach):
        raise UnreachableObject(
            f"object at {model.object_position:g} m beyond stage travel "
            f"{model.stage_travel:g} m plus stroke {stroke:g} m"
        )
    return GraspPlan(model, n_stop, gap_x, stroke)


def simulate_grasp(plan: GraspPlan) -> GraspTrace:
    """Tick-by-tick grasp of the plan's model: positioning, then gripping, then done.

    During gripping the balance point advances one stage step per tick
    (last tick clamped onto the stroke), grip force follows the working
    characteristic, and the actuator must supply the converter operating
    force plus the friction band. Exceeds of the force cap raise
    ActuatorStall; any grip reaction without a latch raises BackdriveFault;
    the first tick past the pulley's or the law's range raises DomainError.
    The plan's gap replaces the converter's. Anything but a GraspPlan is refused, as
    is an n_stop off [0, MAX_GRASP_TICKS] or a converter_stroke off [0, x_max].
    """
    if not isinstance(plan, GraspPlan):
        raise ValidationError(f"simulate_grasp takes the GraspPlan plan_grasp returns, "
                              f"got a {type(plan).__name__}")
    model, n_position, gap_x, stroke = plan
    # both size the trace: bound a hand-edited plan's before any array is built
    _count("plan n_stop", n_position, 0, MAX_GRASP_TICKS)
    x_max = model.converter.left.x_max
    if not 0 <= (stroke := _real("plan converter_stroke", stroke)) <= x_max + _slack(x_max):
        raise ValidationError(f"plan converter_stroke must be in [0, {x_max:g}] m, got {stroke}")
    conv = replace(model.converter, gap_x=gap_x)
    step = model.stage_step
    stage_stop = model.object_position - gap_x
    # the stroke is at most the law's x_max, which the model caps at MAX_GRASP_TICKS steps
    n_grip = math.ceil(stroke / step - 1e-9)
    us = np.minimum(np.arange(1, n_grip + 1) * step, stroke)

    cap = model.actuator_force_cap * (1 + 1e-12)
    # a grip above this back-drives the stage: none does while the latch holds
    backdrive = math.inf if model.latch_holds else GRIP_FORCE_TOL
    force_components, friction_band = conv.force_components, conv.friction_band
    grip, actuator = [], []
    for tick, u in enumerate(us.tolist(), start=n_position + 1):
        spring, counter = force_components(u)
        effort = abs(spring - counter) + friction_band(counter)
        if spring > backdrive:
            raise BackdriveFault(
                f"tick {tick}: grip reaction {spring:g} N back-drives the unlatched stage"
            )
        if effort > cap:
            raise ActuatorStall(
                f"tick {tick}: operating force {effort:g} N exceeds cap "
                f"{model.actuator_force_cap:g} N"
            )
        grip.append(spring)
        actuator.append(effort)

    idle = np.zeros(n_position + 1)
    jaw = np.concatenate((
        np.minimum(np.arange(n_position + 1) * step, stage_stop),
        stage_stop + np.minimum(us, gap_x),
    ))
    grip, actuator = (np.append(idle, column) for column in (grip, actuator))
    # the done row repeats the last row
    columns = [np.append(column, column[-1]) for column in (jaw, grip, actuator)]
    return GraspTrace(*_frozen(*columns), n_position, model.latch_holds)
