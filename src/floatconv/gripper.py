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

from .converter import FloatingConverter
from .errors import (
    ActuatorStall,
    BackdriveFault,
    DomainError,
    UnreachableForce,
    UnreachableObject,
    ValidationError,
)

GRIP_FORCE_TOL = 1e-6  # N, grip considered on-target within this band

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
        if not self.stage_step > 0:
            raise ValidationError(f"stage_step must be > 0, got {self.stage_step}")
        if self.stage_travel < 0:
            raise ValidationError(f"stage_travel must be >= 0, got {self.stage_travel}")
        if not self.actuator_force_cap > 0:
            raise ValidationError(
                f"actuator_force_cap must be > 0, got {self.actuator_force_cap}"
            )
        reach = self.stage_travel + self.converter.left.x_max
        if not 0 < self.object_position <= reach:
            raise ValidationError(
                f"object at {self.object_position} m outside reach (0, {reach:g}] m"
            )


@dataclass(frozen=True)
class GraspPlan:
    """Offset gap left by the stage and the converter stroke to the target grip."""

    gap_x: float            # m
    converter_stroke: float  # m


@dataclass(frozen=True)
class TraceRow:
    tick: int
    phase: str
    jaw_position: float    # m
    grip_force: float      # N
    actuator_force: float  # N
    latch_engaged: bool


@dataclass(frozen=True)
class GraspTrace:
    rows: tuple[TraceRow, ...]

    @property
    def max_grip(self) -> float:
        return max(row.grip_force for row in self.rows)

    @property
    def max_actuator(self) -> float:
        return max(row.actuator_force for row in self.rows)

    @property
    def final_grip(self) -> float:
        return self.rows[-1].grip_force

    @property
    def amplification(self) -> float:
        """Peak grip force per peak actuator force; inf for a free converter."""
        if self.max_actuator == 0.0:
            return math.inf
        return self.max_grip / self.max_actuator


def plan_grasp(model: GripperModel, target_grip: float) -> GraspPlan:
    """Stage stop, remaining gap and converter stroke for a target grip force.

    The stage halts at the last whole step strictly before the object (and
    never past its travel), leaving gap_x in (0, stage_step] under normal
    geometry. The stroke is the inverse of the working characteristic at
    the target force.
    """
    left = model.converter.left
    if not math.isfinite(target_grip):
        raise UnreachableForce(f"target grip must be finite, got {target_grip!r}")
    if target_grip < 0:
        raise UnreachableForce(f"target grip must be >= 0, got {target_grip}")
    capacity = left.force_at(left.x_max)
    if target_grip > capacity * (1 + 1e-12):
        raise UnreachableForce(
            f"target {target_grip:g} N exceeds spring capacity {capacity:g} N"
        )
    # a zero grip needs no stroke, whatever the law delivers at x = 0
    stroke = 0.0 if target_grip == 0.0 else left.extension_at(target_grip)

    step = model.stage_step
    # one step short of the object; the 1e-9 guard keeps exact multiples
    # from landing the jaw on the object
    n_stop = max(math.ceil(model.object_position / step - 1e-9) - 1, 0)
    if n_stop * step > model.stage_travel * (1 + 1e-12):
        n_stop = int(model.stage_travel / step * (1 + 1e-12))
    gap_x = model.object_position - n_stop * step

    if model.object_position > model.stage_travel + stroke + 1e-15:
        raise UnreachableObject(
            f"object at {model.object_position:g} m beyond stage travel "
            f"{model.stage_travel:g} m plus stroke {stroke:g} m"
        )
    return GraspPlan(gap_x=gap_x, converter_stroke=stroke)


def simulate_grasp(model: GripperModel, plan: GraspPlan) -> GraspTrace:
    """Tick-by-tick grasp: positioning, then gripping, then done.

    During gripping the balance point advances one stage step per tick
    (last tick clamped onto the stroke), grip force follows the working
    characteristic, and the actuator must supply the converter operating
    force plus the friction band. Exceeds of the force cap raise
    ActuatorStall; any grip reaction without a latch raises BackdriveFault.
    """
    conv = replace(model.converter, gap_x=plan.gap_x)
    R = conv.profile.circular_radius
    if plan.converter_stroke > plan.gap_x + R * conv.profile.theta_max * (1 + 1e-12):
        raise DomainError(
            f"stroke {plan.converter_stroke:g} m exceeds pulley range "
            f"{plan.gap_x + R * conv.profile.theta_max:g} m"
        )

    step = model.stage_step
    stage_stop = model.object_position - plan.gap_x
    n_position = round(stage_stop / step)
    rows = [TraceRow(0, POSITIONING, 0.0, 0.0, 0.0, False)]
    for i in range(1, n_position + 1):
        jaw = min(i * step, stage_stop)
        rows.append(TraceRow(i, POSITIONING, jaw, 0.0, 0.0, False))

    tick = n_position
    n_grip = math.ceil(plan.converter_stroke / step - 1e-9)
    for j in range(1, n_grip + 1):
        tick += 1
        u = min(j * step, plan.converter_stroke)
        spring, counter = conv.force_components(u)
        grip = spring
        effort = abs(spring - counter) + conv.friction_mu * abs(counter) + conv.friction_f0
        if grip > GRIP_FORCE_TOL and not model.latch_holds:
            raise BackdriveFault(
                f"tick {tick}: grip reaction {grip:g} N back-drives the unlatched stage"
            )
        if effort > model.actuator_force_cap * (1 + 1e-12):
            raise ActuatorStall(
                f"tick {tick}: operating force {effort:g} N exceeds cap "
                f"{model.actuator_force_cap:g} N"
            )
        jaw = stage_stop + min(u, plan.gap_x)
        rows.append(
            TraceRow(tick, GRIPPING, jaw, grip, effort, model.latch_holds and grip > 0)
        )

    last = rows[-1]
    rows.append(
        TraceRow(
            last.tick + 1,
            DONE,
            last.jaw_position,
            last.grip_force,
            last.actuator_force,
            last.latch_engaged,
        )
    )
    return GraspTrace(tuple(rows))
