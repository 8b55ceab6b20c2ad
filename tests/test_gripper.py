"""Grasp planning, tick simulation, latch and stall faults, amplification."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatconv import (
    DomainError,
    ActuatorStall,
    BackdriveFault,
    CounterElement,
    FloatingConverter,
    ForceCharacteristic,
    GraspPlan,
    GripperModel,
    UnreachableForce,
    UnreachableObject,
    ValidationError,
    plan_grasp,
    simulate_grasp,
    synthesize_weight_counter,
)

THETA_MAX = math.radians(345.0)


def make_model(cap=2.0, latch=True, obj=0.05, step=0.01, travel=0.10, k=100.0):
    spring = ForceCharacteristic.linear(k=k, x_max=0.02 * THETA_MAX)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0)
    )
    return GripperModel(
        converter=conv,
        stage_travel=travel,
        stage_step=step,
        latch_holds=latch,
        actuator_force_cap=cap,
        object_position=obj,
    )


# -- planning -------------------------------------------------------------------


def test_plan_linear_stroke():
    plan = plan_grasp(make_model(), 10.0)
    assert plan.converter_stroke == pytest.approx(0.1, rel=1e-12)
    assert plan.gap_x == pytest.approx(0.01, rel=1e-9)


def test_plan_zero_target():
    plan = plan_grasp(make_model(), 0.0)
    assert plan.converter_stroke == 0.0


def test_plan_tabulated_inverse():
    spring = ForceCharacteristic.tabulated([(0.0, 0.0), (0.05, 2.0), (0.1, 10.0)])
    profile = synthesize_weight_counter(spring, 0.02, 10.0, theta_max=5.0)
    conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0)
    )
    model = GripperModel(
        converter=conv,
        stage_travel=0.1,
        stage_step=0.01,
        latch_holds=True,
        actuator_force_cap=5.0,
        object_position=0.05,
    )
    plan = plan_grasp(model, 6.0)
    # oracle: forward evaluation of the characteristic at the stroke
    assert spring.force_at(plan.converter_stroke) == pytest.approx(6.0, abs=1e-9)
    assert plan.converter_stroke == pytest.approx(0.075, rel=1e-12)


def test_plan_power_law_inverse_by_bisection():
    spring = ForceCharacteristic.power_law(c=0.5, d=0.05, p=2.0, x_max=0.1)
    # decreasing force law cannot serve as a gripper spring for rising
    # targets, so invert a rising tabulated version instead; here just
    # check the generic bisection path through a monotone law
    rising = ForceCharacteristic.linear(k=80.0, x_max=0.12)
    profile = synthesize_weight_counter(rising, 0.02, 10.0)
    conv = FloatingConverter(
        left=rising, profile=profile, counter=CounterElement.weight(10.0)
    )
    model = GripperModel(
        converter=conv,
        stage_travel=0.1,
        stage_step=0.01,
        latch_holds=True,
        actuator_force_cap=5.0,
        object_position=0.05,
    )
    plan = plan_grasp(model, 4.0)
    assert rising.force_at(plan.converter_stroke) == pytest.approx(4.0, abs=1e-9)
    del spring


def test_plan_gap_in_step_interval():
    # object not on a step multiple: stage stops strictly short
    plan = plan_grasp(make_model(obj=0.055), 5.0)
    assert plan.gap_x == pytest.approx(0.005, rel=1e-9)
    plan = plan_grasp(make_model(obj=0.0101), 5.0)
    assert plan.gap_x == pytest.approx(0.0001, rel=1e-6)


def test_plan_unreachable_force():
    with pytest.raises(UnreachableForce):
        plan_grasp(make_model(), 100.0)  # capacity is ~12 N
    with pytest.raises(UnreachableForce):
        plan_grasp(make_model(), -1.0)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_plan_rejects_non_finite_target(target):
    with pytest.raises(UnreachableForce, match="must be finite"):
        plan_grasp(make_model(), target)


def test_plan_unreachable_object():
    model = make_model(obj=0.155, travel=0.10)
    with pytest.raises(UnreachableObject):
        plan_grasp(model, 1.0)  # stroke 0.01 m, object 0.055 m past travel


# -- simulation -------------------------------------------------------------------


def test_grasp_completes_with_amplification():
    model = make_model(cap=2.0)
    plan = plan_grasp(model, 10.0)
    trace = simulate_grasp(model, plan)
    assert trace.max_actuator == pytest.approx(1.0, rel=1e-9)
    assert trace.final_grip == pytest.approx(10.0, abs=1e-6)
    assert trace.amplification == pytest.approx(10.0, rel=1e-9)
    phases = [row.phase for row in trace.rows]
    assert phases[0] == "positioning" and phases[-1] == "done"
    assert "gripping" in phases
    # phases appear in order
    order = {"positioning": 0, "gripping": 1, "done": 2}
    codes = [order[p] for p in phases]
    assert codes == sorted(codes)


def test_grip_force_zero_while_positioning_and_monotone_while_gripping():
    model = make_model()
    trace = simulate_grasp(model, plan_grasp(model, 10.0))
    grip = {phase: [] for phase in ("positioning", "gripping", "done")}
    for row in trace.rows:
        grip[row.phase].append(row.grip_force)
    assert all(g == 0.0 for g in grip["positioning"])
    assert np.all(np.diff(grip["gripping"]) > 0)


def test_jaw_position_non_decreasing_with_latch():
    model = make_model()
    trace = simulate_grasp(model, plan_grasp(model, 10.0))
    jaw = [row.jaw_position for row in trace.rows]
    assert np.all(np.diff(jaw) >= 0)
    assert jaw[-1] == pytest.approx(model.object_position, rel=1e-12)


def test_weak_actuator_stalls_at_first_gripping_tick():
    model = make_model(cap=0.5)
    plan = plan_grasp(model, 10.0)
    with pytest.raises(ActuatorStall):
        simulate_grasp(model, plan)


def test_no_latch_faults_on_first_grip_reaction():
    model = make_model(latch=False)
    plan = plan_grasp(model, 10.0)
    with pytest.raises(BackdriveFault):
        simulate_grasp(model, plan)


def test_latch_column_set_only_during_grip():
    model = make_model()
    trace = simulate_grasp(model, plan_grasp(model, 10.0))
    for row in trace.rows:
        if row.phase == "positioning":
            assert not row.latch_engaged
        else:
            assert row.latch_engaged


def test_actuator_force_adds_the_friction_band():
    # the actuator supplies |spring - counter| + mu*|counter| + f0, the
    # upper edge of the sweep's band wherever the operating force is >= 0
    model = make_model()
    conv = replace(model.converter, friction_mu=0.004, friction_f0=0.02)
    model = replace(model, converter=conv)
    plan = plan_grasp(model, 10.0)
    rows = [row for row in simulate_grasp(model, plan).rows if row.phase == "gripping"]
    us = np.minimum(0.01 * np.arange(1, len(rows) + 1), plan.converter_stroke)
    spring, counter = replace(model.converter, gap_x=plan.gap_x).force_components(us)
    expected = np.abs(spring - counter) + 0.004 * np.abs(counter) + 0.02
    assert [row.actuator_force for row in rows] == pytest.approx(expected, rel=1e-12)


def test_smaller_gap_needs_less_actuator_force():
    # the plateau force is k * gap_x, strictly increasing in the gap
    forces = []
    for step in (0.005, 0.01, 0.02):
        model = make_model(step=step, obj=0.04)
        plan = plan_grasp(model, 10.0)
        trace = simulate_grasp(model, plan)
        assert plan.gap_x == pytest.approx(step, rel=1e-9)
        forces.append(trace.max_actuator)
    assert forces[0] < forces[1] < forces[2]


@settings(deadline=None, max_examples=20)
@given(target=st.floats(min_value=1.5, max_value=12.0))
def test_amplification_equals_stroke_over_gap(target):
    # strokes at least as long as the gap, so the counter engages and the
    # actuator plateau is k * gap_x
    model = make_model(cap=5.0)
    plan = plan_grasp(model, target)
    trace = simulate_grasp(model, plan)
    assert plan.converter_stroke >= plan.gap_x
    assert trace.amplification == pytest.approx(
        plan.converter_stroke / plan.gap_x, rel=1e-9
    )


def test_short_stroke_never_engages_counter():
    # target below k * gap_x keeps the counter slack: the actuator carries
    # the full spring force and there is no amplification
    model = make_model(cap=5.0)
    plan = plan_grasp(model, 0.5)
    assert plan.converter_stroke < plan.gap_x
    trace = simulate_grasp(model, plan)
    assert trace.amplification == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize(
    "field", ["stage_travel", "stage_step", "actuator_force_cap", "object_position"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_gripper_model_rejects_non_finite(field, value):
    model = make_model()
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        replace(model, **{field: value})


@pytest.mark.parametrize(
    "step, obj, ticks",
    [
        (5e-324, 0.05, "inf"),       # plan_grasp's ceil(inf) raised OverflowError
        (1e-9, 0.05, "1.2e+08"),     # about 5e7 positioning rows
        (1e-7, 0.05, "1.2e+06"),     # the spring's extension: 0.12 m / 1e-7 m
        (1.5e-7, 0.2, "1.33e+06"),   # the object: 0.2 m / 1.5e-7 m
    ],
)
def test_grasp_tick_count_capped_at_construction(step, obj, ticks):
    with pytest.raises(ValidationError) as info:
        make_model(step=step, obj=obj)
    assert str(info.value).endswith(f"needs {ticks} ticks, more than MAX_GRASP_TICKS = 1048576")


def test_grasp_tick_cap_admits_a_fine_step():
    model = make_model(step=2e-7, obj=0.2)   # 1e6 and 6e5 ticks
    assert model.stage_step == 2e-7


def test_stroke_beyond_pulley_range_rejected():
    # pulley deliberately shorter than the spring: R*theta_max = 0.06 m
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, 0.02, 10.0, theta_max=3.0)
    conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0)
    )
    model = GripperModel(
        converter=conv,
        stage_travel=0.1,
        stage_step=0.01,
        latch_holds=True,
        actuator_force_cap=5.0,
        object_position=0.05,
    )
    bad_plan = GraspPlan(gap_x=0.01, converter_stroke=0.1)
    with pytest.raises(DomainError):
        simulate_grasp(model, bad_plan)
