"""Grasp planning, tick simulation, latch and stall faults, amplification."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import floatconv
from floatconv import (
    DomainError,
    ActuatorStall,
    BackdriveFault,
    CounterElement,
    FloatConvError,
    FloatingConverter,
    ForceCharacteristic,
    GraspTrace,
    GripperModel,
    PulleyProfile,
    UnreachableForce,
    UnreachableObject,
    ValidationError,
    plan_grasp,
    simulate_grasp,
    synthesize_spring_counter,
    synthesize_weight_counter,
)
from floatconv.characteristics import MAX_LENGTH, _slack, clip_domain
from floatconv.gripper import GRIP_FORCE_TOL, MAX_GRASP_TICKS

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


def test_lengths_are_bounded_by_max_length():
    assert ForceCharacteristic.linear(1.0, MAX_LENGTH).x_max == MAX_LENGTH
    with pytest.raises(ValidationError, match=r"^x_max must be <= 1e\+06, got 1000001.0$"):
        ForceCharacteristic.linear(1.0, MAX_LENGTH + 1)
    assert make_model(travel=MAX_LENGTH).stage_travel == MAX_LENGTH
    with pytest.raises(ValidationError, match=r"^stage_travel must be <= 1e\+06, got 10000000.0$"):
        make_model(travel=1e7)


def test_plan_unreachable_object():
    model = make_model(obj=0.155, travel=0.10)
    with pytest.raises(UnreachableObject):
        plan_grasp(model, 1.0)  # stroke 0.01 m, object 0.055 m past travel


STOP_MODEL = make_model()


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(step=st.floats(1e-4, 0.05), obj=st.floats(1e-4, 0.5), travel=st.floats(0.0, 0.5))
def test_the_planned_stop_is_the_gap_it_leaves_in_whole_steps(step, obj, travel):
    # a stop short of the object, or at the end of a travel that falls short of it
    assume(obj <= travel + STOP_MODEL.converter.left.x_max)
    model = replace(STOP_MODEL, stage_step=step, object_position=obj, stage_travel=travel)
    plan = plan_grasp(model, 12.0)   # the law's end: a 0.12 m stroke
    assert plan.n_stop == round((obj - plan.gap_x) / step)
    assert plan.n_stop * step <= travel + _slack(travel)
    # the planner's 1e-9 guard counts an object within 1e-9 steps past a step as on it
    within_a_step = 0 < plan.gap_x <= step * (1 + 1e-9)
    assert within_a_step or plan.n_stop * step + step > travel + _slack(travel)


@pytest.mark.parametrize("law", [
    ForceCharacteristic.linear(k=100.0, x_max=0.12),
    ForceCharacteristic.tabulated([(0.0, 0.0), (0.05, 2.0), (0.12, 10.0)]),
    ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12),
], ids=["linear", "tabulated", "power_law"])
def test_the_longest_planned_stroke_is_the_laws_extension(law):
    # so the gripping grid is at most x_max / stage_step ticks, which the model caps
    conv = FloatingConverter(law, synthesize_weight_counter(law, 0.02, 10.0),
                             CounterElement.weight(10.0))
    model = GripperModel(conv, 0.1, 0.01, True, 1e9, 0.05)
    plan = plan_grasp(model, float(law.force_at(law.x_max)))
    assert plan.converter_stroke == pytest.approx(law.x_max, rel=1e-12)
    trace = simulate_grasp(plan)
    assert dict(trace.phase_counts)["gripping"] == 12
    assert trace.final_grip == pytest.approx(float(law.force_at(law.x_max)), rel=1e-12)


# -- simulation -------------------------------------------------------------------


def test_grasp_completes_with_amplification():
    model = make_model(cap=2.0)
    plan = plan_grasp(model, 10.0)
    trace = simulate_grasp(plan)
    assert trace.max_actuator == pytest.approx(1.0, rel=1e-9)
    assert trace.final_grip == pytest.approx(10.0, abs=1e-6)
    assert trace.amplification == pytest.approx(10.0, rel=1e-9)
    phases = [phase for _, phase, *_ in trace.rows]
    assert phases[0] == "positioning" and phases[-1] == "done"
    assert "gripping" in phases
    # phases appear in order
    order = {"positioning": 0, "gripping": 1, "done": 2}
    codes = [order[p] for p in phases]
    assert codes == sorted(codes)


def test_grip_force_zero_while_positioning_and_monotone_while_gripping():
    model = make_model()
    trace = simulate_grasp(plan_grasp(model, 10.0))
    (_, positioning), (_, gripping), _ = trace.phase_counts
    assert np.all(trace.grip[:positioning] == 0.0)
    assert np.all(np.diff(trace.grip[positioning:positioning + gripping]) > 0)


def test_jaw_position_non_decreasing_with_latch():
    model = make_model()
    trace = simulate_grasp(plan_grasp(model, 10.0))
    jaw = trace.jaw
    assert np.all(np.diff(jaw) >= 0)
    assert jaw[-1] == pytest.approx(model.object_position, rel=1e-12)


def test_trace_rows_are_plain_tuples_zipped_from_the_columns():
    model = make_model()
    trace = simulate_grasp(plan_grasp(model, 10.0))
    assert len(trace.rows) == trace.jaw.size
    assert all(type(row) is tuple for row in trace.rows)
    ticks, phases, jaw, grip, actuator, latch = map(list, zip(*trace.rows))
    assert ticks == list(range(trace.jaw.size))
    assert phases == [phase for phase, n in trace.phase_counts for _ in range(n)]
    assert [jaw, grip, actuator] == [trace.jaw.tolist(), trace.grip.tolist(),
                                     trace.actuator.tolist()]
    assert latch == trace.latch.tolist()


def test_trace_row_record_is_gone():
    with pytest.raises(ImportError):
        from floatconv import TraceRow  # noqa: F401
    assert "TraceRow" not in floatconv.__all__


def test_a_plan_is_private_and_runs_the_model_it_was_made_for():
    assert not hasattr(floatconv, "GraspPlan") and "GraspPlan" not in floatconv.__all__
    model = make_model()
    plan = plan_grasp(model, 10.0)
    assert plan.model is model and plan.n_stop == 4
    with pytest.raises(TypeError):
        simulate_grasp(model, plan)


@pytest.mark.parametrize("n_stop", [-5, 2.5], ids=["negative", "fractional"])
def test_a_hand_made_plan_is_refused(n_stop):
    # before, -5 reached np.zeros as a bare ValueError and 2.5 np.arange as a TypeError
    with pytest.raises(ValidationError, match=r"^simulate_grasp takes the GraspPlan plan_grasp "
                                              r"returns, got a tuple$"):
        simulate_grasp((make_model(), n_stop, 0.01, 0.1))


@pytest.mark.parametrize("field, value, text", [
    ("n_stop", -5, "plan n_stop must be in [0, 1048576], got -5"),
    ("n_stop", 2.5, "plan n_stop must be an integer"),
    ("n_stop", MAX_GRASP_TICKS + 1, "plan n_stop must be in [0, 1048576], got 1048577"),
    ("converter_stroke", 1e6, "plan converter_stroke must be in [0, 0.120428] m, got 1000000.0"),
], ids=["negative", "fractional", "past-the-cap", "past-the-law"])
def test_a_hand_edited_plan_is_refused_before_any_array(field, value, text):
    # before, -5 reached np.zeros as a bare ValueError, 2.5 np.arange as a TypeError,
    # and a huge n_stop or stroke sized the trace with no bound
    plan = plan_grasp(make_model(), 9.0)._replace(**{field: value})
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as info:
            simulate_grasp(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == text
    assert peak < 1_000_000


@pytest.mark.parametrize("stroke", [0.0, 0.02 * THETA_MAX * (1 + 1e-13)], ids=["zero", "slack"])
def test_a_hand_edited_stroke_inside_the_law_still_runs(stroke):
    plan = plan_grasp(make_model(cap=1e9), 9.0)._replace(converter_stroke=stroke)
    trace = simulate_grasp(plan)
    assert trace.rows == reference_simulate_grasp(plan)


@pytest.mark.parametrize("travel, n_stop", [(0.0, 0), (0.025, 2), (0.03, 3)])
def test_a_travel_short_of_the_object_grasps_from_its_last_whole_step(travel, n_stop):
    # the stage stops at its travel's last whole step, more than a step short
    model = make_model(cap=10.0, travel=travel)
    plan = plan_grasp(model, 10.0)
    assert plan.n_stop == n_stop
    assert plan.gap_x == pytest.approx(0.05 - 0.01 * n_stop, rel=1e-12)
    trace = simulate_grasp(plan)
    assert trace.rows == reference_simulate_grasp(plan)
    assert dict(trace.phase_counts)["positioning"] == n_stop + 1
    assert trace.max_actuator == pytest.approx(100.0 * plan.gap_x, rel=1e-9)
    assert trace.jaw[-1] == pytest.approx(0.05, rel=1e-12)


def test_weak_actuator_stalls_at_first_gripping_tick():
    model = make_model(cap=0.5)
    plan = plan_grasp(model, 10.0)
    with pytest.raises(ActuatorStall):
        simulate_grasp(plan)


def test_no_latch_faults_on_first_grip_reaction():
    model = make_model(latch=False)
    plan = plan_grasp(model, 10.0)
    with pytest.raises(BackdriveFault):
        simulate_grasp(plan)


def test_latch_column_set_only_during_grip():
    model = make_model()
    trace = simulate_grasp(plan_grasp(model, 10.0))
    for _, phase, _, _, _, latch in trace.rows:
        assert latch is (phase != "positioning")


def test_actuator_force_adds_the_friction_band():
    # the actuator supplies |spring - counter| + mu*|counter| + f0, the
    # upper edge of the sweep's band wherever the operating force is >= 0
    model = make_model()
    conv = replace(model.converter, friction_mu=0.004, friction_f0=0.02)
    model = replace(model, converter=conv)
    plan = plan_grasp(model, 10.0)
    efforts = [row[4] for row in simulate_grasp(plan).rows if row[1] == "gripping"]
    us = np.minimum(0.01 * np.arange(1, len(efforts) + 1), plan.converter_stroke)
    spring, counter = replace(model.converter, gap_x=plan.gap_x).force_components(us)
    expected = np.abs(spring - counter) + 0.004 * np.abs(counter) + 0.02
    assert efforts == pytest.approx(expected, rel=1e-12)


def test_smaller_gap_needs_less_actuator_force():
    # the plateau force is k * gap_x, strictly increasing in the gap
    forces = []
    for step in (0.005, 0.01, 0.02):
        model = make_model(step=step, obj=0.04)
        plan = plan_grasp(model, 10.0)
        trace = simulate_grasp(plan)
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
    trace = simulate_grasp(plan)
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
    trace = simulate_grasp(plan)
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


def test_grasp_tick_cap_is_inclusive():
    # a 2**-20 m step to an object 1 m out is exactly MAX_GRASP_TICKS ticks
    assert make_model(step=2.0**-20, obj=1.0, travel=1.0).stage_step == 2.0**-20
    with pytest.raises(ValidationError, match=r"needs 1\.05e\+06 ticks, more than MAX_GRASP_TICKS"):
        make_model(step=2.0**-20, obj=1.0 + 2.0**-20, travel=1.0)


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
    plan = plan_grasp(model, 10.0)
    assert (plan.gap_x, plan.converter_stroke) == pytest.approx((0.01, 0.1), rel=1e-12)
    with pytest.raises(DomainError):
        simulate_grasp(plan)


def _short_pulley_model(mu):
    """configs/gripper.json with a 200 degree pulley: R*theta_max = 0.0698 m, so the
    converter's range, 0.0798 m past a 0.01 m gap, ends short of the 0.1 m stroke to 10 N."""
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.1205)
    profile = synthesize_weight_counter(spring, 0.02, 10.0, theta_max=math.radians(200.0))
    conv = FloatingConverter(spring, profile, CounterElement.weight(10.0), friction_mu=mu)
    return GripperModel(conv, 0.1, 0.01, True, 2.0, 0.05)


@pytest.mark.parametrize(
    "mu, want",
    [
        # frictionless, the effort stays at k*gap = 1 N: the first tick past the
        # pulley's range, u = 0.08 m, is refused
        (0.0, (DomainError, "value range [0.08, 0.08] outside domain [0, 0.0798132]")),
        # friction adds mu times the counter force to the effort: it passes the
        # 2 N cap at u = 0.05 m, before the stroke leaves the pulley
        (0.3, (ActuatorStall, "tick 9: operating force 2.2 N exceeds cap 2 N")),
    ],
    ids=["past_the_pulley", "stall_first"],
)
def test_a_stroke_past_the_pulley_faults_at_the_first_failing_tick(mu, want):
    model = _short_pulley_model(mu)
    plan = plan_grasp(model, 10.0)
    assert (plan.gap_x, plan.converter_stroke) == pytest.approx((0.01, 0.1), rel=1e-12)
    assert _outcome(simulate_grasp, plan) == want
    assert _outcome(reference_simulate_grasp, plan) == want


# One end rule: a length up to _slack(end) past an end is accepted, the next float refused.


def _unit_law_model(travel, step, obj):
    """A linear 1 N/m law on [0, 3] m: the stroke to a grip of F N is F m."""
    law = ForceCharacteristic.linear(k=1.0, x_max=3.0)
    conv = FloatingConverter(law, synthesize_weight_counter(law, 0.02, 10.0),
                             CounterElement.weight(10.0))
    return GripperModel(conv, travel, step, True, 1e9, obj)


def test_object_reach_ends_at_the_slack():
    end = 4.0 + _slack(4.0)   # stage travel 1 m plus the law's 3 m
    assert _unit_law_model(1.0, 0.5, end).object_position == end
    past = math.nextafter(end, math.inf)
    with pytest.raises(ValidationError) as info:
        _unit_law_model(1.0, 0.5, past)
    assert str(info.value) == f"object at {past} m outside reach (0, 4] m"


def test_plan_reach_ends_at_the_slack():
    end = 2.0 + _slack(2.0)   # stage travel 1 m plus the 1 m stroke to 1 N
    assert plan_grasp(_unit_law_model(1.0, 0.5, end), 1.0).converter_stroke == 1.0
    past = math.nextafter(end, math.inf)
    with pytest.raises(UnreachableObject) as info:
        plan_grasp(_unit_law_model(1.0, 0.5, past), 1.0)
    assert str(info.value) == f"object at {past:g} m beyond stage travel 1 m plus stroke 1 m"


def test_stage_stop_ends_at_the_slack():
    # one step short of an object 1.5 steps out is one step: the stage keeps it
    # while that step ends inside the slack past its 1 mm travel, else it stays put
    end = 1e-3 + _slack(1e-3)
    for step, stop in [(end, 1), (math.nextafter(end, math.inf), 0)]:
        obj = 1.5 * step
        assert plan_grasp(_unit_law_model(1e-3, step, obj), 0.01).gap_x == obj - stop * step


TWO_ROWS = ([0.0, 1.0], [0.0, 2.0], [0.0, 1.0])
THREE_ROWS = ([0.0, 1.0, 2.0], [0.0, 2.0, 2.0], [0.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "columns, n_positioning, message",
    [
        (([0.0, 1.0], [0.0, 2.0], [0.0]), 0, "share one length"),
        (([[0.0, 1.0]], [[0.0, 2.0]], [[0.0, 1.0]]), 0, "1-d"),
        (TWO_ROWS, 1, r"^n_positioning must be in \[0, 0\], got 1$"),
        (TWO_ROWS, -1, r"^n_positioning must be in \[0, 0\], got -1$"),
        (THREE_ROWS, 0.5, "^n_positioning must be an integer$"),
        (THREE_ROWS, True, "^n_positioning must be an integer$"),
    ],
    ids=["ragged", "2-d", "too_many_positioning", "negative_positioning", "fractional", "bool"],
)
def test_grasp_trace_rejects_inconsistent_columns(columns, n_positioning, message):
    with pytest.raises(ValidationError, match=message):
        GraspTrace(*columns, n_positioning, True)


@pytest.mark.parametrize(
    "latch",
    ["yes", 1, 0, 1.0, None, np.int64(1), np.array([True])],
    ids=["text", "one", "zero", "float", "none", "numpy_integer", "array"],
)
@pytest.mark.parametrize(
    "build",
    [lambda latch: replace(make_model(), latch_holds=latch),
     lambda latch: GraspTrace(*THREE_ROWS, 1, latch)],
    ids=["model", "trace"],
)
def test_latch_that_is_not_a_flag_is_refused(build, latch):
    with pytest.raises(ValidationError, match="^latch_holds must be true or false$"):
        build(latch)


@pytest.mark.parametrize("latch", [True, False, np.True_, np.False_])
def test_latch_accepts_a_bool_or_a_numpy_bool(latch):
    model = replace(make_model(), latch_holds=latch)
    assert GraspTrace(*THREE_ROWS, 1, latch).latch.tolist() == [False, latch, latch]
    if latch:
        assert simulate_grasp(plan_grasp(model, 10.0)).final_grip == pytest.approx(10.0)


def test_grasp_trace_accepts_a_numpy_integer_count():
    trace = GraspTrace(*THREE_ROWS, np.int64(1), True)
    assert trace.phase_counts == (("positioning", 2), ("gripping", 0), ("done", 1))


# -- the columnar trace against the per-tick loop ---------------------------------


def reference_simulate_grasp(plan):
    """The per-tick loop that built one row per tick, kept as the oracle of
    the columnar simulate_grasp: it yields (tick, phase, jaw_m, grip_n,
    actuator_n, latch) tuples. Its force chain is spelled out through the
    public, clip-checked force_at and realized_force, and its stage stop is
    derived again from the gap, which must give the plan's."""
    model = plan.model
    conv = replace(model.converter, gap_x=plan.gap_x)
    R = conv.profile.circular_radius
    step = model.stage_step
    stage_stop = model.object_position - plan.gap_x
    n_position = round(stage_stop / step)
    assert plan.n_stop == n_position
    rows = [(0, "positioning", 0.0, 0.0, 0.0, False)]
    for i in range(1, n_position + 1):
        jaw = min(i * step, stage_stop)
        rows.append((i, "positioning", jaw, 0.0, 0.0, False))

    tick = n_position
    n_grip = math.ceil(plan.converter_stroke / step - 1e-9)
    for j in range(1, n_grip + 1):
        tick += 1
        u = min(j * step, plan.converter_stroke)
        us = clip_domain(u, conv.u_max)
        spring = conv.left.force_at(us)
        counter = conv.profile.realized_force(conv.counter, max(us - conv.gap_x, 0.0) / R)
        if us < conv.gap_x:
            counter = 0.0
        grip = spring
        effort = abs(spring - counter) + conv.friction_band(counter)
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
        rows.append((tick, "gripping", jaw, grip, effort, model.latch_holds and grip > 0))

    last_tick, _, *last = rows[-1]
    rows.append((last_tick + 1, "done", *last))
    return tuple(rows)


GRASP_LAWS = {
    "linear": ForceCharacteristic.linear(k=100.0, x_max=0.12),
    "tabulated": ForceCharacteristic.tabulated([(0.0, 0.0), (0.05, 2.0), (0.12, 10.0)]),
    # falling: the grip starts high and the counter carries less as u grows
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12),
}
GRASP_COUNTERS = {
    "weight": CounterElement.weight(10.0),
    "spring": CounterElement.spring(t0=10.0, k2=40.0),
}
# each law over a pulley for its whole extension, and over one for half of it, whose
# range ends the converter's short of the strokes to the larger grips
GRASP_CONVERTERS = {
    (law_name, counter_name, pulley): FloatingConverter(
        law,
        synthesize_spring_counter(law, 0.02, counter, theta_max=turns * law.x_max / 0.02),
        counter,
    )
    for law_name, law in GRASP_LAWS.items()
    for counter_name, counter in GRASP_COUNTERS.items()
    for pulley, turns in (("full", 1.0), ("short", 0.5))
}


def _outcome(simulate, plan):
    """The trace rows, or the type and message of the fault."""
    try:
        return simulate(plan)
    except FloatConvError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=200)
@given(
    key=st.sampled_from(sorted(GRASP_CONVERTERS)),
    mu=st.sampled_from([0.0, 0.01, 0.3]),
    f0=st.sampled_from([0.0, 0.02, 1.5]),
    latch=st.booleans(),
    step=st.floats(min_value=0.002, max_value=0.02),
    n_position=st.sampled_from([0, 0, 1, 2, 7, 20]),
    place=st.floats(min_value=0.05, max_value=1.0),
    reach=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    data=st.data(),
)
def test_columnar_trace_matches_per_tick_loop(
    key, mu, f0, latch, step, n_position, place, reach, data
):
    conv = replace(GRASP_CONVERTERS[key], friction_mu=mu, friction_f0=f0)
    obj = (n_position + place) * step
    model = GripperModel(conv, obj + 0.01, step, latch, 1e9, obj)
    # the grip the law gives at a drawn share of its extension: reach 0 is a zero
    # stroke, and a short pulley's range ends before the strokes to the larger grips
    target = float(conv.left.force_at(reach * conv.left.x_max))
    plan = plan_grasp(model, target)

    reference = _outcome(reference_simulate_grasp, plan)
    if isinstance(reference[0], tuple):
        # cap the actuator at a drawn gripping tick's effort: it stalls at the
        # first tick whose effort exceeds that cap, or never
        efforts = [row[4] for row in reference if row[1] == "gripping"]
        if efforts:
            cap = max(data.draw(st.sampled_from(efforts)), 1e-9)
            plan = plan_grasp(replace(model, actuator_force_cap=cap), target)
            reference = _outcome(reference_simulate_grasp, plan)

    got = _outcome(lambda p: simulate_grasp(p).rows, plan)
    assert got == reference
    if isinstance(reference[0], type):
        if reference[0] in (ActuatorStall, BackdriveFault):
            tick = int(re.match(r"tick (\d+): ", reference[1]).group(1))
            assert tick > plan.n_stop   # a gripping tick
        return
    trace = simulate_grasp(plan)
    assert trace.max_actuator == max(row[4] for row in reference)
    assert trace.final_grip == reference[-1][3]
    peak = max(row[3] for row in reference)
    if trace.max_actuator > 0:
        assert trace.amplification == peak / trace.max_actuator
    else:
        assert trace.amplification == math.inf


def _short_pulley_plan(u_max, step, stroke):
    """The plan to a grip of ``stroke`` N on a linear 1 N/m law over [0, stroke] m,
    for an object one step out: the stage stays put and leaves a one-step gap. The
    pulley, of 1 m radius, ends the converter's range at u_max, short of the stroke."""
    law = ForceCharacteristic.linear(1.0, stroke)
    profile = PulleyProfile(1.0, [0.0, u_max - step], [0.0, 0.01])
    conv = FloatingConverter(law, profile, CounterElement.weight(10.0))
    plan = plan_grasp(GripperModel(conv, 1.0, step, True, 1e9, step), stroke)
    assert (plan.n_stop, plan.gap_x, plan.converter_stroke) == (0, step, stroke)
    assert replace(conv, gap_x=step).u_max == u_max
    return plan


@pytest.mark.parametrize(
    "u_max, step, stroke, text",
    [
        # a stroke 800 times the converter's range: the grid ends at the stroke,
        # which the law's x_max bounds, but the ticks stop at the first refused one
        (0.12, 0.01, 100.0, "value range [0.13, 0.13] outside domain [0, 0.12]"),
        # the third tick, 3 * 0.1, lands an ulp past u_max = 0.3, inside the slack
        # the domain accepts: the fourth is the first it refuses
        (0.3, 0.1, 0.5, "value range [0.4, 0.4] outside domain [0, 0.3]"),
        # a step a tenth of the 1e-12 m slack: the ticks past u_max inside it are accepted
        (1e-11, 1e-13, 2e-11, "value range [1.1e-11, 1.1e-11] outside domain [0, 1e-11]"),
    ],
    ids=["long_stroke", "tick_in_the_slack", "step_inside_the_slack"],
)
def test_stroke_past_u_max_stops_at_the_first_refused_tick(u_max, step, stroke, text):
    plan = _short_pulley_plan(u_max, step, stroke)
    assert _outcome(reference_simulate_grasp, plan) == (DomainError, text)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as info:
            simulate_grasp(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == text
    assert peak < 1_000_000
