"""Force-law evaluation, energy integrals and inverses."""

import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floatconv import (
    CounterElement,
    DomainError,
    FloatConvError,
    FloatingConverter,
    ForceCharacteristic,
    GraspTrace,
    GripperModel,
    PulleyProfile,
    SweepTable,
    UnreachableForce,
    ValidationError,
    plan_grasp,
    profile_to_svg,
    synthesize_spring_counter,
    synthesize_weight_counter,
)
from floatconv.characteristics import PiecewiseLinear, _slack, clip_domain

stiffness = st.floats(min_value=1e-2, max_value=1e5, allow_nan=False)
extension_limit = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)

_trapz = getattr(np, "trapezoid", None) or np.trapz  # np.trapezoid is numpy >= 2.0


def test_linear_force_values():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    assert lin.force_at(0.0) == 0.0
    assert lin.force_at(0.1) == pytest.approx(10.0, rel=1e-12)


def test_constant_and_power_law_values():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    assert const.force_at(0.17) == 10.0
    pw = ForceCharacteristic.power_law(c=1.0, d=0.1, p=2.0, x_max=0.1)
    assert pw.force_at(0.0) == pytest.approx(100.0, rel=1e-12)
    assert pw.force_at(0.1) == pytest.approx(25.0, rel=1e-12)


def test_tabulated_midpoint_interpolation():
    tab = ForceCharacteristic.tabulated([(0.0, 0.0), (0.1, 10.0)])
    assert tab.force_at(0.05) == pytest.approx(5.0, rel=1e-12)


def test_vectorized_evaluation_matches_scalar():
    tab = ForceCharacteristic.tabulated([(0.0, 1.0), (0.04, 3.0), (0.1, 4.0)])
    xs = np.linspace(0.0, 0.1, 23)
    vec = tab.force_at(xs)
    assert vec == pytest.approx([tab.force_at(float(x)) for x in xs], abs=0.0)


def test_stored_energy_closed_forms():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    assert lin.stored_energy(0.1) == pytest.approx(0.5, rel=1e-12)
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.3)
    assert const.stored_energy(0.2) == pytest.approx(2.0, rel=1e-12)


def test_power_law_energy_against_fine_quadrature():
    # oracle: fine-step trapezoid of 1/(x+0.1)**2, analytically
    # 1/0.1 - 1/0.2 = 5
    pw = ForceCharacteristic.power_law(c=1.0, d=0.1, p=2.0, x_max=0.1)
    xs = np.linspace(0.0, 0.1, 2**17 + 1)
    oracle = _trapz(1.0 / (xs + 0.1) ** 2, xs)
    assert oracle == pytest.approx(5.0, abs=5e-9)
    assert pw.stored_energy(0.1) == pytest.approx(oracle, abs=5e-6)


# -- energy oracle ---------------------------------------------------------------

# knots off any uniform grid; x_max inside the last segment
OFF_GRID = ForceCharacteristic.tabulated(
    [(0.0, 0.5), (0.0123, 2.0), (0.0371, 1.25), (0.0902, 7.75), (0.13, 9.0)], x_max=0.1117
)
ENERGY_LAWS = {
    "linear": ForceCharacteristic.linear(k=137.5, x_max=0.4),
    "constant": ForceCharacteristic.constant(f0=10.0, x_max=0.3),
    "power_law_p1": ForceCharacteristic.power_law(c=0.3, d=0.02, p=1.0, x_max=0.12),
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12),
    "tabulated": OFF_GRID,
}


def quadrature_energy(char, x, panels=2**16):
    """Test-side oracle: trapezoid of force_at on a uniform grid plus the knots.

    Adding a tabulated law's knots to the grid makes the rule exact for it;
    smooth laws converge as panels**-2.
    """
    grid = np.linspace(0.0, x, panels + 1)
    if char.kind == "tabulated":
        knots = np.array([k for k, _ in char.points])
        grid = np.union1d(grid, knots[knots < x])
    return float(_trapz(char.force_at(grid), grid))


@pytest.mark.parametrize("char", ENERGY_LAWS.values(), ids=ENERGY_LAWS.keys())
def test_stored_energy_matches_quadrature_oracle(char):
    for frac in (0.0, 1e-6, 0.137, 0.5, 0.861, 1.0):
        x = frac * char.x_max
        exact = char.stored_energy(x)
        assert exact == pytest.approx(quadrature_energy(char, x), rel=1e-9, abs=1e-15)


def test_tabulated_energy_is_exact_sum_of_knot_trapezoids():
    # F(0.1117) on the last segment, then one trapezoid per segment by hand
    f_end = 7.75 + (9.0 - 7.75) * (0.1117 - 0.0902) / (0.13 - 0.0902)
    by_hand = (
        0.5 * (0.5 + 2.0) * 0.0123
        + 0.5 * (2.0 + 1.25) * (0.0371 - 0.0123)
        + 0.5 * (1.25 + 7.75) * (0.0902 - 0.0371)
        + 0.5 * (7.75 + f_end) * (0.1117 - 0.0902)
    )
    assert OFF_GRID.stored_energy(0.1117) == pytest.approx(by_hand, rel=1e-14)
    # a uniform 2048-panel grid misses the knots: about 1e-7 relative error
    grid = np.linspace(0.0, 0.1117, 2049)
    coarse = float(_trapz(OFF_GRID.force_at(grid), grid))
    assert abs(coarse - by_hand) > 1e-8 * by_hand


@pytest.mark.parametrize("char", ENERGY_LAWS.values(), ids=ENERGY_LAWS.keys())
def test_stored_energy_accepts_arrays(char):
    xs = np.linspace(0.0, char.x_max, 37)
    vec = char.stored_energy(xs)
    assert vec.shape == xs.shape
    assert vec == pytest.approx([char.stored_energy(float(x)) for x in xs], rel=1e-14, abs=0.0)


def test_power_law_energy_keeps_precision_near_zero():
    pw = ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12)
    x = 1e-12
    # E ~ F(0)*x for tiny x; forming 1 + x/d before the log keeps only
    # about seven digits here
    assert pw.stored_energy(x) == pytest.approx(pw.force_at(0.0) * x, rel=1e-9, abs=0.0)


# -- piecewise-linear curve ------------------------------------------------------

# ordinates that are not small integers, so that another rounding order
# of the interpolation shows in the last bit
CURVE = PiecewiseLinear(np.array([0.5, 0.8, 1.2, 2.0]), np.array([1.0, -2.3, 4.1, 3.7]))
CURVE_POINTS = [0.5, 0.65, 0.7, 0.8, 0.9, 1.0, 1.2, 1.7, math.nextafter(2.0, 0.0), 2.0]


def _bits(value):
    assert type(value) is float
    return struct.pack("<d", value)


@pytest.mark.parametrize("x", CURVE_POINTS)
def test_piecewise_linear_float_path_matches_numpy(x):
    assert _bits(CURVE.at(x)) == _bits(float(CURVE.at(np.asarray(x))))
    assert _bits(CURVE.integral(x)) == _bits(float(CURVE.integral(np.asarray(x))))
    y, integral = CURVE.at_and_integral(x)
    assert (_bits(y), _bits(integral)) == (_bits(CURVE.at(x)), _bits(CURVE.integral(x)))


def test_piecewise_linear_array_path_matches_float_path():
    xs = np.array(CURVE_POINTS)
    assert [_bits(float(v)) for v in CURVE.at(xs)] == [_bits(CURVE.at(x)) for x in CURVE_POINTS]
    assert [_bits(float(v)) for v in CURVE.integral(xs)] == [
        _bits(CURVE.integral(x)) for x in CURVE_POINTS
    ]


def test_piecewise_linear_clamps_outside_the_knots():
    for x in (0.0, 0.4, 2.5):
        assert CURVE.at(x) == float(np.interp(x, CURVE.xs, CURVE.ys))
        assert CURVE.at(x) == float(CURVE.at(np.asarray(x)))
    assert (CURVE.at(0.0), CURVE.at(2.5)) == (1.0, 3.7)


def test_piecewise_linear_integral_is_exact_for_the_curve():
    # one trapezoid per panel by hand; inside a panel the curve is linear,
    # so the partial trapezoid is its exact integral
    by_hand = [0.0, 0.5 * (1.0 - 2.3) * 0.3]
    by_hand.append(by_hand[-1] + 0.5 * (-2.3 + 4.1) * 0.4)
    by_hand.append(by_hand[-1] + 0.5 * (4.1 + 3.7) * 0.8)
    assert CURVE.cumulative == pytest.approx(by_hand, rel=1e-15, abs=1e-16)
    for x, cum in zip(CURVE.xs, by_hand):
        assert CURVE.integral(float(x)) == pytest.approx(cum, rel=1e-15, abs=1e-16)
    # y falls from 1 to -0.65 over [0.5, 0.65]
    assert CURVE.integral(0.65) == pytest.approx(0.15 * 0.5 * (1.0 - 0.65), rel=1e-14)


# -- inverse oracle --------------------------------------------------------------


def bisect_extension(char, target):
    """Test-side oracle: bisection on force_at over [0, x_max]."""
    lo, hi = 0.0, char.x_max
    f_lo = char.force_at(lo) - target
    f_hi = char.force_at(hi) - target
    if f_lo == 0.0:
        return lo
    if f_lo * f_hi > 0:
        raise UnreachableForce(f"{target:g} N outside characteristic range")
    while hi - lo > 1e-14 * char.x_max:
        mid = 0.5 * (lo + hi)
        fm = char.force_at(mid) - target
        if fm == 0.0:
            return mid
        if f_lo * fm < 0:
            hi = mid
        else:
            lo, f_lo = mid, fm
    return 0.5 * (lo + hi)


FALLING = ForceCharacteristic.tabulated([(0.0, 9.0), (0.04, 6.5), (0.0777, 2.0), (0.12, -1.0)])
INVERSE_LAWS = {
    "linear": ForceCharacteristic.linear(k=124.55, x_max=0.1205),
    "power_law_p1": ForceCharacteristic.power_law(c=0.3, d=0.02, p=1.0, x_max=0.12),
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12),
    "tabulated": ForceCharacteristic.tabulated([(0.0, 0.5), (0.0123, 2.0), (0.0902, 7.75), (0.13, 9.0)]),
    # x_max inside the last segment: forces past F(x_max) are out of range
    "tabulated_x_max_inside": ForceCharacteristic.tabulated(
        [(0.0, 0.5), (0.0902, 7.75), (0.13, 9.0)], x_max=0.1117
    ),
    "tabulated_falling": FALLING,
}


@pytest.mark.parametrize("char", INVERSE_LAWS.values(), ids=INVERSE_LAWS.keys())
def test_extension_matches_bisection_oracle(char):
    for frac in (0.0, 1e-9, 0.0123 / 0.13, 0.25, 0.5, 0.77, 1.0 - 1e-9, 1.0):
        target = char.force_at(frac * char.x_max)
        got = char.extension_at(target)
        assert abs(got - bisect_extension(char, target)) <= 1e-12 * char.x_max
        assert char.force_at(got) == pytest.approx(target, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("char", INVERSE_LAWS.values(), ids=INVERSE_LAWS.keys())
def test_extension_out_of_range_raises_like_bisection(char):
    ends = sorted((char.force_at(0.0), char.force_at(char.x_max)))
    span = ends[1] - ends[0]
    for target in (
        ends[0] - 0.01 * span - 1.0,
        ends[0] - 0.01 * span,
        ends[1] + 0.01 * span,
        ends[1] + 0.01 * span + 1.0,
    ):
        with pytest.raises(UnreachableForce):
            bisect_extension(char, target)
        with pytest.raises(UnreachableForce):
            char.extension_at(target)
    with pytest.raises(UnreachableForce):
        char.extension_at(math.nan)


def test_constant_extension():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    assert const.extension_at(10.0) == bisect_extension(const, 10.0) == 0.0
    for target in (9.0, 11.0):
        with pytest.raises(UnreachableForce):
            bisect_extension(const, target)
        with pytest.raises(UnreachableForce):
            const.extension_at(target)


def test_linear_and_tabulated_extension_formulas():
    assert ForceCharacteristic.linear(k=100.0, x_max=0.12).extension_at(10.0) == 10.0 / 100.0
    tab = ForceCharacteristic.tabulated([(0.0, 0.0), (0.05, 2.0), (0.08, 2.0), (0.12, 10.0)])
    assert tab.extension_at(1.0) == 0.0 + (1.0 - 0.0) / (2.0 - 0.0) * (0.05 - 0.0)
    # a flat segment inverts to its left end
    assert tab.extension_at(2.0) == 0.05
    assert tab.extension_at(6.0) == 0.08 + (6.0 - 2.0) / (10.0 - 2.0) * (0.12 - 0.08)


# One end rule: a length up to _slack(end) past an end is accepted, the next float refused.


@pytest.mark.parametrize("x_max", [0.12, 5.0])
def test_linear_extension_ends_at_the_slack(x_max):
    char = ForceCharacteristic.linear(k=4.0, x_max=x_max)   # F / 4 is exact
    end = x_max + _slack(x_max)
    assert char.extension_at(4.0 * end) == end
    force = 4.0 * math.nextafter(end, math.inf)
    with pytest.raises(UnreachableForce) as info:
        char.extension_at(force)
    assert str(info.value) == f"{force:g} N outside characteristic range"


@pytest.mark.parametrize("last", [0.12, 5.0])
def test_tabulated_x_max_ends_at_the_slack(last):
    points = [(0.0, 0.0), (last, 10.0)]
    end = last + _slack(last)
    assert ForceCharacteristic.tabulated(points, x_max=end).force_at(end) == 10.0
    past = math.nextafter(end, math.inf)
    with pytest.raises(ValidationError) as info:
        ForceCharacteristic.tabulated(points, x_max=past)
    assert str(info.value) == f"x_max {past} exceeds last tabulated x {last}"


@pytest.mark.parametrize(
    "points",
    [[(0.0, 2.0), (0.05, 2.0), (0.12, 10.0)], [(0.0, 10.0), (0.05, 10.0), (0.12, 2.0)]],
    ids=["increasing", "decreasing"],
)
def test_flat_first_segment_inverts_to_its_first_x(points):
    # every later flat segment is reached through the segment before it
    char = ForceCharacteristic.tabulated(points)
    assert char.extension_at(points[0][1]) == 0.0


@pytest.mark.parametrize(
    "char",
    [
        ForceCharacteristic.tabulated([(0.0, 0.0), (0.04, 6.0), (0.08, 3.0), (0.12, 9.0)]),
    ],
    ids=["tabulated"],
)
def test_non_monotone_tabulated_extension_rejected(char):
    with pytest.raises(ValidationError, match="monotone"):
        char.extension_at(char.force_at(0.02))


@given(
    knots=st.lists(
        st.tuples(
            st.floats(min_value=1e-4, max_value=1.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=12,
    ),
    f_at_zero=st.floats(min_value=0.0, max_value=100.0),
)
def test_tabulated_reproduces_knots_exactly(knots, f_at_zero):
    xs = np.cumsum([0.0] + [dx for dx, _ in knots])
    fs = [f_at_zero] + [f for _, f in knots]
    tab = ForceCharacteristic.tabulated(list(zip(xs, fs)))
    for x, f in zip(xs, fs):
        assert tab.force_at(float(x)) == f


@settings(deadline=None)
@given(
    k=stiffness,
    x_max=extension_limit,
    f1=st.floats(min_value=0.0, max_value=1.0),
    f2=st.floats(min_value=0.0, max_value=1.0),
)
def test_stored_energy_non_decreasing_for_non_negative_force(k, x_max, f1, f2):
    lo, hi = sorted((f1 * x_max, f2 * x_max))
    for char in (
        ForceCharacteristic.linear(k=k, x_max=x_max),
        ForceCharacteristic.power_law(c=k, d=0.05 * x_max, p=1.5, x_max=x_max),
    ):
        assert char.stored_energy(hi) >= char.stored_energy(lo) - 1e-12


def test_domain_errors():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    with pytest.raises(DomainError):
        lin.force_at(-0.01)
    with pytest.raises(DomainError):
        lin.force_at(0.121)
    with pytest.raises(DomainError):
        lin.stored_energy(0.13)
    # closed domain: the endpoint itself is legal
    assert lin.force_at(0.12) == pytest.approx(12.0, rel=1e-12)


def test_endpoint_ulp_slack_accepted():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    assert lin.force_at(0.12 * (1 + 1e-13)) == pytest.approx(12.0, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValidationError):
        ForceCharacteristic.linear(k=-5.0, x_max=0.1)
    with pytest.raises(ValidationError):
        ForceCharacteristic.linear(k=100.0, x_max=0.0)
    with pytest.raises(ValidationError):
        ForceCharacteristic.tabulated([(0.0, 0.0)])
    with pytest.raises(ValidationError):
        ForceCharacteristic.tabulated([(0.01, 0.0), (0.1, 5.0)])  # first x != 0
    with pytest.raises(ValidationError):
        ForceCharacteristic.tabulated([(0.0, 0.0), (0.1, 5.0), (0.1, 6.0)])
    with pytest.raises(ValidationError):
        ForceCharacteristic.power_law(c=1.0, d=0.0, p=2.0, x_max=0.1)
    with pytest.raises(ValidationError):
        ForceCharacteristic.power_law(c=1.0, d=0.1, p=0.5, x_max=0.1)


# -- the power law's one expression -------------------------------------------------

# (c, d, p, x_max): a huge c over a small d to a large p overflows the force to inf
power_law_params = st.tuples(
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=1e-300, max_value=10.0),
    st.floats(min_value=1.0, max_value=400.0),
    st.floats(min_value=1e-6, max_value=1e3),
)
# ((c, d, p, x_max), x, force): the float64 formula overflows, where Python floats
# divide by a zero power, overflow the quotient to inf or raise in the power
POWER_LAW_OVERFLOWS = [
    ((1e300, 1e-10, 50.0, 1e-9), 0.0, math.inf),
    ((1e300, 1e-3, 10.0, 1e-3), 0.0, math.inf),
    ((1e300, 1e-3, 10.0, 1e-3), 1e-4, math.inf),
    ((1.0, 2.0, 2000.0, 1.0), 0.5, 0.0),
]


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(params=power_law_params, fraction=st.floats(min_value=0.0, max_value=1.0))
@example(params=POWER_LAW_OVERFLOWS[0][0], fraction=0.0)
@example(params=POWER_LAW_OVERFLOWS[1][0], fraction=0.0)
def test_power_law_float_force_is_the_float64_formula_bit_for_bit(params, fraction):
    c, d, p, x_max = params
    law = ForceCharacteristic.power_law(c=c, d=d, p=p, x_max=x_max)
    x = fraction * x_max
    with np.errstate(all="ignore"):
        assert _bits(law.force_at(x)) == _bits(float(c / np.float64(x + d) ** p))


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(
    params=power_law_params,
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
)
def test_power_law_array_force_is_the_formula_bit_for_bit(params, fractions):
    c, d, p, x_max = params
    law = ForceCharacteristic.power_law(c=c, d=d, p=p, x_max=x_max)
    xs = np.array(fractions) * x_max
    with np.errstate(all="ignore"):
        force = law.force_at(xs)
        expected = c / (xs + d) ** p
    assert force.dtype == np.float64 and force.tobytes() == expected.tobytes()


@pytest.mark.parametrize("params, x, expected", POWER_LAW_OVERFLOWS)
def test_power_law_float_force_overflows_without_raising(params, x, expected):
    law = ForceCharacteristic.power_law(*params[:3], x_max=params[3])
    with np.errstate(all="ignore"):
        force = law.force_at(x)   # no OverflowError
    assert type(force) is float and force == expected


# -- the array domain check ------------------------------------------------------


def test_clip_domain_returns_an_empty_array_for_an_empty_array():
    clipped = clip_domain(np.array([]), 1.0)
    assert isinstance(clipped, np.ndarray) and clipped.shape == (0,)
    assert ForceCharacteristic.linear(k=1.0, x_max=1.0).force_at(np.array([])).shape == (0,)


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("other", [0.5, -5.0, 6.0])
def test_clip_domain_reports_a_non_finite_value_first(bad, at, other):
    x = np.array([other, other, other])
    x[at] = bad
    with pytest.raises(DomainError, match="^displacement must be finite$"):
        clip_domain(x, 1.0)


def test_clip_domain_clips_slack_spill_onto_the_ends():
    x_max = 0.12
    x = np.array([-1e-13, 0.05, x_max * (1 + 1e-13)])
    x.flags.writeable = False   # the clip is a new array, not a write into the caller's
    clipped = clip_domain(x, x_max)
    assert clipped.tolist() == [0.0, 0.05, x_max] and math.copysign(1.0, clipped[0]) == 1.0
    assert x[0] == -1e-13
    with pytest.raises(DomainError, match=r"^value range \[-1e-11, 0.05\] outside domain"):
        clip_domain(np.array([-1e-11, 0.05]), x_max)


def test_clip_domain_keeps_negative_zero():
    clipped = clip_domain(np.array([-0.0, 0.5]), 1.0)
    assert math.copysign(1.0, clipped[0]) == -1.0


def _evaluators():
    """(id, array evaluator, upper end of its domain) for every public evaluator."""
    law = ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12)
    counter = CounterElement.spring(t0=10.0, k2=40.0)
    linear = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(linear, 0.02, 10.0)
    conv = FloatingConverter(law, profile, counter, gap_x=0.01)
    hi = profile.theta_max
    return [
        ("force_at", law.force_at, 0.12),
        ("stored_energy", law.stored_energy, 0.12),
        ("payout", profile.payout, hi),
        ("arc_length", profile.arc_length, hi),
        ("realized_force", lambda th: profile.realized_force(counter, th), hi),
        ("balance_residual", lambda th: profile.balance_residual(counter, law, th), hi),
        ("force_components", conv.force_components, conv.u_max),
        ("operating_force", conv.operating_force, conv.u_max),
    ]


EVALUATORS = _evaluators()


@pytest.mark.parametrize("name, fn, hi", EVALUATORS, ids=[e[0] for e in EVALUATORS])
def test_evaluators_leave_a_read_only_input_alone(name, fn, hi):
    x = np.linspace(0.0, hi, 9)
    x.flags.writeable = False
    out = fn(x)
    assert np.array_equal(x, np.linspace(0.0, hi, 9))
    for value in out if isinstance(out, tuple) else (out,):
        assert value.shape == x.shape and not np.shares_memory(value, x)


def _one_argument_calls():
    """(id, a call of one argument) for every evaluator, the counter's included, and
    for each argument that sweep, truncated, equilibrium_displacement, plan_grasp and
    extension_at compare."""
    law = ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12)
    profile = synthesize_weight_counter(ForceCharacteristic.linear(100.0, 0.12), 0.02, 10.0)
    counter = CounterElement.spring(t0=10.0, k2=40.0)
    conv = FloatingConverter(law, profile, counter, gap_x=0.01)
    model = GripperModel(conv, stage_travel=0.1, stage_step=0.01, latch_holds=True,
                         actuator_force_cap=2.0, object_position=0.05)
    return [(name, fn) for name, fn, _ in EVALUATORS] + [
        ("tension", counter.tension),
        ("released_energy", counter.released_energy),
        ("tension_for_energy", counter.tension_for_energy),
        ("energy_ledger.u0", lambda v: conv.energy_ledger(v, 0.05)),
        ("energy_ledger.u1", lambda v: conv.energy_ledger(0.05, v)),
        ("sweep.u_min", lambda v: conv.sweep(v, 0.05, 8)),
        ("sweep.u_max", lambda v: conv.sweep(0.0, v, 8)),
        ("truncated.r_min", lambda v: profile.truncated(v, 0.04)),
        ("truncated.r_max", lambda v: profile.truncated(0.001, v)),
        ("equilibrium_displacement", conv.equilibrium_displacement),
        ("plan_grasp", lambda v: plan_grasp(model, v)),
        ("extension_at", law.extension_at),
    ]


ONE_ARGUMENT_CALLS = _one_argument_calls()
NON_REAL_INPUT = {"bool": True, "numpy_bool": np.True_, "str": "0.05", "None": None,
                  "complex": 0.05j, "object": np.array(0.05, dtype=object),
                  "unprintable": [10**5000]}


@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize("kind", NON_REAL_INPUT)
@pytest.mark.parametrize("name, call", ONE_ARGUMENT_CALLS, ids=[c[0] for c in ONE_ARGUMENT_CALLS])
def test_non_real_input_is_refused(name, call, kind, shape):
    value = NON_REAL_INPUT[kind]
    with pytest.raises(ValidationError, match=r"must be a real number, got ") as info:
        call(value if shape == "scalar" else np.array([value, value]))
    assert len(str(info.value)) <= 200


@pytest.mark.parametrize("name, fn, hi", EVALUATORS, ids=[e[0] for e in EVALUATORS])
def test_evaluators_refuse_ragged_nesting(name, fn, hi):
    message = r"^displacement must be a real number, got \[\[0.0\], "
    with pytest.raises(ValidationError, match=message):
        fn([[0.0], [0.0, hi]])


# ints past the float range; 10**5000 has more digits than Python 3.11+ turns into text
HUGE_INTS = pytest.mark.parametrize("big", [10**400, -10**400, 10**5000],
                                    ids=["positive", "negative", "5001_digits"])


@HUGE_INTS
@pytest.mark.parametrize("name, fn, hi", EVALUATORS, ids=[e[0] for e in EVALUATORS])
def test_evaluators_read_an_int_past_the_float_range_as_infinite(name, fn, hi, big):
    with pytest.raises(DomainError, match="^displacement must be finite$"):
        fn(big)


@pytest.mark.parametrize("ends", [(np.array([0.0, 0.02]), 0.05), (0.01, np.array([0.05])),
                                  ([0.01, 0.02], [0.03, 0.04])], ids=["u0", "u1", "both"])
def test_energy_ledger_refuses_array_ends(ends):
    law = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    conv = FloatingConverter(law, synthesize_weight_counter(law, 0.02, 10.0),
                             CounterElement.weight(10.0), gap_x=0.01)
    with pytest.raises(ValidationError, match="^energy ledger ends u0 and u1 must be scalars$"):
        conv.energy_ledger(*ends)
    # a 0-d array is a scalar
    assert conv.energy_ledger(np.array(0.02), 0.05) == conv.energy_ledger(0.02, 0.05)


@pytest.mark.parametrize("points", [[[0.0, 0.0, 1.0]], [(0.0, 0.0), (0.1, 1.0, 2.0)],
                                    [(0.0,), (0.1, 1.0)], [0.0, 0.1], np.zeros((2, 3)), 5],
                         ids=["one-triple", "a-triple", "a-single", "flat", "3-columns", "int"])
def test_tabulated_points_must_be_pairs(points):
    builds = [lambda: ForceCharacteristic.tabulated(points),
              lambda: ForceCharacteristic.tabulated(points, x_max=0.1),
              lambda: ForceCharacteristic(kind="tabulated", x_max=0.1, points=points)]
    for build in builds:
        with pytest.raises(ValidationError, match=r"^tabulated points must be \(x, F\) pairs$"):
            build()


# -- real numbers ---------------------------------------------------------------


def _real_number_arguments():
    """(id, argument name, a function of that argument's value that builds the
    object, a value it accepts) for every public numeric argument."""
    law = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(law, 0.02, 10.0)
    counter = CounterElement.weight(10.0)
    conv = FloatingConverter(law, profile, counter)
    grip = {"stage_travel": 0.1, "stage_step": 0.01, "actuator_force_cap": 2.0,
            "object_position": 0.05}
    cases = [
        ("linear.k", "k", lambda v: ForceCharacteristic.linear(k=v, x_max=0.12), 1.0),
        ("linear.x_max", "x_max", lambda v: ForceCharacteristic.linear(k=1.0, x_max=v), 0.1),
        ("constant.f0", "f0", lambda v: ForceCharacteristic.constant(f0=v, x_max=0.12), 1.0),
        ("constant.x_max", "x_max", lambda v: ForceCharacteristic.constant(f0=1.0, x_max=v), 0.1),
        ("power_law.c", "c", lambda v: ForceCharacteristic.power_law(v, 0.1, 1.0, 0.1), 1.0),
        ("power_law.d", "d", lambda v: ForceCharacteristic.power_law(1.0, v, 1.0, 0.1), 0.1),
        ("power_law.p", "p", lambda v: ForceCharacteristic.power_law(1.0, 0.1, v, 0.1), 1.0),
        ("power_law.x_max", "x_max",
         lambda v: ForceCharacteristic.power_law(1.0, 0.1, 1.0, v), 0.1),
        ("tabulated.x", "tabulated x",
         lambda v: ForceCharacteristic.tabulated([(0, 0), (v, 1)]), 1.0),
        ("tabulated.F", "tabulated F",
         lambda v: ForceCharacteristic.tabulated([(0, 0), (1, v)]), 1.0),
        ("tabulated.x_max", "x_max",
         lambda v: ForceCharacteristic.tabulated([(0, 0), (1, 1)], x_max=v), 0.5),
        ("ForceCharacteristic.x_max", "x_max",
         lambda v: ForceCharacteristic(kind="linear", x_max=v, k=1.0), 0.1),
        # a field the law's kind does not use
        ("ForceCharacteristic.unused_c", "c",
         lambda v: ForceCharacteristic(kind="linear", x_max=0.1, k=1.0, c=v), 1.0),
        ("CounterElement.t0", "t0", lambda v: CounterElement(v, 0.0), 1.0),
        ("CounterElement.k2", "k2", lambda v: CounterElement(1.0, v), 1.0),
        ("weight.load", "load", CounterElement.weight, 1.0),
        ("spring.t0", "t0", lambda v: CounterElement.spring(v, 1.0), 1.0),
        ("spring.k2", "k2", lambda v: CounterElement.spring(1.0, v), 1.0),
        ("PulleyProfile.circular_radius", "circular_radius",
         lambda v: PulleyProfile(v, profile.thetas, profile.radii), 0.02),
        ("synthesize_weight_counter.circular_radius", "circular_radius",
         lambda v: synthesize_weight_counter(law, v, 10.0, 8), 0.02),
        ("synthesize_weight_counter.load", "load",
         lambda v: synthesize_weight_counter(law, 0.02, v, 8), 10.0),
        ("synthesize_weight_counter.theta_max", "theta_max",
         lambda v: synthesize_weight_counter(law, 0.02, 10.0, 8, v), 1.0),
        ("synthesize_spring_counter.circular_radius", "circular_radius",
         lambda v: synthesize_spring_counter(law, v, counter, 8), 0.02),
        ("synthesize_spring_counter.theta_max", "theta_max",
         lambda v: synthesize_spring_counter(law, 0.02, counter, 8, v), 1.0),
        ("profile_to_svg.scale", "scale", lambda v: profile_to_svg(profile, v), 10.0),
        # a 12 N weight against the 10 N the law was synthesized for: the
        # operating force falls through -1 N at u = 0.05 m
        ("equilibrium_displacement.applied", "applied",
         FloatingConverter(law, profile, CounterElement.weight(12.0)).equilibrium_displacement,
         -1.0),
    ]
    cases += [(f"FloatingConverter.{name}", name,
               lambda v, name=name: FloatingConverter(law, profile, counter, **{name: v}), 0.1)
              for name in ("gap_x", "friction_mu", "friction_f0")]
    cases += [(f"GripperModel.{name}", name,
               lambda v, name=name: GripperModel(conv, **{**grip, name: v}, latch_holds=True),
               grip[name])
              for name in grip]
    return cases


def _compared_arguments():
    """(id, argument name, a call of that argument, a value it accepts) for each
    argument that is only compared, so that an infinite value may be meaningful."""
    law = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(law, 0.02, 10.0)
    conv = FloatingConverter(law, profile, CounterElement.weight(10.0))
    model = GripperModel(conv, stage_travel=0.1, stage_step=0.01, latch_holds=True,
                         actuator_force_cap=2.0, object_position=0.05)
    return [
        ("sweep.u_min", "u_min", lambda v: conv.sweep(v, 0.05, 8), 0.0),
        ("sweep.u_max", "u_max", lambda v: conv.sweep(0.0, v, 8), 0.05),
        ("truncated.r_min", "r_min", lambda v: profile.truncated(v, 0.04), 0.001),
        ("truncated.r_max", "r_max", lambda v: profile.truncated(0.001, v), 0.04),
        ("plan_grasp.target_grip", "target_grip", lambda v: plan_grasp(model, v), 1.0),
        ("extension_at.force", "force", law.extension_at, 1.0),
    ]


# None is the default of a tabulated law's x_max and of theta_max, so it is no error there
NOT_REAL = {"bool": True, "numpy_bool": np.True_, "str": "0.5", "None": None, "complex": 0.5j,
            "unprintable": [10**5000]}
REAL_NUMBER_CASES = [
    pytest.param(name, build, good, value, id=f"{case}-{kind}")
    for case, name, build, good in _real_number_arguments() + _compared_arguments()
    for kind, value in NOT_REAL.items()
    if not (value is None and case.endswith(("tabulated.x_max", "theta_max")))
]


@pytest.mark.parametrize("name, build, good, value", REAL_NUMBER_CASES)
def test_numeric_arguments_must_be_real_numbers(name, build, good, value):
    build(good)
    build(np.float32(good))   # a numpy scalar is a real number
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(name)} must be a real number, got ") as info:
        build(value)
    assert len(str(info.value)) <= 200


# -- one-sided bounds -----------------------------------------------------------


def test_one_sided_bounds_name_the_stored_float():
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    counter = CounterElement.weight(10.0)
    conv = FloatingConverter(spring, profile, counter)
    thetas, radii = np.array([0.0, 1.0]), np.array([0.0, 0.01])

    def gripper(**kw):
        args = dict(stage_travel=0.1, stage_step=0.01, latch_holds=True,
                    actuator_force_cap=2.0, object_position=0.05)
        return GripperModel(conv, **{**args, **kw})

    # a record stores its numbers as floats, so an int field prints as a float,
    # and synthesis checks the float it reads of its circular radius
    cases = [
        (lambda: ForceCharacteristic(kind="linear", x_max=0, k=1), "x_max must be > 0, got 0.0"),
        (lambda: ForceCharacteristic(kind="linear", x_max=1, k=-2),
         "linear stiffness k must be > 0, got -2.0"),
        (lambda: ForceCharacteristic(kind="constant", x_max=1, f0=-1),
         "constant force f0 must be >= 0, got -1.0"),
        (lambda: ForceCharacteristic(kind="power_law", x_max=1, c=-1, d=1, p=2),
         "power-law c must be >= 0, got -1.0"),
        (lambda: ForceCharacteristic(kind="power_law", x_max=1, c=1, d=0, p=2),
         "power-law d must be > 0, got 0.0"),
        (lambda: ForceCharacteristic(kind="power_law", x_max=1, c=1, d=1, p=0),
         "power-law p must be >= 1, got 0.0"),
        (lambda: CounterElement(t0=-1), "counter spring pretension must be >= 0, got -1.0"),
        (lambda: CounterElement(t0=1, k2=-3), "counter spring stiffness must be >= 0, got -3.0"),
        (lambda: CounterElement.weight(0), "counter weight load must be > 0, got 0.0"),
        (lambda: FloatingConverter(spring, profile, counter, gap_x=-1),
         "gap_x must be >= 0, got -1.0"),
        (lambda: FloatingConverter(spring, profile, counter, friction_f0=-2),
         "friction_f0 must be >= 0, got -2.0"),
        (lambda: gripper(stage_step=0), "stage_step must be > 0, got 0.0"),
        (lambda: gripper(stage_travel=-1), "stage_travel must be >= 0, got -1.0"),
        (lambda: gripper(actuator_force_cap=0), "actuator_force_cap must be > 0, got 0.0"),
        (lambda: PulleyProfile(0, thetas, radii), "circular-pulley radius must be > 0, got 0.0"),
        (lambda: PulleyProfile(math.nan, thetas, radii),
         "circular_radius must be finite, got nan"),
        (lambda: synthesize_weight_counter(spring, 0, 10.0),
         "circular radius must be > 0, got 0.0"),
        (lambda: synthesize_weight_counter(spring, 0.02, 10.0, theta_max=-1),
         "theta_max must be > 0, got -1.0"),
        (lambda: synthesize_weight_counter(spring, 0.02, 10.0, theta_max=math.nan),
         "theta_max must be finite, got nan"),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message


# -- float fields -----------------------------------------------------------------

# each law's numeric fields, all whole numbers, so np.float32 and np.int64 hold them exactly
LAW_FIELDS = {
    "linear": {"k": 100, "x_max": 2},
    "constant": {"f0": 3, "x_max": 2},
    "power_law": {"c": 1, "d": 1, "p": 2, "x_max": 2},
}
KNOTS = ((0, 0), (1, 4), (2, 5))


def _records(num):
    """(record, its numeric scalar fields) for each of the five records, built by
    its raw constructor from num of every number."""
    laws = [ForceCharacteristic(kind=kind, **{k: num(v) for k, v in fields.items()})
            for kind, fields in LAW_FIELDS.items()]
    table = ForceCharacteristic(kind="tabulated", x_max=num(2),
                                points=tuple((num(x), num(f)) for x, f in KNOTS))
    counter = CounterElement(num(10), num(5))
    profile = PulleyProfile(num(1), np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
    conv = FloatingConverter(laws[0], profile, counter,
                             gap_x=num(1), friction_mu=num(0), friction_f0=num(1))
    model = GripperModel(conv, stage_travel=num(4), stage_step=num(1), latch_holds=True,
                         actuator_force_cap=num(2), object_position=num(3))
    return [(law, list(fields)) for law, fields in zip(laws, LAW_FIELDS.values())] + [
        (table, ["x_max"]),
        (counter, ["t0", "k2"]),
        (profile, ["circular_radius"]),
        (conv, ["gap_x", "friction_mu", "friction_f0"]),
        (model, ["stage_travel", "stage_step", "actuator_force_cap", "object_position"]),
    ]


@pytest.mark.parametrize("num", [np.float32, np.int64])
def test_raw_constructors_store_python_floats(num):
    records = _records(num)
    for (record, names), (want, _) in zip(records, _records(float)):
        for name in names:
            value = getattr(record, name)
            assert type(value) is float and value == getattr(want, name), (record, name)
    table = records[3][0]
    assert all(type(v) is float for knot in table.points for v in knot)
    # the factories build the same laws and counter from floats
    factories = [getattr(ForceCharacteristic, kind)(**{k: float(v) for k, v in fields.items()})
                 for kind, fields in LAW_FIELDS.items()]
    factories += [ForceCharacteristic.tabulated([(float(x), float(f)) for x, f in KNOTS]),
                  CounterElement.spring(10.0, 5.0)]
    assert [record for record, _ in records[:5]] == factories


def test_numpy_scalar_fields_keep_the_float_path():
    law = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(law, 0.02, 10.0)

    def converter(num):
        return FloatingConverter(law, profile, CounterElement(num(10.0)), gap_x=num(0.03125))

    got = converter(np.float32).force_components(0.05)
    want = converter(float).force_components(0.05)
    assert [type(v) for v in got] == [float, float] and got == want


def _raw_law_fields():
    """(name, a function of that field's value that builds the record by the raw
    constructor) for each law field the factory cases do not pass raw."""
    return [
        ("k", lambda v: ForceCharacteristic(kind="linear", x_max=0.1, k=v)),
        ("f0", lambda v: ForceCharacteristic(kind="constant", x_max=0.1, f0=v)),
        ("c", lambda v: ForceCharacteristic(kind="power_law", x_max=0.1, c=v, d=0.1, p=1.0)),
        ("d", lambda v: ForceCharacteristic(kind="power_law", x_max=0.1, c=1.0, d=v, p=1.0)),
        ("p", lambda v: ForceCharacteristic(kind="power_law", x_max=0.1, c=1.0, d=0.1, p=v)),
        ("tabulated x", lambda v: ForceCharacteristic(kind="tabulated", x_max=0.1,
                                                      points=((0.0, 0.0), (v, 1.0)))),
        ("tabulated F", lambda v: ForceCharacteristic(kind="tabulated", x_max=0.1,
                                                      points=((0.0, 0.0), (0.1, v)))),
    ]


HUGE_INT_CASES = [
    pytest.param(name, build, id=case) for case, name, build, _ in _real_number_arguments()
] + [
    pytest.param(name, build, id=f"ForceCharacteristic.{name}") for name, build in _raw_law_fields()
]


@HUGE_INTS
@pytest.mark.parametrize("name, build", HUGE_INT_CASES)
def test_an_int_past_the_float_range_is_not_finite(name, build, big):
    message = f"^{re.escape(name)} must be finite, got {'inf' if big > 0 else '-inf'}$"
    with pytest.raises(ValidationError, match=message):
        build(big)


def _outcome(build, value):
    """None when build(value) returns, else the FloatConvError it raises, as
    (type, message); any other exception, or a warning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build(value)
        except FloatConvError as exc:
            assert len(str(exc)) <= 200, str(exc)
            return type(exc), str(exc)
    return None


COMPARED_CASES = [
    pytest.param(case, build, id=case) for case, _, build, _ in _compared_arguments()
]


@HUGE_INTS
@pytest.mark.parametrize("case, build", COMPARED_CASES)
def test_a_compared_argument_reads_a_huge_int_as_its_infinity(case, build, big):
    infinity = math.inf if big > 0 else -math.inf
    outcome = _outcome(build, big)
    assert outcome == _outcome(build, infinity)
    # +inf is no upper truncation bound, as truncated(0.0, math.inf) shows;
    # every other infinity is refused
    assert (outcome is None) == (case == "truncated.r_max" and big > 0)


def _count_arguments():
    """(label, a call of one count argument) for each count a caller passes."""
    law = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    counter = CounterElement.weight(10.0)
    conv = FloatingConverter(law, synthesize_weight_counter(law, 0.02, 10.0), counter)
    return [
        ("sweep rows", lambda n: conv.sweep(0.0, 0.05, n)),
        ("n_samples", lambda n: synthesize_weight_counter(law, 0.02, 10.0, n)),
        ("n_steps", lambda n: synthesize_spring_counter(law, 0.02, counter, n)),
    ]


COUNT_ARGUMENTS = _count_arguments()


@HUGE_INTS
@pytest.mark.parametrize("label, build", COUNT_ARGUMENTS, ids=[c[0] for c in COUNT_ARGUMENTS])
def test_a_huge_count_is_refused_in_a_short_message(label, build, big):
    error, message = _outcome(build, big)
    assert error is ValidationError
    shown = "int" if big == 10**5000 else str(big)[:80]   # no 5,001-digit int prints
    assert message.endswith(f"], got {shown}") and message.startswith(f"{label} must be in [")


def test_a_law_reads_the_fields_its_kind_does_not_use():
    law = ForceCharacteristic(kind="linear", x_max=0.1, k=1.0, c=np.float32(2))
    assert type(law.c) is float and law.c == 2.0
    with pytest.raises(ValidationError, match="^c must be a real number, got 'x'$"):
        ForceCharacteristic(kind="linear", x_max=0.1, k=1.0, c="x")


# the cut is 80 UTF-8 bytes, and drops a character it would split
@pytest.mark.parametrize("kind, shown", [("spring", "'spring'"), ("x" * 100_000, "'" + "x" * 79),
                                         ("\u00e9" * 100, "'" + "\u00e9" * 39),
                                         ("a" + "\U0001F600" * 30, "'a" + "\U0001F600" * 19),
                                         ([10**5000], "list")],
                         ids=["short", "long", "two_byte", "split", "unprintable"])
def test_an_unknown_kind_is_shown_cut(kind, shown):
    with pytest.raises(ValidationError) as info:
        ForceCharacteristic(kind=kind, x_max=0.1)
    assert str(info.value) == f"unknown characteristic kind {shown}"


# -- array records ----------------------------------------------------------------

# each record with the number of columns it takes, its column-contract label,
# its fewest rows and a builder from those columns; [0, 1, 2] is a valid value
# for every column
RECORDS = {
    "profile": (2, "profile columns", 2, lambda cols: PulleyProfile(0.02, *cols)),
    "sweep": (3, "sweep columns", 1, lambda cols: SweepTable(*cols)),
    "trace": (3, "trace columns", 2, lambda cols: GraspTrace(*cols, 0, True)),
}
SHAPES = {
    "ragged": lambda cols: [*cols[:-1], cols[-1][:-1]],
    "2-d": lambda cols: [[col] for col in cols],
    "0-d": lambda cols: [col[0] for col in cols],
    # no array of real numbers: refused by the reader, which names the first field
    "nested": lambda cols: [[col[:2], col[2:]] for col in cols],
    "text": lambda cols: [["a"] * len(col) for col in cols],
    "numeric_text": lambda cols: [[str(v) for v in col] for col in cols],
    "bool": lambda cols: [[bool(v) for v in col] for col in cols],
    "object": lambda cols: [np.array(col, dtype=object) for col in cols],
    "huge_int": lambda cols: [[0, 10**400, 2] for _ in cols],
}
NOT_REAL_SHAPES = ("nested", "text", "numeric_text", "bool", "object", "huge_int")


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("record", RECORDS)
def test_array_records_need_1d_columns_of_one_length(record, shape):
    n, label, _, build = RECORDS[record]
    built = build([[0.0, 1.0, 2.0]] * n)
    first = next(name for name, value in vars(built).items() if isinstance(value, np.ndarray))
    columns = SHAPES[shape]([[0.0, 1.0, 2.0]] * n)
    if shape in NOT_REAL_SHAPES:
        message = f"^{first} must be a real number, got "
    else:
        message = f"^{label} must be numeric, 1-d and share one length$"
    with pytest.raises(ValidationError, match=message) as info:
        build(columns)
    assert len(str(info.value)) <= 200


@pytest.mark.parametrize("record", RECORDS)
def test_array_records_refuse_too_few_rows(record):
    n, label, rows, build = RECORDS[record]
    build([[0.0, 1.0, 2.0][:rows]] * n)
    message = f"^{label} need {rows} or more rows, got {rows - 1}$"
    with pytest.raises(ValidationError, match=message):
        build([[0.0, 1.0, 2.0][:rows - 1]] * n)


@pytest.mark.parametrize("record", RECORDS)
def test_array_records_hold_read_only_copies(record):
    n, _, _, build = RECORDS[record]
    columns = [np.array([0.0, 1.0, 2.0]) for _ in range(n)]
    built = build(columns)
    for column in columns:
        column[1] = 5.0
    held = [value for value in vars(built).values() if isinstance(value, np.ndarray)]
    assert len(held) == n
    for value in held:
        assert value.tolist() == [0.0, 1.0, 2.0]
        assert not value.flags.writeable


def _frozen(array):
    array.flags.writeable = False
    return array


def _held(built):
    return [value for value in vars(built).values() if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("record", RECORDS)
def test_array_records_keep_a_frozen_column_that_owns_its_memory(record):
    # the producer froze the column it built: the record takes it over uncopied
    n, _, _, build = RECORDS[record]
    columns = [_frozen(np.array([0.0, 1.0, 2.0])) for _ in range(n)]
    held = _held(build(columns))
    assert len(held) == n
    for value, column in zip(held, columns):
        assert value is column and np.shares_memory(value, column)


# each a column that reads as [0, 1, 2] and must be copied
COPIED_COLUMNS = {
    "writeable": lambda: np.array([0.0, 1.0, 2.0]),
    "read_only_view": lambda: np.broadcast_to(np.array([0.0, 1.0, 2.0]), (3,)),
    "read_only_slice": lambda: _frozen(np.array([0.0, 1.0, 2.0, 3.0]))[:3],
    "int": lambda: _frozen(np.array([0, 1, 2])),
}


@pytest.mark.parametrize("column", COPIED_COLUMNS)
@pytest.mark.parametrize("record", RECORDS)
def test_array_records_copy_any_other_column(record, column):
    n, _, _, build = RECORDS[record]
    columns = [COPIED_COLUMNS[column]() for _ in range(n)]
    held = _held(build(columns))
    assert len(held) == n
    for value, given_column in zip(held, columns):
        assert not np.shares_memory(value, given_column)
        assert value.dtype == np.float64 and value.flags.owndata and not value.flags.writeable
        assert value.tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("record", RECORDS)
def test_array_records_copy_a_column_of_another_dtype_once(record):
    # one float copy per int column, not one by the float conversion and another after it
    n, _, _, build = RECORDS[record]
    rows = 2**16
    columns = [np.arange(rows) for _ in range(n)]
    tracemalloc.start()
    try:
        built = build(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(value.tolist() == list(range(rows)) for value in _held(built))
    assert peak < (n + 0.5) * rows * 8


@pytest.mark.parametrize("row", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record, coordinate", [("sweep", "sweep displacements"),
                                                ("trace", "trace jaw")])
def test_array_records_refuse_a_coordinate_that_is_not_finite(record, coordinate, value, row):
    # NaN compares false, so the order check alone let it through; the force columns
    # may still hold one, which the summaries refuse
    n, _, _, build = RECORDS[record]
    first = [0.0, 1.0, 2.0]
    first[row] = value
    with pytest.raises(ValidationError, match=f"^{coordinate} must be finite$"):
        build([first] + [[0.0, 1.0, 2.0]] * (n - 1))
    build([[0.0, 1.0, 2.0]] + [first] * (n - 1))


@pytest.mark.parametrize("record", RECORDS)
def test_array_records_compare_by_identity(record):
    n, _, _, build = RECORDS[record]
    a, b = build([[0.0, 1.0, 2.0]] * n), build([[0.0, 1.0, 2.0]] * n)
    assert a == a and not a != a
    assert a != b and not a == b
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a)
    assert {a: "a", b: "b"}[a] == "a"


def test_records_holding_a_profile_compare_by_it():
    law = ForceCharacteristic.linear(100.0, 0.12)
    one, other = (synthesize_weight_counter(law, 0.02, 10.0) for _ in range(2))
    conv = FloatingConverter(law, one, CounterElement.weight(10.0))
    same = FloatingConverter(law, one, CounterElement.weight(10.0))
    apart = FloatingConverter(law, other, CounterElement.weight(10.0))
    assert conv == same and not conv != same and hash(conv) == hash(same)
    assert conv != apart and not conv == apart
    assert same in [apart, conv] and apart not in [conv]
    assert {conv: "conv", apart: "apart"}[same] == "conv"
    models = [GripperModel(c, stage_travel=0.1, stage_step=0.01, latch_holds=True,
                           actuator_force_cap=2.0, object_position=0.05)
              for c in (conv, same, apart)]
    assert models[0] == models[1] and models[0] != models[2]
    assert {models[0]: 0, models[2]: 2}[models[1]] == 0
