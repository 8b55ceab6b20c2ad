"""Pulley synthesis, forward verification, payout/arc geometry, truncation."""

import math
import struct
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floatconv import (
    CounterElement,
    DomainError,
    FloatingConverter,
    ForceCharacteristic,
    NumericalError,
    SingularityError,
    ValidationError,
    synthesize_spring_counter,
    synthesize_weight_counter,
)
from floatconv.pulley import MAX_PROFILE_RADIUS, PulleyProfile

PROTO_THETA_MAX = math.radians(345.0)  # 6.0214 rad prototype stroke
MIN_NORMAL = sys.float_info.min


def make_linear(k=100.0, R=0.02):
    return ForceCharacteristic.linear(k=k, x_max=R * PROTO_THETA_MAX)


def prototype_truncated(n_samples=512):
    """k = 124.55 N/m, R = 20 mm, load = 10 N, radii clamped to 10-40 mm."""
    spring = make_linear(k=124.55)
    profile = synthesize_weight_counter(spring, 0.02, 10.0, n_samples=n_samples)
    return spring, profile.truncated(0.010, 0.040)


# -- weight-counter synthesis ----------------------------------------------


def test_linear_target_gives_spiral_slope():
    profile = synthesize_weight_counter(make_linear(k=100.0), 0.02, 10.0)
    assert profile.slope == pytest.approx(100.0 * 0.02**2 / 10.0, rel=1e-12)
    assert profile.slope == pytest.approx(0.004, rel=1e-12)
    # samples lie on r = a*theta
    assert profile.radii == pytest.approx(profile.slope * profile.thetas, rel=1e-12)


def test_constant_target_gives_circular_pulley():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    profile = synthesize_weight_counter(const, 0.02, 10.0)
    assert profile.slope is None
    assert profile.radii == pytest.approx(np.full(512, 0.02), rel=1e-12)


def test_prototype_slope_arithmetic():
    # 10 -> 40 mm over 0 -> 345 deg: slope from endpoint radii and the
    # degree-to-radian conversion
    a = (0.040 - 0.010) / PROTO_THETA_MAX
    assert a == pytest.approx(4.9822e-3, abs=5e-7)
    k = a * 10.0 / 0.02**2  # back-solved stiffness that synthesizes this slope
    profile = synthesize_weight_counter(make_linear(k=k), 0.02, 10.0)
    assert profile.slope == pytest.approx(a, rel=1e-12)


def test_synthesis_computes_with_the_radius_it_read():
    law = make_linear()
    got = synthesize_weight_counter(law, np.float32(0.02), 10.0)
    want = synthesize_weight_counter(law, float(np.float32(0.02)), 10.0)
    assert got.thetas.tobytes() == want.thetas.tobytes()
    assert got.radii.tobytes() == want.radii.tobytes()
    assert type(got.slope) is float
    assert (got.theta_max.hex(), got.slope.hex()) == (want.theta_max.hex(), want.slope.hex())


def test_synthesis_validation_errors():
    lin = make_linear()
    with pytest.raises(ValidationError):
        synthesize_weight_counter(lin, -0.02, 10.0)
    with pytest.raises(ValidationError):
        synthesize_weight_counter(lin, 0.02, 0.0)
    with pytest.raises(ValidationError):
        synthesize_weight_counter(lin, 0.02, 10.0, n_samples=1)
    with pytest.raises(DomainError):
        # requested stroke exceeds the target's domain
        synthesize_weight_counter(lin, 0.02, 10.0, theta_max=2 * PROTO_THETA_MAX)
    dips_negative = ForceCharacteristic.tabulated([(0.0, 1.0), (0.06, -1.0), (0.13, 2.0)])
    with pytest.raises(ValidationError, match="non-negative target force"):
        synthesize_weight_counter(dips_negative, 0.02, 10.0)


SYNTHESIS_COUNTS = {
    "n_samples": lambda n: synthesize_weight_counter(make_linear(), 0.02, 10.0, n_samples=n),
    "n_steps": lambda n: synthesize_spring_counter(
        make_linear(), 0.02, CounterElement.spring(10.0, 50.0), n_steps=n),
}


@pytest.mark.parametrize("n", [2.5, True, "512", 2**40])
@pytest.mark.parametrize("label", sorted(SYNTHESIS_COUNTS))
def test_synthesis_counts_rejected_before_allocation(monkeypatch, label, n):
    def no_grid(*args, **kwargs):
        raise AssertionError("synthesis allocated its grid before validating the count")

    monkeypatch.setattr(np, "linspace", no_grid)
    rule = rf"^{label} must be (an integer|in \[[12], 104857[56]\], got {n})$"
    with pytest.raises(ValidationError, match=rule):
        SYNTHESIS_COUNTS[label](n)


def test_synthesis_counts_accept_numpy_integers():
    assert SYNTHESIS_COUNTS["n_samples"](np.int64(512)).n_samples == 512
    assert SYNTHESIS_COUNTS["n_steps"](np.int64(512)).n_samples == 513


# -- realized force and balance residual -----------------------------------


def test_realized_force_interpolates_radius_between_samples():
    # a coarse curved profile: between samples the radius is the chord,
    # not the target law
    law = ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12)
    profile = synthesize_weight_counter(law, 0.02, 10.0, n_samples=9)
    mid = 0.5 * (profile.thetas[3] + profile.thetas[4])
    chord = 0.5 * (profile.radii[3] + profile.radii[4]) * 10.0 / 0.02
    weight = CounterElement.weight(10.0)
    assert profile.realized_force(weight, float(mid)) == pytest.approx(chord, rel=1e-12)
    assert abs(chord - law.force_at(0.02 * float(mid))) > 1e-4 * chord


def test_realized_force_spiral():
    profile = synthesize_weight_counter(make_linear(k=100.0), 0.02, 10.0)
    weight = CounterElement.weight(10.0)
    assert profile.realized_force(weight, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert profile.realized_force(weight, 0.0) == 0.0


def test_realized_force_truncated_floor():
    _, trunc = prototype_truncated()
    weight = CounterElement.weight(10.0)
    # 0.010 * 10 / 0.02, hand arithmetic
    assert trunc.realized_force(weight, 0.0) == pytest.approx(5.0, rel=1e-12)


def test_balance_residual_zero_for_synthesized_profile():
    lin = make_linear(k=100.0)
    profile = synthesize_weight_counter(lin, 0.02, 10.0)
    weight = CounterElement.weight(10.0)
    resid = profile.balance_residual(weight, lin, profile.thetas)
    peak = 100.0 * lin.x_max
    assert np.max(np.abs(resid)) <= 1e-9 * peak


def test_balance_residual_truncation_offset_and_decay():
    spring, trunc = prototype_truncated()
    weight = CounterElement.weight(10.0)
    assert trunc.balance_residual(weight, spring, 0.0) == pytest.approx(-5.0, rel=1e-12)
    # clamp goes inactive past theta = r_min / a = 2.007 rad
    kink = 0.010 / 4.982e-3
    panel = trunc.theta_max / (trunc.n_samples - 1)
    peak = 124.55 * spring.x_max
    beyond = np.linspace(kink + panel, trunc.theta_max, 64)
    assert np.max(np.abs(trunc.balance_residual(weight, spring, beyond))) <= 1e-9 * peak
    before = trunc.balance_residual(weight, spring, kink - panel)
    assert before < -1e-3


# -- payout ------------------------------------------------------------------


def test_payout_spiral_closed_form():
    profile = synthesize_weight_counter(make_linear(k=100.0), 0.02, 10.0)
    assert profile.payout(2.0) == pytest.approx(0.004 * 2.0**2 / 2.0, rel=1e-12)


def test_payout_circular():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    profile = synthesize_weight_counter(const, 0.02, 10.0)
    assert profile.payout(1.0) == pytest.approx(0.02, rel=1e-12)


def test_payout_offset_spiral_closed_form():
    # r = 0.010 + 4.982e-3 * theta, realized through a two-point tabulated
    # target; oracle is the exact integral r0*t + a*t**2/2
    R, load, a, r0 = 0.02, 10.0, 4.982e-3, 0.010
    x_end = R * PROTO_THETA_MAX
    f_end = (r0 + a * PROTO_THETA_MAX) * load / R
    target = ForceCharacteristic.tabulated([(0.0, r0 * load / R), (x_end, f_end)])
    profile = synthesize_weight_counter(target, R, load)
    expected = r0 * PROTO_THETA_MAX + a * PROTO_THETA_MAX**2 / 2.0
    assert expected == pytest.approx(0.15052, abs=2e-5)
    assert profile.payout(profile.theta_max) == pytest.approx(expected, rel=1e-12)


@given(theta=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8))
def test_payout_and_arc_length_non_decreasing(theta):
    profile = synthesize_weight_counter(make_linear(k=100.0), 0.02, 10.0)
    ts = np.sort(np.asarray(theta)) * profile.theta_max
    assert np.all(np.diff(profile.payout(ts)) >= -1e-15)
    assert np.all(np.diff(profile.arc_length(ts)) >= -1e-15)


# -- arc length ---------------------------------------------------------------


def test_arc_length_circle():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    profile = synthesize_weight_counter(const, 0.02, 10.0)
    assert profile.arc_length(math.pi) == pytest.approx(0.02 * math.pi, rel=1e-9)
    assert profile.arc_length(0.0) == 0.0


def spiral_arc_closed_form(a: float, theta: float) -> float:
    return a * 0.5 * (theta * math.sqrt(theta * theta + 1.0) + math.asinh(theta))


def test_arc_length_spiral_closed_form():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.06)
    profile = synthesize_weight_counter(lin, 0.02, 10.0, n_samples=2049, theta_max=2.0)
    assert profile.arc_length(2.0) == pytest.approx(
        spiral_arc_closed_form(0.004, 2.0), rel=1e-6
    )


# -- truncation ---------------------------------------------------------------


def test_truncate_is_identity_with_loose_bounds():
    profile = synthesize_weight_counter(make_linear(k=100.0), 0.02, 10.0)
    same = profile.truncated(0.0, math.inf)
    assert np.array_equal(same.radii, profile.radii)
    assert same.slope == profile.slope


@pytest.mark.parametrize(
    "load, message",
    [
        (0.0, "counter weight load must be > 0, got 0.0"),
        (-1.0, "counter weight load must be > 0, got -1.0"),
        (math.nan, "load must be finite, got nan"),
    ],
)
def test_weight_synthesis_load_checked_once_by_the_counter(load, message):
    with pytest.raises(ValidationError) as info:
        synthesize_weight_counter(make_linear(), 0.02, load)
    assert str(info.value) == message


def test_profile_radii_bounded_on_every_path():
    thetas = np.array([0.0, 1.0])
    PulleyProfile(0.02, thetas, np.array([0.0, MAX_PROFILE_RADIUS]))   # the bound itself
    with pytest.raises(ValidationError, match=r"profile radii must be <= 1e\+12 m, got 2e\+12 m"):
        PulleyProfile(0.02, thetas, np.array([0.0, 2e12]))
    profile = synthesize_weight_counter(make_linear(), 0.02, 10.0)
    with pytest.raises(ValidationError, match="profile radii must be <= "):
        profile.truncated(2e12, 3e12)
    # R**2 would raise OverflowError; the slope overflows to inf and the
    # 1.2e300 m radii are rejected instead
    with pytest.raises(ValidationError, match=r"got 1\.20428e\+300 m"):
        synthesize_weight_counter(make_linear(), 1e300, 10.0)


def test_truncate_clamps_and_drops_slope():
    _, trunc = prototype_truncated()
    assert trunc.slope is None
    assert trunc.radii[0] == 0.010
    assert float(np.max(trunc.radii)) <= 0.040
    assert trunc.radii[-1] == pytest.approx(4.982e-3 * PROTO_THETA_MAX, rel=1e-12)


def test_truncate_rejects_inverted_bounds():
    profile = synthesize_weight_counter(make_linear(), 0.02, 10.0)
    with pytest.raises(ValidationError):
        profile.truncated(0.040, 0.010)


# -- energy identity ----------------------------------------------------------


def test_weight_counter_energy_identity_linear():
    # load * payout(theta) equals the spring energy 0.5*k*(R*theta)**2
    k, R, load = 100.0, 0.02, 10.0
    lin = make_linear(k=k)
    profile = synthesize_weight_counter(lin, R, load)
    thetas = np.linspace(0.0, profile.theta_max, 257)
    lhs = load * profile.payout(thetas)
    rhs = 0.5 * k * (R * thetas) ** 2
    scale = max(rhs[-1], 1e-300)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_weight_counter_energy_identity_nonlinear():
    pw = ForceCharacteristic.power_law(c=0.05, d=0.05, p=1.5, x_max=0.12)
    profile = synthesize_weight_counter(pw, 0.02, 10.0, n_samples=4097)
    thetas = np.linspace(0.0, profile.theta_max, 33)
    lhs = 10.0 * profile.payout(thetas)
    rhs = np.array([pw.stored_energy(0.02 * t) for t in thetas])
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    k=st.floats(min_value=1.0, max_value=1e4),
    R=st.floats(min_value=5e-3, max_value=0.2),
    load=st.floats(min_value=0.5, max_value=500.0),
)
def test_slope_times_load_equals_k_R_squared(k, R, load):
    lin = ForceCharacteristic.linear(k=k, x_max=R * 6.0)
    profile = synthesize_weight_counter(lin, R, load, n_samples=32)
    assert profile.slope * load == pytest.approx(k * R * R, rel=1e-12)


# -- spring-counter synthesis --------------------------------------------------


def test_spring_counter_with_zero_stiffness_equals_weight_case():
    lin = make_linear(k=100.0)
    counter = CounterElement.spring(t0=10.0, k2=0.0)
    via_spring = synthesize_spring_counter(lin, 0.02, counter, n_steps=2048)
    via_weight = synthesize_weight_counter(lin, 0.02, 10.0, n_samples=2049)
    assert np.array_equal(via_spring.radii, via_weight.radii)
    assert np.array_equal(via_spring.thetas, via_weight.thetas)
    assert via_spring.slope == via_weight.slope == pytest.approx(0.004, rel=1e-12)


def test_spring_counter_growing_tension_needs_smaller_arm():
    lin = make_linear(k=100.0)
    stiff = synthesize_spring_counter(
        lin, 0.02, CounterElement.spring(t0=10.0, k2=50.0), n_steps=2048
    )
    assert np.all(stiff.radii[1:] < 0.004 * stiff.thetas[1:])


def independent_payout_integration(target, R, t0, k2, theta_max, n_fine):
    """Test-side oracle: fine-step 4th-order integration of ds/dt = R*f/(t0+k2*s).

    Written directly from the coupled tension balance, independent of the
    synthesis routine.
    """
    h = theta_max / n_fine
    s = 0.0
    out = [0.0]
    for i in range(n_fine):
        t = i * h

        def rhs(theta, s_val):
            return R * target.force_at(min(theta * R, target.x_max)) / (t0 + k2 * s_val)

        a1 = rhs(t, s)
        a2 = rhs(t + 0.5 * h, s + 0.5 * h * a1)
        a3 = rhs(t + 0.5 * h, s + 0.5 * h * a2)
        a4 = rhs(t + h, s + h * a3)
        s += h * (a1 + 2 * a2 + 2 * a3 + a4) / 6.0
        out.append(s)
    return np.asarray(out)


def test_spring_counter_matches_ten_x_resolution_oracle():
    lin = make_linear(k=100.0)
    R, t0, k2 = 0.02, 10.0, 50.0
    counter = CounterElement.spring(t0=t0, k2=k2)
    profile = synthesize_spring_counter(lin, R, counter, n_steps=2048)

    n_fine = 20480
    s_fine = independent_payout_integration(lin, R, t0, k2, profile.theta_max, n_fine)
    tension = t0 + k2 * s_fine[::10]
    r_oracle = R * lin.force_at(R * profile.thetas) / tension
    peak = float(np.max(np.abs(r_oracle)))
    assert np.max(np.abs(profile.radii - r_oracle)) <= 1e-6 * peak


def test_spring_counter_singularities():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    with pytest.raises(SingularityError, match="reached zero"):
        synthesize_spring_counter(const, 0.02, CounterElement.spring(t0=0.0, k2=50.0))
    lin = make_linear()
    with pytest.raises(SingularityError, match="reached zero"):
        # zero tension at theta=0 with zero initial force is still singular
        synthesize_spring_counter(lin, 0.02, CounterElement.spring(t0=0.0, k2=50.0))


def test_spring_counter_tension_through_zero_is_singular():
    # non-negative at both nodes, but the law dips so far between them that
    # the stored energy turns negative and the counter tension would have
    # to pass through zero
    dip = ForceCharacteristic.tabulated([(0.0, 0.0), (0.06, -1000.0), (0.12, 0.0)])
    with pytest.raises(SingularityError, match="reached zero"):
        synthesize_spring_counter(dip, 0.02, CounterElement.spring(t0=10.0, k2=50.0), n_steps=1)


def test_spring_counter_forward_verification_failure():
    # jagged target integrated far too coarsely: the recovered radii no
    # longer reproduce the target within tolerance
    zig = ForceCharacteristic.tabulated(
        [(0.0, 0.0), (0.01, 40.0), (0.02, 1.0), (0.03, 60.0), (0.04, 2.0), (0.12, 80.0)]
    )
    with pytest.raises(NumericalError):
        synthesize_spring_counter(
            zig, 0.02, CounterElement.spring(t0=5.0, k2=400.0), n_steps=3
        )


@pytest.mark.parametrize(
    "make",
    [
        lambda v: CounterElement.spring(t0=v, k2=40.0),
        lambda v: CounterElement.spring(t0=10.0, k2=v),
        lambda v: CounterElement.weight(v),
    ],
    ids=["t0", "k2", "load"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_counter_element_rejects_non_finite(make, value):
    with pytest.raises(ValidationError, match="must be finite"):
        make(value)


WEIGHT, SPRING = CounterElement.weight(10.0), CounterElement.spring(t0=10.0, k2=40.0)


@pytest.mark.parametrize(
    "counter, method, value, expected",
    [
        (WEIGHT, "tension", math.inf, 10.0),
        (WEIGHT, "tension", -math.inf, 10.0),
        (WEIGHT, "tension", 10**400, 10.0),   # read as inf
        (WEIGHT, "released_energy", math.inf, math.inf),
        (WEIGHT, "released_energy", 10**400, math.inf),
        # a finite payout whose square overflows
        (WEIGHT, "released_energy", 1e200, 10.0 * 1e200),
        (WEIGHT, "tension_for_energy", math.inf, 10.0),
        (WEIGHT, "tension_for_energy", -math.inf, 10.0),
        (SPRING, "tension_for_energy", math.inf, math.inf),
        (SPRING, "tension_for_energy", -math.inf, 0.0),
        (SPRING, "tension", math.inf, math.inf),
        (SPRING, "released_energy", math.inf, math.inf),
    ],
    ids=["weight-tension-inf", "weight-tension--inf", "weight-tension-huge_int",
         "weight-released_energy-inf", "weight-released_energy-huge_int",
         "weight-released_energy-1e200", "weight-tension_for_energy-inf",
         "weight-tension_for_energy--inf", "spring-tension_for_energy-inf",
         "spring-tension_for_energy--inf",
         "spring-tension-inf", "spring-released_energy-inf"],
)
def test_counter_values_at_an_infinite_argument_are_not_nan(counter, method, value, expected):
    call = getattr(counter, method)
    got = call(value)
    assert type(got) is float and got == expected
    if isinstance(value, float):   # an int past the float range has no array form
        column = call(np.array([value, 1.0]))
        assert column.tolist() == [expected, call(1.0)]


def _formula_before_the_dead_weight_skip(counter, method, x):
    """Each counter formula with its k2 term always evaluated."""
    if method == "tension":
        return counter.t0 + counter.k2 * x
    return counter.t0 * x + 0.5 * counter.k2 * (x * x)


@settings(max_examples=300, deadline=None)
@given(
    t0=st.one_of(st.sampled_from([5e-324, 1e-200, 10.0, 1e200]), st.floats(1e-300, 1e300)),
    k2=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    x=st.one_of(st.sampled_from([0.0, -0.0, 1e-320, 1e200, -1e200, 1e308]),
                st.floats(allow_nan=False, allow_infinity=False)),
    method=st.sampled_from(["tension", "released_energy"]),
)
def test_finite_counter_values_are_unchanged_bit_for_bit(t0, k2, x, method):
    counter = CounterElement(t0, k2)
    with np.errstate(all="ignore"):
        before = float(_formula_before_the_dead_weight_skip(counter, method, x))
        got = getattr(counter, method)(x)
        column = getattr(counter, method)(np.array([x]))
    if math.isfinite(before):
        assert struct.pack("<d", got) == struct.pack("<d", before)
        assert struct.pack("<d", column[0]) == struct.pack("<d", before)


def _exact_tension(counter, energy):
    """sqrt(max(t0**2 + 2*k2*E, 0)) in 60-digit decimals, with that square."""
    t0, k2, e = (Decimal(v) for v in (counter.t0, counter.k2, energy))
    with localcontext() as ctx:
        ctx.prec = 60
        square = max(t0 * t0 + 2 * k2 * e, Decimal(0))
        return square.sqrt(), square


@pytest.mark.parametrize(
    "counter, energy, want",
    [
        # 2*k2*E overflows
        (CounterElement.spring(10.0, 40.0), 1e307, 2.82842712474619e154),
        # t0*t0 overflows: a dead weight's tension is t0 at any energy
        (CounterElement.weight(1e200), 1.0, 1e200),
        (CounterElement.weight(1e308), 1e300, 1e308),
        (CounterElement.weight(1e200), -3.0, 1e200),
        (CounterElement.spring(1e200, 1.0), 1.0, 1e200),
        # both overflow, t0*t0 to inf and 2*k2*E to -inf: the tension passes through zero
        (CounterElement.spring(1e200, 1e110), -1e291, 0.0),
        # 2*E overflows
        (CounterElement.weight(10.0), 1e308, 10.0),
        (CounterElement.spring(10.0, 1e-10), 1e308, 1.414213562373095e149),
        # 2*k2 overflows, and t0 + a below E = 0
        (CounterElement(0.0, 1.7e308), 1.0, 1.8439088914585775e154),
        (CounterElement(1.7e308, 1e308), -1e308, 9.433981132056602e307),
    ],
    ids=["spring_energy", "weight", "weight_near_the_float_limit", "weight_negative",
         "spring_pretension", "spring_through_zero", "weight_double_energy",
         "spring_double_energy", "spring_double_rate", "spring_sum_below_zero"],
)
def test_tension_where_a_square_overflows(counter, energy, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = counter.tension_for_energy(energy)
        column = counter.tension_for_energy(np.array([energy, math.inf, -math.inf]))
    assert type(got) is float and got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert got == float(_exact_tension(counter, energy)[0])
    assert struct.pack("<d", column[0]) == struct.pack("<d", got)
    if counter.k2 == 0:
        assert got == counter.t0 and list(column[1:]) == [counter.t0, counter.t0]
    else:
        assert list(column[1:]) == [math.inf, 0.0]


@settings(max_examples=300, deadline=None)
@given(
    t0=st.one_of(st.just(0.0), st.floats(5e-324, 1e300)),
    k2=st.floats(5e-324, 1e300),
    energy=st.one_of(st.sampled_from([0.0, -0.0, 1e-320, -1e-320]),
                     st.floats(allow_nan=False, allow_infinity=False)),
)
@example(t0=1e-170, k2=0.0, energy=1e-200)   # t0*t0 underflows
@example(t0=0.0, k2=40.0, energy=0.0)   # no pretension at E = 0: T = 0
# 2*E, and 2*k2*E, past the float range
@example(t0=10.0, k2=0.0, energy=1e308)
@example(t0=10.0, k2=1e-10, energy=1e308)
@example(t0=10.0, k2=40.0, energy=1e307)   # 2.83e154 N
@example(t0=1e200, k2=1e110, energy=-1e291)   # T**2 below zero: T = 0
# t0 + a past the float range below E = 0, and 2*k2 past it
@example(t0=1.7e308, k2=1e308, energy=-1e308)
@example(t0=0.0, k2=1.7e308, energy=1.0)
# roots below the smallest normal float: the first rounds correctly, the second lands
# 0.77 of a subnormal step from the exact root, as a = sqrt(2*k2*|E|) rounds onto that grid
@example(t0=2.2250738585e-313, k2=2.2250738585e-313, energy=-1e-320)
@example(t0=5.4e-323, k2=5.4e-323, energy=-1e-323)
def test_tension_for_energy_is_the_energy_balance_root(t0, k2, energy):
    counter = CounterElement(t0, k2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = counter.tension_for_energy(energy)
        column = counter.tension_for_energy(np.array([energy]))
    assert type(got) is float and struct.pack("<d", column[0]) == struct.pack("<d", got)
    want, square = _exact_tension(counter, energy)
    with localcontext() as ctx:
        ctx.prec = 60
        if energy >= 0:
            assert abs(Decimal(got) - want) <= 3 * Decimal(math.ulp(float(want)))
        else:
            # no float lies nearer a subnormal root than half the 2**-1074 spacing; rounding
            # got and a onto that grid moves got**2 by up to 2*t0*2**-1074, where the
            # relative bound alone asks for less than any float can give
            grid = 2 * Decimal(t0) * Decimal(2) ** -1074 if want < Decimal(MIN_NORMAL) else 0
            assert abs(Decimal(got) ** 2 - square) <= 4 * Decimal(2) ** -52 * Decimal(t0) ** 2 + grid


def test_weight_is_the_zero_stiffness_spring():
    weight, relaxed = CounterElement.weight(10.0), CounterElement.spring(t0=10.0, k2=0.0)
    assert weight == relaxed
    stiff = CounterElement.spring(t0=10.0, k2=50.0)
    s = np.linspace(0.0, 0.5, 101)
    for counter in (weight, stiff):
        # released energy is the integral of tension, exact for a linear law
        tension = counter.tension(s)
        panels = 0.5 * (tension[1:] + tension[:-1]) * np.diff(s)
        released = counter.released_energy(s)
        assert released == pytest.approx(np.concatenate(([0.0], np.cumsum(panels))), rel=1e-12)
        assert counter.tension_for_energy(released) == pytest.approx(tension, rel=1e-12, abs=0.0)

    lin = make_linear()
    profile = synthesize_weight_counter(lin, 0.02, 10.0)
    thetas = np.linspace(0.0, profile.theta_max, 77)
    assert np.array_equal(
        profile.realized_force(weight, thetas), profile.realized_force(relaxed, thetas)
    )
    assert profile.realized_force(weight, 1.3) == profile.realized_force(relaxed, 1.3)
    ledgers = [
        FloatingConverter(left=lin, profile=profile, counter=c, gap_x=0.01).energy_ledger(
            0.005, 0.1
        )
        for c in (weight, relaxed)
    ]
    for a, b in zip(*ledgers):
        assert a == pytest.approx(b, rel=1e-12)
    # the slack cable pays out nothing below the gap; the weight then
    # releases load * payout
    s1 = profile.payout((0.1 - 0.01) / 0.02)
    assert ledgers[0].delta_counter == pytest.approx(-10.0 * s1, rel=1e-12)


# -- profile validation --------------------------------------------------------


def test_profile_slope_is_stored_as_a_float():
    profile = PulleyProfile(0.02, np.array([0.0, 1.0]), np.array([0.0, 0.5]), np.float32(0.5))
    assert type(profile.slope) is float and profile.slope == 0.5


@pytest.mark.parametrize(
    "radii, slope, message",
    [
        ([0.0, 0.01], "x", "slope must be a real number, got 'x'"),
        ([0.0, 0.01], [10**5000], "slope must be a real number, got list"),
        # the radii are checked first
        ([0.0, math.inf], "x", "profile samples must be finite"),
        ([0.0, 2e12], "x", "profile radii must be <= 1e+12 m, got 2e+12 m"),
    ],
    ids=["str", "unprintable", "inf_radius", "huge_radius"],
)
def test_profile_slope_is_read_after_the_radii(radii, slope, message):
    with pytest.raises(ValidationError) as info:
        PulleyProfile(0.02, np.array([0.0, 1.0]), np.array(radii), slope)
    assert str(info.value) == message


def test_profile_domain_checks():
    profile = synthesize_weight_counter(make_linear(), 0.02, 10.0)
    with pytest.raises(DomainError):
        profile.payout(profile.theta_max + 0.1)
    with pytest.raises(DomainError):
        profile.realized_force(CounterElement.weight(10.0), -0.5)
    with pytest.raises(DomainError):
        profile.arc_length(-1.0)


def test_weight_synthesis_computes_no_payout():
    # a dead weight's radius R*F/mg needs no payout; only a spring's reads the running sum
    law = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(law, 0.02, 10.0, 65536)
    assert "cumulative" not in profile._radius.__dict__
    spring = synthesize_spring_counter(law, 0.02, CounterElement.spring(10.0, 40.0), 512)
    assert "cumulative" in spring._radius.__dict__


SYNTHESIS_LAWS = {
    "linear": ForceCharacteristic.linear(k=100.0, x_max=0.12),
    "constant": ForceCharacteristic.constant(f0=10.0, x_max=0.12),
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12),
    "tabulated": ForceCharacteristic.tabulated([(0.0, 0.0), (0.05, 3.0), (0.12, 7.5)]),
}


@pytest.mark.parametrize("kind", SYNTHESIS_LAWS)
def test_weight_synthesis_never_evaluates_the_stored_energy(monkeypatch, kind):
    # a dead weight's tension is t0 at any energy; a spring's needs the energy
    law, R, load = SYNTHESIS_LAWS[kind], 0.02, 10.0
    thetas = np.linspace(0.0, law.x_max / R, 512)
    weight = CounterElement.weight(load)
    # the radii as R*F/T with T read through the energy, as synthesis took them before
    tension = weight.tension_for_energy(law.stored_energy(R * thetas))
    before = R * law.force_at(R * thetas) / tension
    calls = []
    stored_energy = ForceCharacteristic.stored_energy
    monkeypatch.setattr(ForceCharacteristic, "stored_energy",
                        lambda self, x: calls.append(x) or stored_energy(self, x))
    profiles = [
        synthesize_weight_counter(law, R, load),
        synthesize_spring_counter(law, R, CounterElement.spring(load, 0.0), n_steps=511),
    ]
    assert calls == []
    for profile in profiles:
        assert profile.thetas.tobytes() == thetas.tobytes()
        assert profile.radii.tobytes() == before.tobytes()
    synthesize_spring_counter(law, R, CounterElement.spring(load, 40.0), n_steps=511)
    assert len(calls) == 1
