"""Pulley synthesis, forward verification, payout/arc geometry, truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatconv import (
    CounterElement,
    DomainError,
    ForceCharacteristic,
    NumericalError,
    SingularityError,
    ValidationError,
    synthesize_spring_counter,
    synthesize_weight_counter,
)

PROTO_THETA_MAX = math.radians(345.0)  # 6.0214 rad prototype stroke


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
    inv = lin.invert()
    with pytest.raises(ValidationError):
        synthesize_weight_counter(inv, 0.02, 10.0)


# -- realized force and balance residual -----------------------------------


def test_radius_at_interpolates_between_samples():
    profile = synthesize_weight_counter(make_linear(k=100.0), 0.02, 10.0)
    assert profile.radius_at(0.0) == 0.0
    assert profile.radius_at(1.3) == pytest.approx(0.004 * 1.3, rel=1e-12)
    mid = 0.5 * (profile.thetas[3] + profile.thetas[4])
    assert profile.radius_at(float(mid)) == pytest.approx(
        0.5 * (profile.radii[3] + profile.radii[4]), rel=1e-12
    )


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
    with pytest.raises(SingularityError):
        synthesize_spring_counter(const, 0.02, CounterElement.spring(t0=0.0, k2=50.0))
    lin = make_linear()
    with pytest.raises(SingularityError):
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


def test_spring_counter_requires_spring_element():
    with pytest.raises(ValidationError):
        synthesize_spring_counter(make_linear(), 0.02, CounterElement.weight(10.0))


# -- profile validation --------------------------------------------------------


def test_profile_domain_checks():
    profile = synthesize_weight_counter(make_linear(), 0.02, 10.0)
    with pytest.raises(DomainError):
        profile.payout(profile.theta_max + 0.1)
    with pytest.raises(DomainError):
        profile.realized_force(CounterElement.weight(10.0), -0.5)
    with pytest.raises(DomainError):
        profile.arc_length(-1.0)
