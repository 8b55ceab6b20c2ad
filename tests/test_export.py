"""CSV round trips, SVG rendering, byte determinism, parse errors."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatconv import (
    CounterElement,
    FloatingConverter,
    ForceCharacteristic,
    ParseError,
    PulleyProfile,
    ValidationError,
    plan_grasp,
    profile_to_csv,
    profile_to_svg,
    read_profile_csv,
    simulate_grasp,
    synthesize_weight_counter,
)
from floatconv.export import fmt6, sweep_to_csv, trace_to_csv
from floatconv.gripper import GripperModel

THETA_MAX = math.radians(345.0)


def prototype_profile():
    spring = ForceCharacteristic.linear(k=124.55, x_max=0.02 * THETA_MAX)
    return synthesize_weight_counter(spring, 0.02, 10.0).truncated(0.010, 0.040)


# -- profile CSV ---------------------------------------------------------------


def test_profile_csv_header_and_shape():
    text = profile_to_csv(prototype_profile())
    lines = text.split("\n")
    assert lines[0] == "theta_deg,r_mm"
    assert lines[1] == "0.000000,10.000000"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 2 + 512
    assert "\r" not in text


def test_profile_csv_round_trip_within_half_ulp():
    profile = prototype_profile()
    back = read_profile_csv(profile_to_csv(profile), circular_radius_m=0.02)
    # half-ulp of 6 decimals: 5e-7 mm and 5e-7 deg
    assert np.max(np.abs(back.radii - profile.radii)) <= 5e-7 / 1000.0
    assert np.max(np.abs(np.degrees(back.thetas) - np.degrees(profile.thetas))) <= 5e-7
    assert back.circular_radius == 0.02


@settings(deadline=None, max_examples=30)
@given(
    k=st.floats(min_value=1.0, max_value=1e4),
    R=st.floats(min_value=5e-3, max_value=0.1),
    load=st.floats(min_value=1.0, max_value=100.0),
)
def test_profile_round_trip_lossless_for_synthesized_profiles(k, R, load):
    lin = ForceCharacteristic.linear(k=k, x_max=R * 4.0)
    profile = synthesize_weight_counter(lin, R, load, n_samples=64)
    back = read_profile_csv(profile_to_csv(profile), circular_radius_m=R)
    assert np.max(np.abs(back.radii - profile.radii)) <= 5e-10
    assert np.max(np.abs(back.thetas - profile.thetas)) <= math.radians(5e-7)


def test_read_profile_rejects_bad_header():
    with pytest.raises(ParseError) as err:
        read_profile_csv("theta_deg,radius_mm\n0.000000,1.000000\n")
    assert err.value.line == 1


def test_read_profile_rejects_bad_rows():
    with pytest.raises(ParseError) as err:
        read_profile_csv("theta_deg,r_mm\n0.000000,1.000000\n1.0\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        read_profile_csv("theta_deg,r_mm\n0.000000,abc\n1.000000,2.000000\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        read_profile_csv("theta_deg,r_mm\n0.000000,1.000000\n")  # single row


def test_empty_profile_rejected():
    with pytest.raises(ValidationError):
        PulleyProfile(circular_radius=0.02, thetas=np.array([]), radii=np.array([]))


# -- SVG --------------------------------------------------------------------------


def test_svg_bounding_box_of_circle():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    profile = synthesize_weight_counter(const, 0.02, 10.0, theta_max=2 * math.pi)
    svg = profile_to_svg(profile, scale=10.0)
    match = re.search(r'viewBox="([-\d.]+) ([-\d.]+) ([\d.]+) ([\d.]+)"', svg)
    assert match
    w, h = float(match.group(3)), float(match.group(4))
    # 40 mm diameter + 2*5 mm margin at 10 px/mm
    assert w == pytest.approx(500.0, abs=0.5)
    assert h == pytest.approx(500.0, abs=0.5)


def test_svg_prototype_profile_extent():
    svg = profile_to_svg(prototype_profile(), scale=10.0)
    match = re.search(r'viewBox="[-\d. ]+ ([\d.]+) ([\d.]+)"', svg)
    w = float(match.group(1))
    # max radial extent is 40 mm, so the box is at most 80 + 2*margin mm
    assert w <= (80.0 + 2 * 5.0) * 10.0


def test_svg_point_count_and_finite_coordinates():
    profile = prototype_profile()
    svg = profile_to_svg(profile)
    path = re.search(r'd="([^"]+)"', svg).group(1)
    coords = re.findall(r"[ML] ([-\d.]+) ([-\d.]+)", path)
    assert len(coords) == profile.n_samples
    for x, y in coords:
        assert math.isfinite(float(x)) and math.isfinite(float(y))


def test_svg_determinism():
    profile = prototype_profile()
    assert profile_to_svg(profile).encode() == profile_to_svg(profile).encode()
    assert profile_to_csv(profile).encode() == profile_to_csv(profile).encode()


def test_svg_scale_validation():
    for scale in (0.0, -1.0):
        with pytest.raises(ValidationError, match="scale must be > 0"):
            profile_to_svg(prototype_profile(), scale=scale)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_svg_scale_rejects_non_finite(value):
    with pytest.raises(ValidationError, match="must be finite"):
        profile_to_svg(prototype_profile(), scale=value)


# -- sweep / trace CSV --------------------------------------------------------------


def test_sweep_csv_format():
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0), gap_x=0.01
    )
    text = sweep_to_csv(conv.sweep(0.01, 0.11, 11))
    lines = text.split("\n")
    assert lines[0] == (
        "u_mm,spring_force_n,counter_force_n,op_force_ideal_n,"
        "op_force_plus_n,op_force_minus_n"
    )
    assert lines[1].startswith("10.000000,")
    assert len(lines) == 13
    fields = lines[1].split(",")
    assert len(fields) == 6
    # ideal column is spring minus counter
    assert float(fields[3]) == pytest.approx(float(fields[1]) - float(fields[2]), abs=1e-6)


def test_trace_csv_format():
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0)
    )
    model = GripperModel(
        converter=conv,
        stage_travel=0.1,
        stage_step=0.01,
        latch_holds=True,
        actuator_force_cap=2.0,
        object_position=0.05,
    )
    text = trace_to_csv(simulate_grasp(model, plan_grasp(model, 10.0)))
    lines = text.split("\n")
    assert lines[0] == "tick,phase,jaw_mm,grip_n,actuator_n,latch"
    assert lines[1] == "0,positioning,0.000000,0.000000,0.000000,0"
    assert lines[-2].split(",")[1] == "done"
    assert set(row.split(",")[5] for row in lines[1:-1]) <= {"0", "1"}


def test_fmt6_normalizes_negative_zero():
    assert fmt6(-1e-9) == "0.000000"
    assert fmt6(-0.0) == "0.000000"
    assert fmt6(1.5) == "1.500000"
    assert fmt6(-2.25) == "-2.250000"
