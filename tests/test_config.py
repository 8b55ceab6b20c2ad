"""Config parsing branches not exercised by the CLI round trips."""

import pytest

from floatconv import PulleyProfile, ValidationError
from floatconv.config import (
    parse_characteristic,
    parse_config,
    synthesize_from_config,
    verify_profile,
)


def base_config():
    return {
        "spring": {"type": "linear", "k_n_per_m": 100.0, "max_extension_m": 0.12},
        "pulley": {"circular_radius_m": 0.02},
        "counter": {"type": "weight", "load_n": 10.0},
    }


def test_power_law_characteristic():
    char = parse_characteristic(
        {"type": "power_law", "c": 1.0, "d_m": 0.1, "p": 2.0, "max_extension_m": 0.1}
    )
    assert char.force_at(0.0) == pytest.approx(100.0, rel=1e-12)


def test_nested_unknown_key_names_full_path():
    with pytest.raises(ValidationError, match="'spring.k_per_m'"):
        parse_characteristic(
            {"type": "linear", "k_n_per_m": 1.0, "k_per_m": 1.0, "max_extension_m": 0.1},
            path="spring",
        )


def test_friction_defaults_and_gap():
    cfg = parse_config(base_config())
    assert cfg.friction_mu == 0.0
    assert cfg.friction_f0_n == 0.0
    assert cfg.gap_x_m == 0.0
    data = base_config()
    data["friction"] = {"mu": 0.01}
    data["gap_x_m"] = 0.005
    cfg = parse_config(data)
    assert cfg.friction_mu == 0.01
    assert cfg.gap_x_m == 0.005


def test_truncation_bounds_must_pair():
    data = base_config()
    data["pulley"]["r_min_m"] = 0.01
    with pytest.raises(ValidationError, match="r_max_m"):
        parse_config(data)


def test_bool_is_not_a_number():
    data = base_config()
    data["spring"]["k_n_per_m"] = True
    with pytest.raises(ValidationError, match="spring.k_n_per_m"):
        parse_config(data)


def test_samples_must_be_integer():
    data = base_config()
    data["pulley"]["samples"] = 512.0
    with pytest.raises(ValidationError, match="pulley.samples"):
        parse_config(data)


def test_unknown_top_level_key():
    data = base_config()
    data["extra"] = 1
    with pytest.raises(ValidationError, match="'extra'"):
        parse_config(data)


def test_unknown_characteristic_type():
    with pytest.raises(ValidationError, match="exponential"):
        parse_characteristic({"type": "exponential", "max_extension_m": 0.1})


def test_tabulated_points_shape_checked():
    with pytest.raises(ValidationError, match="points_m_n"):
        parse_characteristic({"type": "tabulated", "points_m_n": [[0.0, 0.0, 1.0]]})


def test_latch_must_be_boolean():
    data = base_config()
    data["gripper"] = {
        "stage_travel_m": 0.1,
        "stage_step_m": 0.01,
        "latch": 1,
        "actuator_cap_n": 2.0,
        "object_position_m": 0.05,
    }
    with pytest.raises(ValidationError, match="gripper.latch"):
        parse_config(data)


# -- verify_profile ----------------------------------------------------------------


def test_verify_profile_untruncated_reports_no_clamp():
    cfg = parse_config(base_config())
    report = verify_profile(cfg, synthesize_from_config(cfg))
    assert report.clamped_to is None
    assert report.max_residual <= 1e-12 * 12.0
    assert report.energy_error <= 1e-12
    assert report.passed


def test_verify_profile_credits_the_clamp_and_catches_a_bump():
    data = base_config()
    data["pulley"].update(r_min_m=0.01, r_max_m=0.04)
    cfg = parse_config(data)
    profile = synthesize_from_config(cfg)
    report = verify_profile(cfg, profile)
    # the spiral 0.004*theta clears the 10 mm floor at 2.5 rad
    panel = profile.theta_max / (profile.n_samples - 1)
    assert 2.5 - panel < report.clamped_to < 2.5
    assert report.max_residual <= 1e-12 * 12.0
    assert report.energy_error <= 1e-6
    assert report.passed
    for i in (1, 400):   # one clamped, one free sample
        radii = profile.radii.copy()
        radii[i] += 1e-6
        bumped = PulleyProfile(profile.circular_radius, profile.thetas, radii)
        assert not verify_profile(cfg, bumped).passed
