"""Config parsing branches not exercised by the CLI round trips."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floatconv import FloatConvError, PulleyProfile, ValidationError
from floatconv.characteristics import cumulative_trapezoid
from floatconv.config import (
    CONFIG,
    COUNTERS,
    FRICTION,
    GRIPPER,
    LAWS,
    PULLEY,
    SPRING_SYNTHESIS_RTOL,
    VERIFY_FORCE_RTOL,
    RunConfig,
    VerifyReport,
    parse_characteristic,
    parse_config,
    synthesize_from_config,
    verify_profile,
)
from floatconv.export import (
    CSV_ANGLE_QUANTUM, CSV_RADIUS_QUANTUM, profile_to_csv, read_profile_csv,
)

ROOT = Path(__file__).resolve().parents[1]


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


def parent_verify_profile(cfg, profile):
    """verify_profile as it was before it read the profile's own samples: every
    value through the interpolating payout and balance_residual. The oracle of
    the own-sample evaluation."""
    R, target, counter = cfg.circular_radius_m, cfg.spring, cfg.counter
    thetas = profile.thetas
    theta_end = target.x_max / R
    if thetas[-1] - theta_end <= CSV_ANGLE_QUANTUM:
        thetas = np.minimum(thetas, theta_end)
    xs = R * thetas
    force = target.force_at(xs)
    payout = profile.payout(thetas)
    tension = counter.tension(payout)
    withheld = np.zeros_like(force)
    if cfg.truncation_bounds is not None:
        ideal = R * force / tension
        expected = np.clip(ideal, *cfg.truncation_bounds)
        withheld = np.where(expected != ideal, force - expected * tension / R, 0.0)
    clamped = np.nonzero(withheld)[0]
    residual = profile.balance_residual(counter, target, thetas) - withheld
    stored = target.stored_energy(xs)
    e_scale = max(float(stored[-1]), 1e-300)
    release = stored - cumulative_trapezoid(withheld, xs)
    energy_error = float(np.max(np.abs(counter.released_energy(payout) - release))) / e_scale
    peak = max(float(np.max(np.abs(force))), 1e-300)
    slope_bound = float(np.max(np.abs(np.diff(force) / np.diff(xs))))
    quantization = (
        CSV_RADIUS_QUANTUM * float(tension[-1]) / R + slope_bound * R * CSV_ANGLE_QUANTUM
    )
    rtol = VERIFY_FORCE_RTOL if counter.k2 == 0 else SPRING_SYNTHESIS_RTOL
    return VerifyReport(
        max_residual=float(np.max(np.abs(residual))),
        residual_tol=rtol * peak + quantization,
        energy_error=energy_error,
        clamped_to=float(thetas[clamped[-1]]) if clamped.size else None,
    )


X_MAX = st.floats(0.01, 0.2)
LAW_SECTIONS = st.one_of(
    st.builds(lambda k, x: {"type": "linear", "k_n_per_m": k, "max_extension_m": x},
              st.floats(1.0, 1000.0), X_MAX),
    st.builds(lambda f0, x: {"type": "constant", "f0_n": f0, "max_extension_m": x},
              st.floats(0.5, 50.0), X_MAX),
    st.builds(lambda c, d, p, x: {"type": "power_law", "c": c, "d_m": d, "p": p,
                                  "max_extension_m": x},
              st.floats(1e-3, 1.0), st.floats(5e-3, 0.05), st.floats(1.0, 3.0), X_MAX),
    st.builds(lambda xs, fs: {"type": "tabulated",
                              "points_m_n": [[x, f] for x, f in zip([0.0, *xs], fs)]},
              st.lists(st.floats(0.001, 0.2), min_size=1, max_size=5, unique=True).map(sorted),
              st.lists(st.floats(0.0, 50.0), min_size=6, max_size=6)),
)
COUNTER_SECTIONS = st.one_of(
    st.builds(lambda load: {"type": "weight", "load_n": load}, st.floats(1.0, 50.0)),
    st.builds(lambda t0, k2: {"type": "spring", "t0_n": t0, "k2_n_per_m": k2},
              st.floats(5.0, 50.0), st.floats(0.1, 50.0)),
)


@settings(deadline=None, max_examples=200, derandomize=True, database=None)
@given(
    spring=LAW_SECTIONS,
    counter=COUNTER_SECTIONS,
    radius=st.floats(0.005, 0.05),
    samples=st.integers(2, 4097),
    window=st.one_of(st.none(), st.tuples(st.floats(0.0, 0.9), st.floats(0.1, 1.0))),
    round_trip=st.booleans(),
)
def test_own_sample_evaluation_equals_the_interpolating_formula(
    spring, counter, radius, samples, window, round_trip
):
    data = {"spring": spring, "counter": counter,
            "pulley": {"circular_radius_m": radius, "samples": samples}}
    try:
        profile = synthesize_from_config(parse_config(data))
    except FloatConvError:   # a coarse grid fails the forward check; nothing to verify
        assume(False)
    if window is not None:   # truncation bounds that clamp part of this profile
        lo, hi = sorted(window)
        assume(lo < hi)
        top = float(np.max(profile.radii))
        data["pulley"].update(r_min_m=lo * top, r_max_m=hi * top)
    cfg = parse_config(data)
    profile = synthesize_from_config(cfg)
    if round_trip:   # 6-decimal degrees, which can round the last theta past the law's end
        profile = read_profile_csv(profile_to_csv(profile), radius)
    assert verify_profile(cfg, profile) == parent_verify_profile(cfg, profile)
    # the own-sample force and payout are the interpolating ones
    realized = profile._at_samples(cfg.counter)
    assert np.array_equal(realized, profile.realized_force(cfg.counter, profile.thetas))
    assert np.array_equal(profile._radius.cumulative, profile.payout(profile.thetas))


def _count_interpolating_calls(monkeypatch):
    calls = []
    for name in ("payout", "realized_force", "balance_residual"):
        original = getattr(PulleyProfile, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(PulleyProfile, name, counted)
    return calls


@pytest.mark.parametrize("counter", [{"type": "weight", "load_n": 10.0},
                                     {"type": "spring", "t0_n": 10.0, "k2_n_per_m": 50.0}])
def test_verify_reads_own_samples_without_interpolating(monkeypatch, counter):
    data = base_config()
    data["counter"] = counter
    cfg = parse_config(data)
    profile = synthesize_from_config(cfg)
    calls = _count_interpolating_calls(monkeypatch)
    assert verify_profile(cfg, profile).passed
    assert calls == []
    # a last theta a hair past the law's end goes through the interpolant
    thetas = profile.thetas.copy()
    thetas[-1] += 0.5 * CSV_ANGLE_QUANTUM
    past_the_end = PulleyProfile(profile.circular_radius, thetas, profile.radii)
    assert verify_profile(cfg, past_the_end).passed
    assert calls == ["payout"]


# -- the schema, key by key ---------------------------------------------------------

DROP = object()   # delete the key


def full_config():
    """Every section and every key of a linear law with a dead weight."""
    return {
        "spring": {"type": "linear", "k_n_per_m": 100.0, "max_extension_m": 0.1205},
        "pulley": {
            "circular_radius_m": 0.02,
            "theta_max_deg": 345.0,
            "samples": 512,
            "r_min_m": 0.01,
            "r_max_m": 0.04,
        },
        "counter": {"type": "weight", "load_n": 10.0},
        "friction": {"mu": 0.003, "offset_n": 0.0},
        "gap_x_m": 0.0,
        "gripper": {
            "stage_travel_m": 0.1,
            "stage_step_m": 0.01,
            "latch": True,
            "actuator_cap_n": 2.0,
            "object_position_m": 0.05,
        },
    }


CONSTANT = {"type": "constant", "f0_n": 3.0, "max_extension_m": 0.1}
POWER = {"type": "power_law", "c": 1.0, "d_m": 0.1, "p": 2.0, "max_extension_m": 0.1}
TABLE = {"type": "tabulated", "points_m_n": [[0.0, 0.0], [0.12, 9.0]]}
SPRING_COUNTER = {"type": "spring", "t0_n": 5.0, "k2_n_per_m": 10.0}


def mutated(changes):
    """full_config() with each (dotted path, value) applied in turn."""
    data = full_config()
    for dotted, value in changes:
        *parents, key = dotted.split(".")
        node = data
        for name in parents:
            node = node[name]
        if value is DROP:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return data


def must(name, what):
    return f"config: '{name}' must be {what}"


def missing(name):
    return f"config: missing required key '{name}'"


def unknown(name):
    return f"config: unknown key '{name}'"


PAIRED = "config: 'pulley.r_min_m' and 'pulley.r_max_m' must be given together"
PAIRS = must("spring.points_m_n", "a list of [x_m, force_n] pairs")

SCHEMA_CASES = [
    # top level
    ([("spring", DROP)], missing("spring")),
    ([("pulley", DROP)], missing("pulley")),
    ([("counter", DROP)], missing("counter")),
    ([("extra", 1)], unknown("extra")),
    ([("pulley", None)], "config: pulley must be an object"),
    ([("friction", 1)], "config: friction must be an object"),
    ([("gripper", [])], "config: gripper must be an object"),
    ([("gap_x_m", "0")], must("gap_x_m", "a real number, got '0'")),
    ([("gap_x_m", math.nan)], must("gap_x_m", "finite, got nan")),
    # spring: the type
    ([("spring", [])], missing("spring.type")),
    ([("spring.type", DROP)], missing("spring.type")),
    ([("spring.type", "negated")], "config: unknown characteristic type 'negated' at 'spring.type'"),
    ([("spring.type", ["linear"])],
     "config: unknown characteristic type '['linear']' at 'spring.type'"),
    ([("spring.type", {"linear": 1})],
     "config: unknown characteristic type '{'linear': 1}' at 'spring.type'"),
    ([("spring.type", 1)], "config: unknown characteristic type '1' at 'spring.type'"),
    # linear
    ([("spring.k_per_m", 1.0)], unknown("spring.k_per_m")),
    ([("spring.k_n_per_m", DROP)], missing("spring.k_n_per_m")),
    ([("spring.max_extension_m", DROP)], missing("spring.max_extension_m")),
    ([("spring.k_n_per_m", "100")], must("spring.k_n_per_m", "a real number, got '100'")),
    ([("spring.k_n_per_m", True)], must("spring.k_n_per_m", "a real number, got True")),
    ([("spring.k_n_per_m", math.inf)], must("spring.k_n_per_m", "finite, got inf")),
    ([("spring.k_n_per_m", 10**400)], must("spring.k_n_per_m", "finite, got inf")),
    ([("spring.k_n_per_m", -1)], "linear stiffness k must be > 0, got -1.0"),
    ([("spring.max_extension_m", None)], must("spring.max_extension_m", "a real number, got None")),
    ([("spring.max_extension_m", 0)], "x_max must be > 0, got 0.0"),
    # constant
    ([("spring", CONSTANT), ("spring.f0_n", DROP)], missing("spring.f0_n")),
    ([("spring", CONSTANT), ("spring.f0_n", "3")], must("spring.f0_n", "a real number, got '3'")),
    ([("spring", CONSTANT), ("spring.f0_n", -1.0)], "constant force f0 must be >= 0, got -1.0"),
    ([("spring", CONSTANT), ("spring.k_n_per_m", 1.0)], unknown("spring.k_n_per_m")),
    # power law
    ([("spring", POWER), ("spring.c", DROP)], missing("spring.c")),
    ([("spring", POWER), ("spring.d_m", DROP)], missing("spring.d_m")),
    ([("spring", POWER), ("spring.p", DROP)], missing("spring.p")),
    ([("spring", POWER), ("spring.c", math.nan)], must("spring.c", "finite, got nan")),
    ([("spring", POWER), ("spring.d_m", [0.1])], must("spring.d_m", "a real number, got [0.1]")),
    ([("spring", POWER), ("spring.c", -1.0)], "power-law c must be >= 0, got -1.0"),
    ([("spring", POWER), ("spring.d_m", 0.0)], "power-law d must be > 0, got 0.0"),
    ([("spring", POWER), ("spring.p", 0.5)], "power-law p must be >= 1, got 0.5"),
    # tabulated
    ([("spring", TABLE), ("spring.points_m_n", DROP)], missing("spring.points_m_n")),
    ([("spring", TABLE), ("spring.points_m_n", "0,0")], PAIRS),
    ([("spring", TABLE), ("spring.points_m_n", [[0.0, 0.0, 1.0]])], PAIRS),
    ([("spring", TABLE), ("spring.points_m_n", [[0.0, 0.0], [0.1, "5"]])],
     must("spring.points_m_n[1]", "a real number, got '5'")),
    ([("spring", TABLE), ("spring.points_m_n", [[0.0, 0.0], [math.inf, 5.0]])],
     must("spring.points_m_n[1]", "finite, got inf")),
    ([("spring", TABLE), ("spring.points_m_n", [])],
     "tabulated characteristic needs at least 2 points"),
    ([("spring", TABLE), ("spring.points_m_n", [[0.0, 0.0]])], "x_max must be > 0, got 0.0"),
    ([("spring", TABLE), ("spring.max_extension_m", "0.1")],
     must("spring.max_extension_m", "a real number, got '0.1'")),
    ([("spring", TABLE), ("spring.max_extension_m", 0.2)], "x_max 0.2 exceeds last tabulated x 0.12"),
    # counter: the type
    ([("counter", "weight")], missing("counter.type")),
    ([("counter.type", DROP)], missing("counter.type")),
    ([("counter.type", "magnet")], "config: unknown counter type 'magnet' at 'counter.type'"),
    ([("counter.type", ["weight"])], "config: unknown counter type '['weight']' at 'counter.type'"),
    # weight
    ([("counter.mass_kg", 1.0)], unknown("counter.mass_kg")),
    ([("counter.load_n", DROP)], missing("counter.load_n")),
    ([("counter.load_n", "10")], must("counter.load_n", "a real number, got '10'")),
    ([("counter.load_n", -math.inf)], must("counter.load_n", "finite, got -inf")),
    ([("counter.load_n", 0)], "counter weight load must be > 0, got 0.0"),
    # spring counter
    ([("counter", SPRING_COUNTER), ("counter.t0_n", DROP)], missing("counter.t0_n")),
    ([("counter", SPRING_COUNTER), ("counter.k2_n_per_m", DROP)], missing("counter.k2_n_per_m")),
    ([("counter", SPRING_COUNTER), ("counter.load_n", 10.0)], unknown("counter.load_n")),
    ([("counter", SPRING_COUNTER), ("counter.t0_n", False)],
     must("counter.t0_n", "a real number, got False")),
    ([("counter", SPRING_COUNTER), ("counter.k2_n_per_m", math.nan)],
     must("counter.k2_n_per_m", "finite, got nan")),
    ([("counter", SPRING_COUNTER), ("counter.t0_n", -1.0)],
     "counter spring pretension must be >= 0, got -1.0"),
    ([("counter", SPRING_COUNTER), ("counter.k2_n_per_m", -1.0)],
     "counter spring stiffness must be >= 0, got -1.0"),
    ([("counter", SPRING_COUNTER), ("counter.t0_n", 0.0), ("counter.k2_n_per_m", 0)],
     "counter with t0 = 0 and k2 = 0 has no tension at all"),
    # pulley
    ([("pulley.radius_mm", 20.0)], unknown("pulley.radius_mm")),
    ([("pulley.circular_radius_m", DROP)], missing("pulley.circular_radius_m")),
    ([("pulley.circular_radius_m", "0.02")],
     must("pulley.circular_radius_m", "a real number, got '0.02'")),
    ([("pulley.circular_radius_m", -math.inf)],
     must("pulley.circular_radius_m", "finite, got -inf")),
    ([("pulley.theta_max_deg", [345])], must("pulley.theta_max_deg", "a real number, got [345]")),
    ([("pulley.theta_max_deg", math.nan)], must("pulley.theta_max_deg", "finite, got nan")),
    ([("pulley.samples", 512.0)], must("pulley.samples", "an integer")),
    ([("pulley.samples", True)], must("pulley.samples", "an integer")),
    ([("pulley.samples", 1)], must("pulley.samples", "in [2, 1048576], got 1")),
    ([("pulley.samples", 2**20 + 1)], must("pulley.samples", "in [2, 1048576], got 1048577")),
    ([("pulley.r_min_m", DROP)], PAIRED),
    ([("pulley.r_max_m", DROP)], PAIRED),
    ([("pulley.r_min_m", "0.01")], must("pulley.r_min_m", "a real number, got '0.01'")),
    ([("pulley.r_max_m", math.inf)], must("pulley.r_max_m", "finite, got inf")),
    # friction
    ([("friction.f0_n", 0.0)], unknown("friction.f0_n")),
    ([("friction.mu", "0.003")], must("friction.mu", "a real number, got '0.003'")),
    ([("friction.offset_n", math.nan)], must("friction.offset_n", "finite, got nan")),
    # gripper
    ([("gripper.speed", 1.0)], unknown("gripper.speed")),
    *[
        ([(f"gripper.{key}", DROP)], missing(f"gripper.{key}"))
        for key in ("stage_travel_m", "stage_step_m", "latch", "actuator_cap_n",
                    "object_position_m")
    ],
    ([("gripper.stage_travel_m", None)], must("gripper.stage_travel_m", "a real number, got None")),
    ([("gripper.stage_step_m", "0.01")], must("gripper.stage_step_m", "a real number, got '0.01'")),
    ([("gripper.latch", 1)], must("gripper.latch", "true or false")),
    ([("gripper.latch", "true")], must("gripper.latch", "true or false")),
    ([("gripper.latch", None)], must("gripper.latch", "true or false")),
    ([("gripper.actuator_cap_n", math.inf)], must("gripper.actuator_cap_n", "finite, got inf")),
    ([("gripper.object_position_m", -math.inf)],
     must("gripper.object_position_m", "finite, got -inf")),
]

# two faults: which one is reported
ORDER_CASES = [
    # in a section: an unknown key, then a missing one, then values in table order
    ([("spring.extra", 1), ("spring.k_n_per_m", DROP)], unknown("spring.extra")),
    ([("pulley.extra", 1), ("pulley.circular_radius_m", DROP)], unknown("pulley.extra")),
    ([("spring.k_n_per_m", DROP), ("spring.max_extension_m", DROP)],
     missing("spring.k_n_per_m")),
    # k_n_per_m moved after max_extension_m in the object: still read first
    ([("spring.k_n_per_m", DROP), ("spring.k_n_per_m", "x"), ("spring.max_extension_m", "x")],
     must("spring.k_n_per_m", "a real number, got 'x'")),
    # every value is read before the law checks its range
    ([("spring.k_n_per_m", -1), ("spring.max_extension_m", "x")],
     must("spring.max_extension_m", "a real number, got 'x'")),
    ([("spring", TABLE), ("spring.points_m_n", "x"), ("spring.max_extension_m", "x")], PAIRS),
    # a typed section: its type before its keys
    ([("spring.type", DROP), ("spring.extra", 1)], missing("spring.type")),
    ([("spring.type", "negated"), ("spring.extra", 1)],
     "config: unknown characteristic type 'negated' at 'spring.type'"),
    ([("counter.type", ["weight"]), ("counter.load_n", DROP)],
     "config: unknown counter type '['weight']' at 'counter.type'"),
    # pulley: samples, then the pairing of the bounds
    ([("pulley.samples", 0), ("pulley.r_max_m", DROP)],
     must("pulley.samples", "in [2, 1048576], got 0")),
    # top level: an unknown key, then missing sections, then sections in the
    # order spring, counter, pulley, friction, gap_x_m, gripper
    ([("extra", 1), ("spring", DROP)], unknown("extra")),
    ([("spring", DROP), ("pulley", DROP)], missing("spring")),
    ([("pulley", DROP), ("counter", DROP)], missing("counter")),
    ([("spring.k_n_per_m", "x"), ("counter.load_n", "x")],
     must("spring.k_n_per_m", "a real number, got 'x'")),
    ([("counter.load_n", 0), ("pulley.samples", 0)], "counter weight load must be > 0, got 0.0"),
    ([("pulley.r_max_m", DROP), ("friction.mu", "x")], PAIRED),
    ([("friction.mu", "x"), ("gap_x_m", "x")], must("friction.mu", "a real number, got 'x'")),
    ([("gap_x_m", "x"), ("gripper.latch", 1)], must("gap_x_m", "a real number, got 'x'")),
]


def _case_id(changes):
    return "+".join(
        f"{path}-" + ("drop" if value is DROP else type(value).__name__)
        for path, value in changes
    )


@pytest.mark.parametrize(
    "changes, message",
    SCHEMA_CASES + ORDER_CASES,
    ids=[_case_id(changes) for changes, _ in SCHEMA_CASES + ORDER_CASES],
)
def test_schema_error_text(changes, message):
    with pytest.raises(ValidationError) as info:
        parse_config(mutated(changes))
    assert str(info.value) == message


def test_full_config_parses_every_key():
    cfg = parse_config(full_config())
    assert cfg.theta_max_rad == math.radians(345.0)
    assert cfg.samples == 512
    assert cfg.truncation_bounds == (0.01, 0.04)
    assert (cfg.friction_mu, cfg.friction_f0_n, cfg.gap_x_m) == (0.003, 0.0, 0.0)
    assert cfg.gripper.latch_holds is True
    assert cfg.gripper.object_position == 0.05


@pytest.mark.parametrize("data", [[], None, "spring", 1.0])
def test_top_level_must_be_an_object(data):
    with pytest.raises(ValidationError) as info:
        parse_config(data)
    assert str(info.value) == "config: top level must be an object"


# -- the schema under random edits ----------------------------------------------------

SHIPPED = [json.loads(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "configs").glob("*.json"))]
SCHEMA_KEYS = sorted(
    {key for table in (CONFIG, PULLEY, FRICTION, GRIPPER) for key in table}
    | {key for _, spec in (*LAWS.values(), *COUNTERS.values()) for key in spec}
    | {"type", *LAWS, *COUNTERS}
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**307, max_value=10**400)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(SCHEMA_KEYS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _objects(node):
    """Every JSON object in node, node itself included."""
    found = [node] if isinstance(node, dict) else []
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        found += _objects(child)
    return found


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_shipped_configs_parse_or_raise_validation_error(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(SHIPPED)))
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(_objects(cfg)))
        keys = SCHEMA_KEYS if not node or data.draw(st.booleans()) else sorted(node)
        key = data.draw(st.sampled_from(keys))
        if key in node and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
    try:
        result = parse_config(cfg)
    except ValidationError:
        return
    assert isinstance(result, RunConfig)


# -- the README documents the schema --------------------------------------------------


def test_readme_config_example_parses_and_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(example))
    assert cfg.gripper is not None and cfg.truncation_bounds is not None
    for key in SCHEMA_KEYS:
        assert f"`{key}`" in section or f'"{key}"' in section, key
