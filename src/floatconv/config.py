"""Strict JSON run configurations: parsing, synthesis and verification.

Key names carry unit suffixes (_m, _n, _deg) to keep the SI-internal /
mm-deg-export split explicit. Parsing is strict: unknown keys, missing
required keys and non-finite numbers are rejected by full dotted path, so
a typo never silently falls back to a default.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .characteristics import ForceCharacteristic, cumulative_trapezoid
from .errors import ValidationError
from .export import CSV_ANGLE_QUANTUM, CSV_RADIUS_QUANTUM
from .pulley import (
    SPRING_SYNTHESIS_RTOL,
    CounterElement,
    PulleyProfile,
    synthesize_spring_counter,
    synthesize_weight_counter,
)

# verify tolerances: balance residual relative to peak force, energy
# identity relative to total stored energy
VERIFY_FORCE_RTOL = 1e-9
VERIFY_ENERGY_RTOL = 1e-6

# pulley.samples range; the cap keeps a config from requesting an
# unbounded allocation
MAX_PROFILE_SAMPLES = 2**20


@dataclass(frozen=True)
class GripperSettings:
    # the GripperModel keyword arguments the gripper section sets
    stage_travel: float         # m
    stage_step: float           # m per tick
    latch_holds: bool
    actuator_force_cap: float   # N
    object_position: float      # m


@dataclass(frozen=True)
class RunConfig:
    spring: ForceCharacteristic
    circular_radius_m: float
    theta_max_rad: float | None
    samples: int
    truncation_bounds: tuple[float, float] | None   # (r_min_m, r_max_m)
    counter: CounterElement
    friction_mu: float
    friction_f0_n: float
    gap_x_m: float
    gripper: GripperSettings | None


def _check_keys(section: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...]):
    if not isinstance(section, dict):
        raise ValidationError(f"config: {path or 'top level'} must be an object")
    allowed = set(required) | set(optional)
    for key in section:
        if key not in allowed:
            full = f"{path}.{key}" if path else key
            raise ValidationError(f"config: unknown key '{full}'")
    for key in required:
        if key not in section:
            full = f"{path}.{key}" if path else key
            raise ValidationError(f"config: missing required key '{full}'")


def _number(section: dict, path: str, key: str, default=None) -> float:
    if key not in section:
        return default
    return _finite_number(section[key], f"{path}.{key}" if path else key)


def _finite_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"config: '{name}' must be a number")
    if not abs(value) <= sys.float_info.max:   # NaN, +-inf, an int past float range
        raise ValidationError(f"config: '{name}' must be finite")
    return float(value)


def _integer(section: dict, path: str, key: str, default=None) -> int:
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"config: '{path}.{key}' must be an integer")
    return value


def _boolean(section: dict, path: str, key: str) -> bool:
    value = section[key]
    if not isinstance(value, bool):
        raise ValidationError(f"config: '{path}.{key}' must be true or false")
    return value


def parse_characteristic(section: dict, path: str = "spring") -> ForceCharacteristic:
    if not isinstance(section, dict) or "type" not in section:
        raise ValidationError(f"config: missing required key '{path}.type'")
    kind = section["type"]
    if kind == "linear":
        _check_keys(section, path, ("type", "k_n_per_m", "max_extension_m"), ())
        return ForceCharacteristic.linear(
            k=_number(section, path, "k_n_per_m"),
            x_max=_number(section, path, "max_extension_m"),
        )
    if kind == "constant":
        _check_keys(section, path, ("type", "f0_n", "max_extension_m"), ())
        return ForceCharacteristic.constant(
            f0=_number(section, path, "f0_n"),
            x_max=_number(section, path, "max_extension_m"),
        )
    if kind == "power_law":
        _check_keys(section, path, ("type", "c", "d_m", "p", "max_extension_m"), ())
        return ForceCharacteristic.power_law(
            c=_number(section, path, "c"),
            d=_number(section, path, "d_m"),
            p=_number(section, path, "p"),
            x_max=_number(section, path, "max_extension_m"),
        )
    if kind == "tabulated":
        _check_keys(section, path, ("type", "points_m_n"), ("max_extension_m",))
        points = section["points_m_n"]
        if not isinstance(points, list) or any(
            not isinstance(pt, list) or len(pt) != 2 for pt in points
        ):
            raise ValidationError(
                f"config: '{path}.points_m_n' must be a list of [x_m, force_n] pairs"
            )
        points = [
            [_finite_number(v, f"{path}.points_m_n[{i}]") for v in pt]
            for i, pt in enumerate(points)
        ]
        return ForceCharacteristic.tabulated(
            points, x_max=_number(section, path, "max_extension_m", default=None)
        )
    raise ValidationError(f"config: unknown characteristic type '{kind}' at '{path}.type'")


def parse_counter(section: dict, path: str = "counter") -> CounterElement:
    if not isinstance(section, dict) or "type" not in section:
        raise ValidationError(f"config: missing required key '{path}.type'")
    kind = section["type"]
    if kind == "weight":
        _check_keys(section, path, ("type", "load_n"), ())
        return CounterElement.weight(_number(section, path, "load_n"))
    if kind == "spring":
        _check_keys(section, path, ("type", "t0_n", "k2_n_per_m"), ())
        return CounterElement.spring(
            t0=_number(section, path, "t0_n"),
            k2=_number(section, path, "k2_n_per_m"),
        )
    raise ValidationError(f"config: unknown counter type '{kind}' at '{path}.type'")


def parse_config(data: dict) -> RunConfig:
    _check_keys(
        data,
        "",
        ("spring", "pulley", "counter"),
        ("friction", "gap_x_m", "gripper"),
    )
    spring = parse_characteristic(data["spring"])
    counter = parse_counter(data["counter"])

    pulley = data["pulley"]
    _check_keys(
        pulley,
        "pulley",
        ("circular_radius_m",),
        ("theta_max_deg", "samples", "r_min_m", "r_max_m"),
    )
    radius = _number(pulley, "pulley", "circular_radius_m")
    theta_max_deg = _number(pulley, "pulley", "theta_max_deg", default=None)
    samples = _integer(pulley, "pulley", "samples", default=512)
    if not 2 <= samples <= MAX_PROFILE_SAMPLES:
        raise ValidationError(
            f"config: 'pulley.samples' must be in [2, {MAX_PROFILE_SAMPLES}], got {samples}"
        )
    r_min = _number(pulley, "pulley", "r_min_m", default=None)
    r_max = _number(pulley, "pulley", "r_max_m", default=None)
    if (r_min is None) != (r_max is None):
        raise ValidationError(
            "config: 'pulley.r_min_m' and 'pulley.r_max_m' must be given together"
        )

    friction_mu, friction_f0 = 0.0, 0.0
    if "friction" in data:
        fr = data["friction"]
        _check_keys(fr, "friction", (), ("mu", "offset_n"))
        friction_mu = _number(fr, "friction", "mu", default=0.0)
        friction_f0 = _number(fr, "friction", "offset_n", default=0.0)

    gap_x = _number(data, "", "gap_x_m", default=0.0)

    gripper = None
    if "gripper" in data:
        g = data["gripper"]
        _check_keys(
            g,
            "gripper",
            (
                "stage_travel_m",
                "stage_step_m",
                "latch",
                "actuator_cap_n",
                "object_position_m",
            ),
            (),
        )
        gripper = GripperSettings(
            stage_travel=_number(g, "gripper", "stage_travel_m"),
            stage_step=_number(g, "gripper", "stage_step_m"),
            latch_holds=_boolean(g, "gripper", "latch"),
            actuator_force_cap=_number(g, "gripper", "actuator_cap_n"),
            object_position=_number(g, "gripper", "object_position_m"),
        )

    return RunConfig(
        spring=spring,
        circular_radius_m=radius,
        theta_max_rad=math.radians(theta_max_deg) if theta_max_deg is not None else None,
        samples=samples,
        truncation_bounds=None if r_min is None else (r_min, r_max),
        counter=counter,
        friction_mu=friction_mu,
        friction_f0_n=friction_f0,
        gap_x_m=gap_x,
        gripper=gripper,
    )


def synthesize_from_config(cfg: RunConfig) -> PulleyProfile:
    """Build the configured pulley, applying truncation bounds when present."""
    if cfg.counter.k2 == 0:
        profile = synthesize_weight_counter(
            cfg.spring,
            circular_radius=cfg.circular_radius_m,
            load=cfg.counter.t0,
            n_samples=cfg.samples,
            theta_max=cfg.theta_max_rad,
        )
    else:
        profile = synthesize_spring_counter(
            cfg.spring,
            circular_radius=cfg.circular_radius_m,
            counter=cfg.counter,
            n_steps=cfg.samples - 1,
            theta_max=cfg.theta_max_rad,
        )
    bounds = cfg.truncation_bounds
    if bounds is not None:
        profile = profile.truncated(*bounds)
    return profile


@dataclass(frozen=True)
class VerifyReport:
    """How closely a profile realizes its configuration."""

    max_residual: float        # N, worst departure from the expected force
    residual_tol: float        # N, tolerance on max_residual
    energy_error: float        # energy identity error, relative to the stored energy
    clamped_to: float | None   # rad, last sample truncation clamped; None if none

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.residual_tol and self.energy_error <= VERIFY_ENERGY_RTOL


def verify_profile(cfg: RunConfig, profile: PulleyProfile) -> VerifyReport:
    """Check a profile read back from its CSV against its config.

    The config asks for the radius R*F/T(s) at the profile's own payout s,
    clamped into the truncation bounds. Unclamped samples must balance;
    clamped ones must sit on the clamped radius, and the energy identity
    is credited with the work the clamp withholds. The force tolerance is
    VERIFY_FORCE_RTOL of the peak for a dead weight, SPRING_SYNTHESIS_RTOL
    for a spring, plus the floor of the CSV's 6-decimal columns.
    """
    R, target, counter = cfg.circular_radius_m, cfg.spring, cfg.counter
    thetas = profile.thetas
    # the CSV's 6-decimal degrees can round theta_max a hair past the
    # spring's range; pull samples inside that quantum back onto it
    theta_end = target.x_max / R
    if thetas[-1] - theta_end <= CSV_ANGLE_QUANTUM:
        thetas = np.minimum(thetas, theta_end)
    xs = R * thetas
    force = target.force_at(xs)
    payout = profile.payout(thetas)
    tension = counter.tension(payout)

    withheld = np.zeros_like(force)   # force the truncation clamp withholds
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
