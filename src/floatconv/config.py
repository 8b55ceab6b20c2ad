"""Strict JSON run configurations: parsing, synthesis and verification.

Key names carry unit suffixes (_m, _n, _deg) to keep the SI-internal /
mm-deg-export split explicit. Parsing is strict: unknown keys, missing
required keys and non-finite numbers are rejected by full dotted path, so
a typo never silently falls back to a default. The schema is data: one
table per section, read by the one function _section.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .characteristics import (ForceCharacteristic, _at_least, _count, _finite, _flag, _shown,
                              cumulative_trapezoid)
from .errors import ValidationError
from .export import CSV_ANGLE_QUANTUM, CSV_RADIUS_QUANTUM
from .pulley import (
    DEFAULT_PROFILE_SAMPLES,
    MAX_PROFILE_SAMPLES,
    SPRING_SYNTHESIS_RTOL,
    CounterElement,
    PulleyProfile,
    _window,
    synthesize_spring_counter,
    synthesize_weight_counter,
)

# verify tolerances: balance residual relative to peak force, energy
# identity relative to total stored energy
VERIFY_FORCE_RTOL = 1e-9
VERIFY_ENERGY_RTOL = 1e-6

# pulley.circular_radius_m floor (m): a subnormal radius overflows every force
MIN_CIRCULAR_RADIUS = 1e-6


class RunConfig(NamedTuple):
    spring: ForceCharacteristic
    circular_radius_m: float
    theta_max_rad: float | None
    samples: int
    truncation_bounds: tuple[float, float] | None   # (r_min_m, r_max_m)
    counter: CounterElement
    friction_mu: float
    friction_f0_n: float
    gripper: tuple | None   # GripperModel's arguments after its converter, in order


REQUIRED = object()   # the default of a key that has none


def _section(section, path: str, spec: dict) -> tuple:
    """A config object's values in spec order; spec maps each key to (reader, default),
    and a reader that is itself a table reads a nested section.

    Rejects a non-object, then an unknown key, then a missing required key.
    """
    if not isinstance(section, dict):
        raise ValidationError(f"config: {path or 'top level'} must be an object")
    prefix = f"{path}." if path else ""
    for key in section:
        if key not in spec:
            raise ValidationError(f"config: unknown key '{prefix}{_shown(key, str)}'")
    for key, (_, default) in spec.items():
        if default is REQUIRED and key not in section:
            raise ValidationError(f"config: missing required key '{prefix}{key}'")
    return tuple(
        default if key not in section
        else _section(section[key], prefix + key, reader) if isinstance(reader, dict)
        else reader(section[key], prefix + key)
        for key, (reader, default) in spec.items()
    )


def _typed(section, path: str, what: str, table: dict):
    """A typed section: table maps its "type" to (factory, spec)."""
    if not isinstance(section, dict) or "type" not in section:
        raise ValidationError(f"config: missing required key '{path}.type'")
    kind = section["type"]
    # a list or object is unhashable: test for a str before the lookup
    if not isinstance(kind, str) or kind not in table:
        raise ValidationError(f"config: unknown {what} type '{_shown(kind, str)}' at '{path}.type'")
    factory, spec = table[kind]
    fields = {key: value for key, value in section.items() if key != "type"}
    return factory(*_section(fields, path, spec))


def _number(value, name: str) -> float:
    return _finite(f"config: '{name}'", value)


def _radians(value, name: str) -> float:
    return math.radians(_number(value, name))


def _samples(value, name: str) -> int:
    return _count(f"config: '{name}'", value, 2, MAX_PROFILE_SAMPLES)


def _boolean(value, name: str) -> bool:
    return _flag(f"config: '{name}'", value)


def _points(value, name: str) -> list:
    pairs = isinstance(value, list) and all(isinstance(pt, list) and len(pt) == 2 for pt in value)
    if not pairs:
        raise ValidationError(f"config: '{name}' must be a list of [x_m, force_n] pairs")
    return [[_number(v, f"{name}[{i}]") for v in pt] for i, pt in enumerate(value)]


def parse_characteristic(section: dict, path: str = "spring") -> ForceCharacteristic:
    return _typed(section, path, "characteristic", LAWS)


def _counter(section, path: str) -> CounterElement:
    return _typed(section, path, "counter", COUNTERS)


def _pulley(section, path: str) -> tuple:
    """(circular radius, theta_max rad, samples, truncation bounds)."""
    radius, theta_max, samples, r_min, r_max = _section(section, path, PULLEY)
    _at_least(f"config: '{path}.circular_radius_m'", radius, MIN_CIRCULAR_RADIUS)
    if (r_min is None) != (r_max is None):
        raise ValidationError(
            f"config: '{path}.r_min_m' and '{path}.r_max_m' must be given together"
        )
    return radius, theta_max, samples, None if r_min is None else _window(r_min, r_max)


# the schema: each section maps its keys to (reader or nested table, default); a typed
# section maps its "type" to (factory, keys), and the factory takes the values in order
NUMBER = (_number, REQUIRED)
LAWS = {
    "linear": (ForceCharacteristic.linear, {"k_n_per_m": NUMBER, "max_extension_m": NUMBER}),
    "constant": (ForceCharacteristic.constant, {"f0_n": NUMBER, "max_extension_m": NUMBER}),
    "power_law": (ForceCharacteristic.power_law,
                  {"c": NUMBER, "d_m": NUMBER, "p": NUMBER, "max_extension_m": NUMBER}),
    # max_extension_m None: the last knot's x
    "tabulated": (ForceCharacteristic.tabulated,
                  {"points_m_n": (_points, REQUIRED), "max_extension_m": (_number, None)}),
}
COUNTERS = {
    "weight": (CounterElement.weight, {"load_n": NUMBER}),
    "spring": (CounterElement.spring, {"t0_n": NUMBER, "k2_n_per_m": NUMBER}),
}
PULLEY = {
    "circular_radius_m": NUMBER,
    "theta_max_deg": (_radians, None),   # None: the spring's whole extension
    "samples": (_samples, DEFAULT_PROFILE_SAMPLES),
    "r_min_m": (_number, None),
    "r_max_m": (_number, None),
}
FRICTION = {"mu": (_number, 0.0), "offset_n": (_number, 0.0)}
GRIPPER = {
    "stage_travel_m": NUMBER, "stage_step_m": NUMBER, "latch": (_boolean, REQUIRED),
    "actuator_cap_n": NUMBER, "object_position_m": NUMBER,
}
# read in this order: of two faulty sections, the first listed is reported
CONFIG = {
    "spring": (parse_characteristic, REQUIRED),
    "counter": (_counter, REQUIRED),
    "pulley": (_pulley, REQUIRED),
    "friction": (FRICTION, (0.0, 0.0)),
    "gripper": (GRIPPER, None),
}


def parse_config(data: dict) -> RunConfig:
    spring, counter, pulley, friction, gripper = _section(data, "", CONFIG)
    return RunConfig(spring, *pulley, counter, *friction, gripper)


def synthesize_from_config(cfg: RunConfig) -> PulleyProfile:
    """Build the configured pulley, applying truncation bounds when present."""
    R, counter, theta_max = cfg.circular_radius_m, cfg.counter, cfg.theta_max_rad
    if counter.k2 == 0:
        profile = synthesize_weight_counter(cfg.spring, R, counter.t0, cfg.samples, theta_max)
    else:
        profile = synthesize_spring_counter(cfg.spring, R, counter, cfg.samples - 1, theta_max)
    bounds = cfg.truncation_bounds
    if bounds is not None:
        profile = profile.truncated(*bounds)
    return profile


class VerifyReport(NamedTuple):
    """How closely a profile realizes its configuration."""

    max_residual: float        # N, worst departure from the expected force
    residual_tol: float        # N, tolerance on max_residual
    energy_error: float        # energy identity error, relative to the stored energy
    clamped_to: float | None   # rad, last sample truncation clamped; None if none

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.residual_tol and self.energy_error <= VERIFY_ENERGY_RTOL


# a huge radius overflows R*theta to inf, which force_at rejects: no warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    thetas, radius, payout = profile.thetas, profile.radii, profile._radius.cumulative
    # the CSV's 6-decimal degrees can round theta_max a hair past the spring's
    # range; pull samples inside that quantum back onto it and interpolate there
    theta_end = target.x_max / R
    if 0 < thetas[-1] - theta_end <= CSV_ANGLE_QUANTUM:
        k = int(np.searchsorted(thetas, theta_end, side="right"))
        thetas = np.minimum(thetas, theta_end)
        radius = np.append(radius[:k], profile._radius.at(thetas[k:]))
        payout = np.append(payout[:k], profile.payout(thetas[k:]))
    xs = R * thetas
    force = target.force_at(xs)
    tension = counter.tension(payout)
    residual = force - radius * tension / R
    stored = target.stored_energy(xs)
    release, clamped_to = stored, None
    if cfg.truncation_bounds is not None:
        ideal = R * force / tension
        expected = np.clip(ideal, *cfg.truncation_bounds)
        withheld = np.where(expected != ideal, force - expected * tension / R, 0.0)
        residual -= withheld
        if (clamped := np.nonzero(withheld)[0]).size:
            release = stored - cumulative_trapezoid(withheld, xs)
            clamped_to = float(thetas[clamped[-1]])
    e_scale = max(float(stored[-1]), 1e-300)
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
        clamped_to=clamped_to,
    )
