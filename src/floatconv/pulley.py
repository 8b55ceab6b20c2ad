"""Non-circular pulley synthesis and analysis.

A non-circular pulley rigidly coupled to a circular pulley of radius R
converts a counter load into an arbitrary force law at the cable of the
circular pulley. Static torque balance about the common axle:

    r(theta) * T(s) = R * F(x),      x = R * theta

where F is the force the circular-pulley cable must exert and
T(s) = t0 + k2*s the tension of the counter after the pulley has paid out
cable s: a secondary spring, or a dead weight mg as the k2 = 0 case.
Solving for the radius gives the synthesis rule r = R*F/T; for a linear
target F = k*x under a dead weight the radius law collapses to the spiral
r = a*theta with a = k*R**2 / mg.

Radii are metres, angles radians. Profiles are immutable after synthesis
and all analysis operations are pure, so parallel sweeps over theta are
safe without locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characteristics import (
    LINEAR,
    ForceCharacteristic,
    PiecewiseLinear,
    _at_least,
    _columns,
    _count,
    _finite,
    _floats,
    _frozen,
    _real,
    _reals,
    clip_domain,
)
from .errors import NumericalError, SingularityError, ValidationError

DEFAULT_PROFILE_SAMPLES = 512
DEFAULT_SPRING_STEPS = 2048
# Largest profile sample count, so no caller can request an unbounded allocation.
MAX_PROFILE_SAMPLES = 2**20

# Forward-verification tolerance for spring-counter synthesis, relative to
# the peak target force.
SPRING_SYNTHESIS_RTOL = 1e-6

# Largest profile radius (m), far above any buildable pulley. It bounds the
# exported numbers: 1e12 m is 1e15 mm, 1e21 px at the largest SVG scale.
MAX_PROFILE_RADIUS = 1e12


@dataclass(frozen=True)
class CounterElement:
    """Counter load of tension T(s) = t0 + k2*s at payout s; a dead weight has k2 = 0."""

    t0: float         # N, tension at zero payout (a dead weight's load)
    k2: float = 0.0   # N/m, tension gained per metre paid out

    def __post_init__(self):
        _floats(self, "t0", "k2")
        _at_least("counter spring pretension", self.t0, 0)
        _at_least("counter spring stiffness", self.k2, 0)
        if self.t0 == 0 and self.k2 == 0:
            raise ValidationError("counter with t0 = 0 and k2 = 0 has no tension at all")

    @classmethod
    def weight(cls, load: float) -> "CounterElement":
        load = _finite("load", load)
        _at_least("counter weight load", load, 0, strict=True)
        return cls(t0=load)

    @classmethod
    def spring(cls, t0: float, k2: float) -> "CounterElement":
        return cls(t0=t0, k2=k2)

    def tension(self, s):
        """Tension (N) after paying out s (m); scalar or array. A dead weight
        (k2 = 0) skips its k2 term, which is nan at an infinite payout."""
        s = _reals("payout", s)
        if self.k2 == 0:
            return self.t0 if type(s) is float else np.full_like(s, self.t0)
        return self.t0 + self.k2 * s

    def released_energy(self, s):
        """Work (J) the counter releases paying out s: the integral of tension."""
        s = _reals("payout", s)
        # s * s, as numpy squares: a float ** can miss it by an ulp, or raise OverflowError.
        # A dead weight adds 0.0, not 0 * (s * s), which is nan where s * s overflows;
        # it still makes t0 * -0.0 a +0.0.
        return self.t0 * s + (0.0 if self.k2 == 0 else 0.5 * self.k2 * (s * s))

    def tension_for_energy(self, energy):
        """Tension (N) after releasing ``energy`` (J), from T**2 = t0**2 + 2*k2*E (dT/ds = k2,
        dE/ds = T) with no square formed: 0 where T would pass zero, t0 at any E if k2 = 0."""
        energy = _reals("energy", energy)
        if self.k2 == 0:
            return self.t0 if type(energy) is float else np.full_like(energy, self.t0)
        # halving and doubling, exact above 1, keep 2*k2 and t0 + a finite
        rate = 2.0 * np.sqrt(0.5 * self.k2) if self.k2 > 1.0 else np.sqrt(2.0 * self.k2)
        half = 0.5 if self.t0 > 1.0 else 1.0
        with np.errstate(over="ignore"):   # inf past the float range
            a = rate * np.sqrt(np.abs(energy))
            tension = np.hypot(self.t0, a)
            if np.any(energy < 0):   # T**2 = (t0 - a)*(t0 + a), with a capped at t0
                t, b = half * self.t0, half * np.minimum(a, self.t0)
                tension = np.where(energy >= 0, tension, np.sqrt(t - b) * np.sqrt(t + b) / half)
        return float(tension) if type(energy) is float else tension


@dataclass(frozen=True)
class PulleyProfile:
    """Sampled polar curve (theta_i, r_i) plus the circular-pulley radius.

    ``slope`` is set (m/rad) only when the profile is the exact spiral
    r = slope * theta, which synthesis produces for linear targets.
    """

    circular_radius: float
    thetas: np.ndarray
    radii: np.ndarray
    slope: float | None = None

    def __post_init__(self):
        thetas, radii = _columns(self, ("thetas", "radii"), "profile columns", 2)
        _floats(self, "circular_radius")
        _at_least("circular-pulley radius", self.circular_radius, 0, strict=True)
        if not np.all(np.isfinite(thetas)) or not np.all(np.isfinite(radii)):
            raise ValidationError("profile samples must be finite")
        if abs(thetas[0]) > 1e-15:
            raise ValidationError(f"profile must start at theta=0, got {thetas[0]}")
        if np.any(thetas[1:] <= thetas[:-1]):
            raise ValidationError("profile thetas must be strictly increasing")
        if np.any(radii < 0):
            raise ValidationError("profile radii must be non-negative")
        if np.any(radii > MAX_PROFILE_RADIUS):
            raise ValidationError(
                f"profile radii must be <= {MAX_PROFILE_RADIUS:g} m, got {np.max(radii):g} m"
            )
        if self.slope is not None:
            object.__setattr__(self, "slope", _real("slope", self.slope))

    @cached_property
    def theta_max(self) -> float:
        return float(self.thetas[-1])

    @property
    def n_samples(self) -> int:
        return int(self.thetas.size)

    # -- geometry ----------------------------------------------------------

    @cached_property
    def _radius(self) -> PiecewiseLinear:
        return PiecewiseLinear(self.thetas, self.radii)

    @cached_property
    def _arc(self) -> PiecewiseLinear:
        """The arc-length integrand sqrt(r**2 + (dr/dtheta)**2) over theta."""
        # central differences inside, one-sided second order at the ends
        drdt = np.gradient(self.radii, self.thetas)
        return PiecewiseLinear(self.thetas, np.hypot(self.radii, drdt))

    def payout(self, theta):
        """Cable length s(theta) = integral of r, paid out by the pulley.

        Trapezoid rule over the sample grid plus the partial last panel;
        exact for the piecewise-linear interpolant, hence for spiral
        profiles.
        """
        return self._radius.integral(clip_domain(theta, self.theta_max))

    def arc_length(self, theta):
        """Curve length integral of sqrt(r**2 + (dr/dtheta)**2) up to theta."""
        return self._arc.integral(clip_domain(theta, self.theta_max))

    # -- force analysis ----------------------------------------------------

    def realized_force(self, counter: CounterElement, theta):
        """Cable force (N) the pulley produces at the circular radius.

        r(theta) * T(s) / R with T the counter tension at the paid-out
        cable length s.
        """
        return self._cable_force(counter, clip_domain(theta, self.theta_max))

    def _cable_force(self, counter: CounterElement, th):
        """r(th) * T(s(th)) / R at a theta already clipped into [0, theta_max]."""
        if counter.k2 == 0:   # a dead weight's tension needs no payout lookup
            return self._radius.at(th) * counter.t0 / self.circular_radius
        radius, payout = self._radius.at_and_integral(th)
        return radius * counter.tension(payout) / self.circular_radius

    def balance_residual(self, counter: CounterElement, target: ForceCharacteristic, theta):
        """Departure from perfect balance: target force minus realized force.

        Zero everywhere (to rounding) for an untruncated synthesized
        profile; truncation shows up as a nonzero offset near theta = 0.
        """
        th = clip_domain(theta, self.theta_max)
        return target.force_at(self.circular_radius * th) - self._cable_force(counter, th)

    def truncated(self, r_min: float, r_max: float) -> "PulleyProfile":
        """Clamp every sample radius into [r_min, r_max] (fabrication bounds).

        The theta grid is unchanged. The spiral ``slope`` tag survives only
        if no sample actually moved.
        """
        clamped = np.clip(self.radii, *_window(r_min, r_max))
        slope = self.slope if np.array_equal(clamped, self.radii) else None
        return PulleyProfile(self.circular_radius, self.thetas, *_frozen(clamped), slope)


def _window(r_min: float, r_max: float) -> tuple[float, float]:
    """The truncation window (r_min, r_max), checked: truncated() and configs share it."""
    r_min, r_max = _real("r_min", r_min), _real("r_max", r_max)
    if not 0 <= r_min < r_max:
        raise ValidationError(f"need 0 <= r_min < r_max, got [{r_min}, {r_max}]")
    return r_min, r_max


# A huge law or a near-zero counter load overflows to inf or nan here. That
# is no warning: the non-finite radii fail PulleyProfile's finite check.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _synthesize(
    target: ForceCharacteristic,
    R: float,
    counter: CounterElement,
    n_samples: int,
    theta_max: float | None,
) -> PulleyProfile:
    """r = R*F/T on n_samples nodes, with the counter tension T in closed form.

    With ds/dtheta = r the balance r*T(s) = R*F integrates to an energy balance: the counter
    releases the energy E(R*theta) the target stores, so T is counter.tension_for_energy(E)
    (t0 for a dead weight, which needs no E), 0 at theta = 0 without pretension. The profile
    must reproduce the target within SPRING_SYNTHESIS_RTOL of the peak force.
    """
    R = _finite("circular_radius", R)
    _at_least("circular radius", R, 0, strict=True)
    theta_max = target.x_max / R if theta_max is None else _finite("theta_max", theta_max)
    _at_least("theta_max", theta_max, 0, strict=True)
    thetas = np.linspace(0.0, theta_max, n_samples)
    forces = target.force_at(R * thetas)
    if np.any(forces < 0):
        raise ValidationError("counter synthesis requires a non-negative target force")
    tension = counter.tension_for_energy(target.stored_energy(R * thetas) if counter.k2 else 0.0)
    if np.any(tension <= 0):
        raise SingularityError("counter tension reached zero while recovering radii")
    radii = R * forces / tension
    # R * R, not R**2: a float ** raises OverflowError where * gives inf
    slope = target.k * (R * R) / counter.t0 if target.kind == LINEAR and counter.k2 == 0 else None
    profile = PulleyProfile(R, thetas, *_frozen(radii), slope)

    # the forward check r*T/R: a dead weight's T is t0, and needs no payout sum
    T = counter.t0 if counter.k2 == 0 else counter.tension(profile._radius.cumulative)
    realized = radii * T / R
    peak = max(float(np.max(np.abs(forces))), 1e-300)
    residual = float(np.max(np.abs(realized - forces))) / peak
    if residual > SPRING_SYNTHESIS_RTOL:
        raise NumericalError(
            f"forward verification residual {residual:.3e} exceeds "
            f"{SPRING_SYNTHESIS_RTOL:.0e}; use more samples"
        )
    return profile


def synthesize_weight_counter(
    target: ForceCharacteristic,
    circular_radius: float,
    load: float,
    n_samples: int = DEFAULT_PROFILE_SAMPLES,
    theta_max: float | None = None,
) -> PulleyProfile:
    """Shape a pulley so a dead weight reproduces the target force law.

    Inverts the torque balance sample by sample: r = R * F(R*theta) / mg.
    For a linear target the result is the exact spiral r = a*theta with
    a = k * R**2 / mg, recorded in the profile's ``slope``.
    """
    _count("n_samples", n_samples, 2, MAX_PROFILE_SAMPLES)
    return _synthesize(target, circular_radius, CounterElement.weight(load), n_samples, theta_max)


def synthesize_spring_counter(
    target: ForceCharacteristic,
    circular_radius: float,
    counter: CounterElement,
    n_steps: int = DEFAULT_SPRING_STEPS,
    theta_max: float | None = None,
) -> PulleyProfile:
    """Shape a pulley so a secondary spring reproduces the target force law.

    The tension follows from the energy balance T**2 = t0**2 + 2*k2*E(R*theta)
    on n_steps + 1 nodes; a counter with k2 = 0 gives the dead-weight profile.
    """
    _count("n_steps", n_steps, 1, MAX_PROFILE_SAMPLES - 1)
    return _synthesize(target, circular_radius, counter, n_steps + 1, theta_max)
