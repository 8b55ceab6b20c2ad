"""Non-circular pulley synthesis and analysis.

A non-circular pulley rigidly coupled to a circular pulley of radius R
converts a counter load into an arbitrary force law at the cable of the
circular pulley. Static torque balance about the common axle:

    r(theta) * T(theta) = R * F(x),      x = R * theta

where T is the counter tension (a dead weight mg, or a secondary spring
T0 + k2*s fed by the cable the non-circular pulley pays out) and F is the
force the circular-pulley cable must exert. Solving for the radius gives
the synthesis rule r = R*F/T; for a linear target F = k*x under a dead
weight the radius law collapses to the spiral r = a*theta with
a = k*R**2 / mg.

Radii are metres, angles radians. Profiles are immutable after synthesis
and all analysis operations are pure, so parallel sweeps over theta are
safe without locks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characteristics import LINEAR, ForceCharacteristic, _finite, clip_domain, interp_scalar
from .errors import (
    DomainError,
    NumericalError,
    SingularityError,
    ValidationError,
)

DEFAULT_PROFILE_SAMPLES = 512
DEFAULT_SPRING_STEPS = 2048

# Forward-verification tolerance for spring-counter synthesis, relative to
# the peak target force.
SPRING_SYNTHESIS_RTOL = 1e-6

WEIGHT = "weight"
SPRING = "spring"


@dataclass(frozen=True)
class CounterElement:
    """The load hung on the non-circular pulley.

    Either a dead weight of constant tension ``load`` (N) or a secondary
    spring whose tension grows with the cable the pulley has paid out:
    T = t0 + k2 * s.
    """

    kind: str
    load: float = 0.0   # N, weight only
    t0: float = 0.0     # N, spring pretension
    k2: float = 0.0     # N/m, spring stiffness

    def __post_init__(self):
        if self.kind == WEIGHT:
            _finite("load", self.load)
            if not self.load > 0:
                raise ValidationError(f"counter weight load must be > 0, got {self.load}")
        elif self.kind == SPRING:
            _finite("t0", self.t0)
            _finite("k2", self.k2)
            if self.t0 < 0:
                raise ValidationError(f"counter spring pretension must be >= 0, got {self.t0}")
            if self.k2 < 0:
                raise ValidationError(f"counter spring stiffness must be >= 0, got {self.k2}")
        else:
            raise ValidationError(f"unknown counter element kind {self.kind!r}")

    @classmethod
    def weight(cls, load: float) -> "CounterElement":
        return cls(kind=WEIGHT, load=float(load))

    @classmethod
    def spring(cls, t0: float, k2: float) -> "CounterElement":
        return cls(kind=SPRING, t0=float(t0), k2=float(k2))


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
        thetas = np.asarray(self.thetas, dtype=float)
        radii = np.asarray(self.radii, dtype=float)
        if thetas.ndim != 1 or radii.shape != thetas.shape:
            raise ValidationError("thetas and radii must be 1-d arrays of equal length")
        if thetas.size < 2:
            raise ValidationError(f"profile needs at least 2 samples, got {thetas.size}")
        if not self.circular_radius > 0:
            raise ValidationError(
                f"circular-pulley radius must be > 0, got {self.circular_radius}"
            )
        if not np.all(np.isfinite(thetas)) or not np.all(np.isfinite(radii)):
            raise ValidationError("profile samples must be finite")
        if abs(thetas[0]) > 1e-15:
            raise ValidationError(f"profile must start at theta=0, got {thetas[0]}")
        if np.any(np.diff(thetas) <= 0):
            raise ValidationError("profile thetas must be strictly increasing")
        if np.any(radii < 0):
            raise ValidationError("profile radii must be non-negative")
        thetas = thetas.copy()
        radii = radii.copy()
        thetas.flags.writeable = False
        radii.flags.writeable = False
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "radii", radii)

    @property
    def theta_max(self) -> float:
        return float(self.thetas[-1])

    @property
    def n_samples(self) -> int:
        return int(self.thetas.size)

    # -- geometry ----------------------------------------------------------

    @cached_property
    def _sample_lists(self) -> tuple[list, list, list]:
        """thetas, radii and payout at the samples as lists, for scalar lookups."""
        return self.thetas.tolist(), self.radii.tolist(), self._payout_at_samples.tolist()

    def radius_at(self, theta):
        """Radius (m) at rotation angle, linearly interpolated between samples."""
        th, scalar = clip_domain(theta, self.theta_max)
        if type(th) is float:
            t, r, _ = self._sample_lists
            return interp_scalar(th, t, r)
        r = np.interp(th, self.thetas, self.radii)
        return float(r) if scalar else r

    @cached_property
    def _payout_at_samples(self) -> np.ndarray:
        dt = np.diff(self.thetas)
        avg = 0.5 * (self.radii[1:] + self.radii[:-1])
        return np.concatenate(([0.0], np.cumsum(avg * dt)))

    def payout(self, theta):
        """Cable length s(theta) = integral of r, paid out by the pulley.

        Trapezoid rule over the sample grid plus the partial last panel;
        exact for the piecewise-linear interpolant, hence for spiral
        profiles.
        """
        th, scalar = clip_domain(theta, self.theta_max)
        if type(th) is float:
            t, r, s = self._sample_lists
            i = min(max(bisect_right(t, th) - 1, 0), len(t) - 2)
            return s[i] + 0.5 * (r[i] + interp_scalar(th, t, r)) * (th - t[i])
        t, r = self.thetas, self.radii
        idx = np.clip(np.searchsorted(t, th, side="right") - 1, 0, t.size - 2)
        r_at = np.interp(th, t, r)
        val = self._payout_at_samples[idx] + 0.5 * (r[idx] + r_at) * (th - t[idx])
        return float(val) if scalar else val

    @cached_property
    def _arc_integrand(self) -> np.ndarray:
        # central differences inside, one-sided second order at the ends
        drdt = np.gradient(self.radii, self.thetas)
        return np.hypot(self.radii, drdt)

    @cached_property
    def _arc_at_samples(self) -> np.ndarray:
        g = self._arc_integrand
        dt = np.diff(self.thetas)
        return np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * dt)))

    def arc_length(self, theta):
        """Curve length integral of sqrt(r**2 + (dr/dtheta)**2) up to theta."""
        th, scalar = clip_domain(theta, self.theta_max)
        t = self.thetas
        g = self._arc_integrand
        idx = np.clip(np.searchsorted(t, th, side="right") - 1, 0, t.size - 2)
        g_at = np.interp(th, t, g)
        val = self._arc_at_samples[idx] + 0.5 * (g[idx] + g_at) * (th - t[idx])
        return float(val) if scalar else val

    # -- force analysis ----------------------------------------------------

    def realized_force(self, counter: CounterElement, theta):
        """Cable force (N) the pulley produces at the circular radius.

        r(theta) * T / R with T the counter tension; for spring counters
        the tension follows the paid-out cable length.
        """
        th, scalar = clip_domain(theta, self.theta_max)
        if type(th) is float:
            t, r, _ = self._sample_lists
            r_at = interp_scalar(th, t, r)
        else:
            r_at = np.interp(th, self.thetas, self.radii)
        if counter.kind == WEIGHT:
            tension = counter.load
        else:
            tension = counter.t0 + counter.k2 * self.payout(th)
        val = r_at * tension / self.circular_radius
        return float(val) if scalar else val

    def balance_residual(self, counter: CounterElement, target: ForceCharacteristic, theta):
        """Departure from perfect balance: target force minus realized force.

        Zero everywhere (to rounding) for an untruncated synthesized
        profile; truncation shows up as a nonzero offset near theta = 0.
        """
        th, scalar = clip_domain(theta, self.theta_max)
        resid = target.force_at(self.circular_radius * th) - self.realized_force(counter, th)
        return float(resid) if scalar else resid

    def truncated(self, r_min: float, r_max: float = np.inf) -> "PulleyProfile":
        """Clamp every sample radius into [r_min, r_max] (fabrication bounds).

        The theta grid is unchanged. The spiral ``slope`` tag survives only
        if no sample actually moved.
        """
        if not (0 <= r_min < r_max):
            raise ValidationError(f"need 0 <= r_min < r_max, got [{r_min}, {r_max}]")
        clamped = np.clip(self.radii, r_min, r_max)
        slope = self.slope if np.array_equal(clamped, self.radii) else None
        return PulleyProfile(self.circular_radius, self.thetas, clamped, slope)


def _resolve_theta_max(
    target: ForceCharacteristic, circular_radius: float, theta_max: float | None
) -> float:
    if theta_max is None:
        theta_max = target.x_max / circular_radius
    theta_max = float(theta_max)
    if theta_max <= 0:
        raise ValidationError(f"theta_max must be > 0, got {theta_max}")
    if circular_radius * theta_max > target.x_max * (1 + 1e-12):
        raise DomainError(
            f"target domain [0, {target.x_max:g}] m too short for "
            f"R*theta_max = {circular_radius * theta_max:g} m"
        )
    return theta_max


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
    if not circular_radius > 0:
        raise ValidationError(f"circular radius must be > 0, got {circular_radius}")
    if not load > 0:
        raise ValidationError(f"counter load must be > 0, got {load}")
    if n_samples < 2:
        raise ValidationError(f"need at least 2 samples, got {n_samples}")
    theta_max = _resolve_theta_max(target, circular_radius, theta_max)
    thetas = np.linspace(0.0, theta_max, n_samples)
    forces = target.force_at(circular_radius * thetas)
    if np.any(forces < 0):
        raise ValidationError("weight counter requires a non-negative target force")
    radii = circular_radius * forces / load
    slope = target.k * circular_radius**2 / load if target.kind == LINEAR else None
    return PulleyProfile(circular_radius, thetas, radii, slope)


def synthesize_spring_counter(
    target: ForceCharacteristic,
    circular_radius: float,
    counter: CounterElement,
    n_steps: int = DEFAULT_SPRING_STEPS,
    theta_max: float | None = None,
) -> PulleyProfile:
    """Shape a pulley so a secondary spring reproduces the target force law.

    The counter tension depends on the cable already paid out, which
    couples the radius law to its own integral:

        r(theta) * (t0 + k2*s(theta)) = R * F(R*theta),   ds/dtheta = r

    Eliminating r gives (t0 + k2*s) ds = R*F dtheta, which integrates to
    the energy balance t0*s + k2*s**2/2 = E(R*theta): the counter releases
    exactly the energy E the target stores. Its positive root

        s = 2E / (t0 + sqrt(t0**2 + 2*k2*E))

    gives the payout on n_steps + 1 nodes without cancellation, and the
    radius follows algebraically at each node. The returned profile is
    verified forward against the target and must match within
    SPRING_SYNTHESIS_RTOL of the peak force.
    """
    if counter.kind != SPRING:
        raise ValidationError("spring-counter synthesis needs a spring counter element")
    if not circular_radius > 0:
        raise ValidationError(f"circular radius must be > 0, got {circular_radius}")
    if n_steps < 1:
        raise ValidationError(f"need at least 1 step, got {n_steps}")
    theta_max = _resolve_theta_max(target, circular_radius, theta_max)

    R = circular_radius
    t0, k2 = counter.t0, counter.k2
    thetas = np.linspace(0.0, theta_max, n_steps + 1)
    f_node = target.force_at(R * thetas)
    if np.any(f_node < 0):
        raise ValidationError("spring counter requires a non-negative target force")
    if t0 == 0:
        # checked before the payout formula, which is 0/0 at theta=0
        if f_node[0] > 0:
            raise SingularityError(
                "nonzero target force at theta=0 with zero pretension leaves r(0) unbalanced"
            )
        raise SingularityError("zero pretension leaves the counter tension at 0 N at theta=0")

    energy = target.stored_energy(R * thetas)
    # a negative discriminant means the tension would pass through zero;
    # clamping it makes the tension check below catch that case
    payout = 2.0 * energy / (t0 + np.sqrt(np.maximum(t0 * t0 + 2.0 * k2 * energy, 0.0)))
    tension = t0 + k2 * payout
    if np.any(tension <= 0):
        raise SingularityError("counter tension reached zero while recovering radii")
    radii = R * f_node / tension
    slope = target.k * R**2 / t0 if (target.kind == LINEAR and k2 == 0.0) else None
    profile = PulleyProfile(R, thetas, radii, slope)

    realized = profile.realized_force(counter, thetas)
    peak = max(float(np.max(np.abs(f_node))), 1e-300)
    residual = float(np.max(np.abs(realized - f_node))) / peak
    if residual > SPRING_SYNTHESIS_RTOL:
        raise NumericalError(
            f"forward verification residual {residual:.3e} exceeds "
            f"{SPRING_SYNTHESIS_RTOL:.0e}; increase n_steps"
        )
    return profile
