"""Quasi-static model of the floating displacement-force converter.

The converter puts a working elastic element (force f at extension u) in
series with a pulley-realized inverse element. When the two are matched
and aligned, f(u) and the counter force cancel at every u, so the balance
point floats: it can be displaced with zero operating force while the
element's output force tracks the displacement.

An offset gap x between gripper and converter shifts the counter by x, so
the counter only engages for u >= x and the operating force of a matched
linear system settles at the constant k*x. Friction is modelled as a
symmetric band around the ideal force: mu * |transmitted counter force|
plus a constant offset.

Everything is quasi-static: no inertia, no cable dynamics. Converter
values are immutable and sweeps are pure, so u-ranges may be partitioned
across workers and merged in deterministic row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .characteristics import (
    ForceCharacteristic, _at_least, _columns, _count, _finite, _floats, _frozen, _real,
    _slack, clip_domain, cumulative_trapezoid,
)
from .errors import (
    DomainError,
    IndeterminateEquilibrium,
    NoRootError,
    NumericalError,
    ValidationError,
)
from .pulley import SPRING_SYNTHESIS_RTOL, CounterElement, PulleyProfile

# Operating force treated as constant / matching the applied force when within
# this band (N), or within SPRING_SYNTHESIS_RTOL of the law's peak if wider.
EQUILIBRIUM_FORCE_TOL = 1e-9
# Width of the final bracketing cell around the balance-point displacement (m).
EQUILIBRIUM_U_TOL = 1e-9

OPERATOR_WORK_PANELS = 1024
# Largest row count one sweep may allocate.
MAX_SWEEP_ROWS = 2**20
_EQUILIBRIUM_SCAN = 1024
# Largest sweep summary magnitude; fmt6 prints it in 23 characters. Real ratios are < 1.
MAX_SUMMARY_VALUE = 1e15


@dataclass(frozen=True)
class FloatingConverter:
    """Working element + pulley-realized inverse + offset gap + friction."""

    left: ForceCharacteristic
    profile: PulleyProfile
    counter: CounterElement
    gap_x: float = 0.0         # m, offset between gripper and converter
    friction_mu: float = 0.0   # fraction of counter force lost to friction
    friction_f0: float = 0.0   # N, constant friction offset

    def __post_init__(self):
        _floats(self, "gap_x")
        _at_least("gap_x", self.gap_x, 0)
        _friction(self)

    @cached_property
    def u_max(self) -> float:
        """Largest balance-point displacement both elements can follow."""
        return min(
            self.left.x_max,
            self.gap_x + self.profile.circular_radius * self.profile.theta_max,
        )

    # -- forces ------------------------------------------------------------

    def friction_band(self, counter_force):
        """Half-width (N) of the friction band around the ideal operating force."""
        return self.friction_mu * abs(counter_force) + self.friction_f0

    def force_components(self, u):
        """(spring force, counter force) at balance displacement u.

        The counter cable is slack for u < gap_x (the jaw has not met the
        object yet) and contributes zero force there. u is checked once,
        against u_max, which lies inside both the law's and the pulley's range.
        """
        us = clip_domain(u, self.u_max)
        profile = self.profile
        R = profile.circular_radius
        if type(us) is float:
            counter = 0.0 if us < self.gap_x else profile._cable_force(
                self.counter, min((us - self.gap_x) / R, profile.theta_max))
        else:
            theta = us - self.gap_x
            np.maximum(theta, 0.0, out=theta)
            theta /= R
            np.minimum(theta, profile.theta_max, out=theta)
            counter = profile._cable_force(self.counter, theta)
            counter[us < self.gap_x] = 0.0
        return self.left._eval(us), counter   # the spring last: not alive in the payout search

    def operating_force(self, u):
        """External force (N) to hold the balance point at displacement u."""
        spring, counter = self.force_components(u)
        return spring - counter

    # -- sweeps ------------------------------------------------------------

    def sweep(self, u_min: float, u_max: float, n: int) -> "SweepTable":
        """Uniform displacement sweep: spring and counter columns, and the converter's friction."""
        _count("sweep rows", n, 2, MAX_SWEEP_ROWS)
        u_min, u_max = _real("u_min", u_min), _real("u_max", u_max)
        if not 0 <= u_min < u_max:
            raise ValidationError(f"need 0 <= u_min < u_max, got [{u_min}, {u_max}]")
        if u_max > self.u_max + _slack(self.u_max):   # an inf end never reaches np.linspace
            raise DomainError(
                f"sweep end {u_max:g} m exceeds converter range {self.u_max:g} m"
            )
        us = np.linspace(u_min, u_max, n)
        spring, counter = self.force_components(us)
        return SweepTable(us, *_frozen(spring, counter), self.friction_mu, self.friction_f0)

    # -- energy ------------------------------------------------------------

    def energy_ledger(self, u0: float, u1: float) -> "EnergyLedger":
        """Energy bookkeeping for moving the balance point u0 -> u1.

        delta_spring is the change of energy stored in the working element,
        delta_counter the (negative of the) energy the counter element
        releases, operator_work the integral of the operating force. The
        three close: operator_work = delta_spring + delta_counter. It evaluates
        the ends as force_components does: clipped, each angle at most theta_max.
        """
        u0, u1 = clip_domain(u0, self.u_max), clip_domain(u1, self.u_max)
        if type(u0) is not float or type(u1) is not float:
            raise ValidationError("energy ledger ends u0 and u1 must be scalars")
        if u0 == u1:
            return EnergyLedger(0.0, 0.0, 0.0)
        delta_spring = self.left.stored_energy(u1) - self.left.stored_energy(u0)

        R, theta_max = self.profile.circular_radius, self.profile.theta_max
        theta0 = min(max(u0 - self.gap_x, 0.0) / R, theta_max)
        theta1 = min(max(u1 - self.gap_x, 0.0) / R, theta_max)
        s0 = self.profile.payout(theta0)
        s1 = self.profile.payout(theta1)
        delta_counter = self.counter.released_energy(s0) - self.counter.released_energy(s1)

        us = np.linspace(u0, u1, OPERATOR_WORK_PANELS + 1)
        if min(u0, u1) < self.gap_x < max(u0, u1):
            # keep the slack-to-engaged kink on the grid so the trapezoid
            # rule sees the slope break
            us = np.sort(np.append(us, self.gap_x))
            if u1 < u0:
                us = us[::-1]
        work = float(cumulative_trapezoid(self.operating_force(us), us)[-1])
        return EnergyLedger(delta_spring, delta_counter, work)

    # -- equilibrium -------------------------------------------------------

    def equilibrium_displacement(self, applied: float) -> float:
        """Balance-point displacement where the operating force equals ``applied``.

        Scans the engaged region [gap_x, u_max], then rescans the first cell
        where the residual changes sign until it is at most EQUILIBRIUM_U_TOL
        wide (residuals may have kinks at truncation boundaries, so derivative
        methods are avoided). A perfectly balanced converter, where the
        operating force is constant and equal to the applied force, raises
        IndeterminateEquilibrium: every displacement is an equilibrium.
        """
        applied = _finite("applied", applied)
        lo, hi = self.gap_x, self.u_max
        if not lo < hi:
            raise ValidationError("converter has no engaged displacement range")
        us = np.linspace(lo, hi, _EQUILIBRIUM_SCAN + 1)
        spring, counter = self.force_components(us)
        resid = spring - counter - applied
        # synthesis balances the counter only to SPRING_SYNTHESIS_RTOL of the law's
        # peak; an infinite peak sets no scale, and the absolute band stands alone
        peak = float(np.max(np.abs(spring)))
        tol = max(EQUILIBRIUM_FORCE_TOL, SPRING_SYNTHESIS_RTOL * peak if peak < np.inf else 0.0)
        if float(np.max(np.abs(resid))) <= tol:
            raise IndeterminateEquilibrium(
                f"operating force equals {applied:g} N everywhere; "
                "every displacement is an equilibrium"
            )
        if float(np.max(resid) - np.min(resid)) <= tol:
            raise NoRootError(
                f"operating force is constant at {float(np.mean(resid)) + applied:g} N "
                f"and never crosses {applied:g} N"
            )
        sign_change = np.nonzero(resid[:-1] * resid[1:] <= 0)[0]
        if sign_change.size == 0:
            raise NoRootError(f"operating force never crosses {applied:g} N")
        i = int(sign_change[0])
        while resid[i] != 0.0 and us[i + 1] - us[i] > EQUILIBRIUM_U_TOL:
            # carry the end residuals over, as bisection carries f(a): a law evaluated
            # at another array position can move an ulp and lose the sign change
            ends = resid[i], resid[i + 1]
            us = np.linspace(us[i], us[i + 1], _EQUILIBRIUM_SCAN + 1)
            resid = self.operating_force(us) - applied
            resid[0], resid[-1] = ends
            i = int(np.nonzero(resid[:-1] * resid[1:] <= 0)[0][0])
        return float(us[i] if resid[i] == 0.0 else 0.5 * (us[i] + us[i + 1]))


def _friction(record, number=float):
    """Check a record's friction_mu and friction_f0 as a converter does; store each as number."""
    _floats(record, "friction_mu", "friction_f0", number=number)
    if not 0 <= record.friction_mu < 1:
        raise ValidationError(f"friction_mu must be in [0, 1), got {record.friction_mu}")
    _at_least("friction_f0", record.friction_f0, 0)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Rows of a displacement sweep: its three measured columns and the converter's friction;
    the band and spring - counter are derived read-only on first read."""

    u: np.ndarray
    spring_force: np.ndarray
    counter_force: np.ndarray
    friction_mu: np.float64 = 0.0   # fraction of counter force lost to friction
    friction_f0: np.float64 = 0.0   # N, constant friction offset

    def __post_init__(self):
        u = _columns(self, ("u", "spring_force", "counter_force"), "sweep columns", 1)[0]
        if not np.all(np.isfinite(u)):
            raise ValidationError("sweep displacements must be finite")
        if np.any(u[1:] <= u[:-1]):
            raise ValidationError("sweep displacements must be strictly increasing")
        _friction(self, np.float64)   # a numpy float: each field is a buffer

    @cached_property
    def friction_band(self) -> np.ndarray:   # N, by the converter's formula
        return _frozen(FloatingConverter.friction_band(self, self.counter_force))[0]

    @cached_property
    def op_force_ideal(self) -> np.ndarray:
        return _frozen(self.spring_force - self.counter_force)[0]

    # an overflowing ratio is reported by the bound check, not as a warning
    @np.errstate(over="ignore", invalid="ignore")
    def summary(self) -> "SweepSummary":
        """Scalar summary: plateau force and both force-ratio normalizations.

        Raises NumericalError when a value, or a force column, is not finite
        or exceeds MAX_SUMMARY_VALUE in magnitude, as when a friction band
        dwarfs the spring force.
        """
        spring = np.abs(self.spring_force)
        peak = float(np.max(spring))
        op_const = float(np.max(np.abs(self.op_force_ideal)))
        banded = np.abs(self.op_force_ideal) + self.friction_band   # the grasp's effort
        ratio_peak = float(np.max(banded) / peak) if peak > 0 else 0.0
        nonzero = spring > 1e-12 * max(peak, 1.0)
        ratio_point = float(np.max(banded[nonzero] / spring[nonzero], initial=0.0))
        if not all(abs(v) <= MAX_SUMMARY_VALUE for v in (op_const, ratio_peak, ratio_point)):
            raise NumericalError(
                f"sweep summary is not finite or exceeds {MAX_SUMMARY_VALUE:g}: "
                f"op_force_const={op_const:g} N "
                f"ratio_peak={ratio_peak:g} ratio_point={ratio_point:g}"
            )
        counter, band = float(np.max(np.abs(self.counter_force))), float(np.max(banded))
        if not all(v <= MAX_SUMMARY_VALUE for v in (peak, counter, band)):
            raise NumericalError(f"sweep forces are not finite or exceed {MAX_SUMMARY_VALUE:g}: "
                                 f"spring={peak:g} N counter={counter:g} N banded={band:g} N")
        return SweepSummary(op_const, ratio_peak, ratio_point)


class SweepSummary(NamedTuple):
    """Plateau operating force plus peak- and pointwise-normalized ratios.

    ``ratio_peak`` divides the worst banded operating force by the peak
    spring force over the sweep; ``ratio_point`` divides row by row and
    takes the worst quotient. The two normalizations disagree whenever the
    sweep includes rows with small spring force.
    """

    op_force_const: float
    ratio_peak: float
    ratio_point: float


class EnergyLedger(NamedTuple):
    """Energy moved while the balance point travelled u0 -> u1 (joules)."""

    delta_spring: float
    delta_counter: float
    operator_work: float
