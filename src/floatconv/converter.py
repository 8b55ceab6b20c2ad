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

from dataclasses import dataclass, fields

import numpy as np

from .characteristics import ForceCharacteristic, _finite, clip_domain
from .errors import (
    DomainError,
    IndeterminateEquilibrium,
    NoRootError,
    ValidationError,
)
from .pulley import CounterElement, PulleyProfile

_trapz = getattr(np, "trapezoid", None) or np.trapz

# Operating force treated as constant / matching the applied force when
# within this band (N).
EQUILIBRIUM_FORCE_TOL = 1e-9
# Bisection interval tolerance on the balance-point displacement (m).
EQUILIBRIUM_U_TOL = 1e-9

OPERATOR_WORK_PANELS = 1024
_EQUILIBRIUM_SCAN = 1024


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
        _finite("gap_x", self.gap_x)
        _finite("friction_f0", self.friction_f0)
        if self.gap_x < 0:
            raise ValidationError(f"gap_x must be >= 0, got {self.gap_x}")
        if not 0 <= self.friction_mu < 1:
            raise ValidationError(f"friction_mu must be in [0, 1), got {self.friction_mu}")
        if self.friction_f0 < 0:
            raise ValidationError(f"friction_f0 must be >= 0, got {self.friction_f0}")

    @property
    def u_max(self) -> float:
        """Largest balance-point displacement both elements can follow."""
        return min(
            self.left.x_max,
            self.gap_x + self.profile.circular_radius * self.profile.theta_max,
        )

    # -- forces ------------------------------------------------------------

    def force_components(self, u):
        """(spring force, counter force) at balance displacement u.

        The counter cable is slack for u < gap_x (the jaw has not met the
        object yet) and contributes zero force there.
        """
        us, scalar = clip_domain(u, self.u_max)
        spring = self.left.force_at(us)
        R = self.profile.circular_radius
        if type(us) is float:
            counter = self.profile.realized_force(self.counter, max(us - self.gap_x, 0.0) / R)
            return spring, (0.0 if us < self.gap_x else counter)
        theta = np.maximum(us - self.gap_x, 0.0) / R
        counter = self.profile.realized_force(self.counter, theta)
        counter = np.where(us >= self.gap_x, counter, 0.0)
        if scalar:
            return float(spring), float(counter)
        return spring, counter

    def operating_force(self, u):
        """External force (N) to hold the balance point at displacement u."""
        spring, counter = self.force_components(u)
        return spring - counter

    def friction_band(self, u):
        """Half-width of the friction envelope around the ideal force."""
        _, counter = self.force_components(u)
        return self.friction_mu * np.abs(counter) + self.friction_f0

    # -- sweeps ------------------------------------------------------------

    def sweep(self, u_min: float, u_max: float, n: int) -> "SweepTable":
        """Uniform displacement sweep with ideal and friction-banded forces."""
        if n < 2:
            raise ValidationError(f"sweep needs at least 2 rows, got {n}")
        if not 0 <= u_min < u_max:
            raise ValidationError(f"need 0 <= u_min < u_max, got [{u_min}, {u_max}]")
        if u_max > self.u_max * (1 + 1e-12):
            raise DomainError(
                f"sweep end {u_max:g} m exceeds converter range {self.u_max:g} m"
            )
        us = np.linspace(u_min, u_max, n)
        spring, counter = self.force_components(us)
        ideal = spring - counter
        band = self.friction_mu * np.abs(counter) + self.friction_f0
        return SweepTable(us, spring, counter, ideal, ideal + band, ideal - band)

    # -- energy ------------------------------------------------------------

    def energy_ledger(self, u0: float, u1: float) -> "EnergyLedger":
        """Energy bookkeeping for moving the balance point u0 -> u1.

        delta_spring is the change of energy stored in the working element,
        delta_counter the (negative of the) energy the counter element
        releases, operator_work the integral of the operating force. The
        three close: operator_work = delta_spring + delta_counter.
        """
        clip_domain(u0, self.u_max)
        clip_domain(u1, self.u_max)
        if u0 == u1:
            return EnergyLedger(0.0, 0.0, 0.0)
        delta_spring = self.left.stored_energy(u1) - self.left.stored_energy(u0)

        R = self.profile.circular_radius
        theta0 = max(u0 - self.gap_x, 0.0) / R
        theta1 = max(u1 - self.gap_x, 0.0) / R
        s0 = self.profile.payout(theta0)
        s1 = self.profile.payout(theta1)
        if self.counter.kind == "weight":
            released = self.counter.load * (s1 - s0)
        else:
            released = self.counter.t0 * (s1 - s0) + 0.5 * self.counter.k2 * (
                s1 * s1 - s0 * s0
            )
        delta_counter = -released

        us = np.linspace(u0, u1, OPERATOR_WORK_PANELS + 1)
        if min(u0, u1) < self.gap_x < max(u0, u1):
            # keep the slack-to-engaged kink on the grid so the trapezoid
            # rule sees the slope break
            us = np.sort(np.append(us, self.gap_x))
            if u1 < u0:
                us = us[::-1]
        work = float(_trapz(self.operating_force(us), us))
        return EnergyLedger(delta_spring, delta_counter, work)

    # -- equilibrium -------------------------------------------------------

    def equilibrium_displacement(self, applied: float) -> float:
        """Balance-point displacement where the operating force equals ``applied``.

        Searches the engaged region [gap_x, u_max] by scan plus bisection
        (residuals may have kinks at truncation boundaries, so derivative
        methods are avoided). A perfectly balanced converter, where the
        operating force is constant and equal to the applied force, raises
        IndeterminateEquilibrium: every displacement is an equilibrium.
        """
        lo, hi = self.gap_x, self.u_max
        if not lo < hi:
            raise ValidationError("converter has no engaged displacement range")
        us = np.linspace(lo, hi, _EQUILIBRIUM_SCAN + 1)
        resid = self.operating_force(us) - applied
        if float(np.max(np.abs(resid))) <= EQUILIBRIUM_FORCE_TOL:
            raise IndeterminateEquilibrium(
                f"operating force equals {applied:g} N everywhere; "
                "every displacement is an equilibrium"
            )
        if float(np.max(resid) - np.min(resid)) <= EQUILIBRIUM_FORCE_TOL:
            raise NoRootError(
                f"operating force is constant at {float(np.mean(resid)) + applied:g} N "
                f"and never crosses {applied:g} N"
            )
        sign_change = np.nonzero(resid[:-1] * resid[1:] <= 0)[0]
        if sign_change.size == 0:
            raise NoRootError(f"operating force never crosses {applied:g} N")
        i = int(sign_change[0])
        a, b = float(us[i]), float(us[i + 1])
        fa = float(resid[i])
        if fa == 0.0:
            return a
        while b - a > EQUILIBRIUM_U_TOL:
            mid = 0.5 * (a + b)
            fm = float(self.operating_force(mid)) - applied
            if fm == 0.0:
                return mid
            if fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)


@dataclass(frozen=True)
class SweepTable:
    """Rows of a displacement sweep; the +/- columns add the friction band."""

    u: np.ndarray
    spring_force: np.ndarray
    counter_force: np.ndarray
    op_force_ideal: np.ndarray
    op_force_plus: np.ndarray
    op_force_minus: np.ndarray

    def __post_init__(self):
        n = np.shape(self.u)
        for field in fields(self):
            arr = np.array(getattr(self, field.name), dtype=float)
            if arr.shape != n:
                raise ValidationError("sweep columns must share one length")
            arr.flags.writeable = False
            object.__setattr__(self, field.name, arr)
        if np.any(np.diff(self.u) <= 0):
            raise ValidationError("sweep displacements must be strictly increasing")

    def summary(self) -> "SweepSummary":
        """Scalar summary: plateau force and both force-ratio normalizations."""
        peak = float(np.max(np.abs(self.spring_force)))
        op_const = float(np.max(np.abs(self.op_force_ideal)))
        banded = np.maximum(np.abs(self.op_force_plus), np.abs(self.op_force_minus))
        ratio_peak = float(np.max(banded) / peak) if peak > 0 else 0.0
        nonzero = np.abs(self.spring_force) > 1e-12 * max(peak, 1.0)
        if np.any(nonzero):
            ratio_point = float(np.max(banded[nonzero] / np.abs(self.spring_force[nonzero])))
        else:
            ratio_point = 0.0
        return SweepSummary(op_const, ratio_peak, ratio_point)


@dataclass(frozen=True)
class SweepSummary:
    """Plateau operating force plus peak- and pointwise-normalized ratios.

    ``ratio_peak`` divides the worst banded operating force by the peak
    spring force over the sweep; ``ratio_point`` divides row by row and
    takes the worst quotient. The two normalizations disagree whenever the
    sweep includes rows with small spring force.
    """

    op_force_const: float
    ratio_peak: float
    ratio_point: float


@dataclass(frozen=True)
class EnergyLedger:
    """Energy moved while the balance point travelled u0 -> u1 (joules)."""

    delta_spring: float
    delta_counter: float
    operator_work: float
