"""Force-displacement laws for elastic elements.

A characteristic maps extension x (m) to tensile force F (N) on the
closed domain [0, x_max]. Supported laws:

    linear      F = k * x
    constant    F = f0
    power_law   F = c / (x + d)**p   (magnet-like decaying attraction)
    tabulated   piecewise-linear through (x, F) knots
    negated     F = -inner(x)        (the exact inverse characteristic)

Pairing a characteristic with its negation makes the net force vanish at
every displacement; that cancellation is what lets the balance point of a
series arrangement be moved with (ideally) zero external force.

Each law is the one home of its force, its stored energy (the exact
integral of force) and, where the law is monotone, its inverse, all in
closed form:

    linear      E = k*x**2/2                  x = F/k
    constant    E = f0*x                      x = 0 at F = f0
    power_law   E = c*d**(1-p)/(p-1) * (1 - (1 + x/d)**(1-p)),
                or c*ln(1 + x/d) at p = 1     x = d*((F(0)/F)**(1/p) - 1)
    tabulated   cumulative trapezoid over the knots (exact for the
                piecewise-linear law)         x by linear interpolation
    negated     E = -inner(x)                 x = inner at -F

Units are SI throughout: metres, newtons, joules. Instances are immutable
and every operation is pure, so they may be evaluated from concurrent
callers without coordination.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, UnreachableForce, ValidationError

LINEAR = "linear"
CONSTANT = "constant"
POWER_LAW = "power_law"
TABULATED = "tabulated"
NEGATED = "negated"


def clip_domain(x, x_max: float):
    """Validate x against [0, x_max], clipping fp endpoint spill.

    Endpoints that round-trip through a division (x = R * (x_max / R)) can
    land an ulp outside the domain; a 1e-12 relative slack absorbs that
    without admitting genuinely out-of-range queries.

    Returns (clipped value, was_scalar). A Python ``float`` or ``int``
    (``np.float64`` subclasses ``float``) takes the scalar path: the same
    checks, messages and clip in plain float arithmetic, returning a
    Python float, so single-point callers skip numpy's per-call array
    overhead. Everything else, 0-d arrays and other numpy scalars
    included, goes through numpy and returns a clipped ndarray, or an
    ``np.float64`` for 0-d input; evaluators therefore detect the scalar
    path with ``type(value) is float``. Scalar results equal the 0-d array
    results bit for bit. Never route a scalar through a 1-element array
    to share the array code: numpy's vectorized ``power`` loop differs
    from its scalar one in the last ulp on some inputs.
    """
    slack = 1e-12 * max(abs(x_max), 1.0)
    if isinstance(x, (float, int)):
        v = float(x)
        if not math.isfinite(v):
            raise DomainError("displacement must be finite")
        if v < -slack or v > x_max + slack:
            raise DomainError(f"value range [{v:g}, {v:g}] outside domain [0, {x_max:g}]")
        return min(max(v, 0.0), x_max), True
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("displacement must be finite")
    if np.any(arr < -slack) or np.any(arr > x_max + slack):
        lo, hi = float(np.min(arr)), float(np.max(arr))
        raise DomainError(
            f"value range [{lo:g}, {hi:g}] outside domain [0, {x_max:g}]"
        )
    return np.clip(arr, 0.0, x_max), arr.ndim == 0


def interp_scalar(x: float, xp: list, fp: list) -> float:
    """``np.interp(x, xp, fp)`` for one float over increasing Python lists.

    Same segment choice, end clamping and formula as numpy's C loop, so
    the result is bit-identical.
    """
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j >= len(xp) - 1:
        return fp[-1]
    if xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[j]


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ForceCharacteristic:
    """A force-vs-displacement law on the closed domain [0, x_max].

    Build instances through the factory classmethods (:meth:`linear`,
    :meth:`constant`, :meth:`power_law`, :meth:`tabulated`,
    :meth:`negated`) rather than the raw constructor.
    """

    kind: str
    x_max: float
    k: float = 0.0        # N/m, linear stiffness
    f0: float = 0.0       # N, constant force
    c: float = 0.0        # N*m^p, power-law numerator
    d: float = 0.0        # m, power-law offset (keeps the pole off-domain)
    p: float = 1.0        # power-law exponent
    points: tuple[tuple[float, float], ...] = ()
    inner: "ForceCharacteristic | None" = None

    def __post_init__(self):
        _finite("x_max", self.x_max)
        if self.x_max <= 0:
            raise ValidationError(f"x_max must be > 0, got {self.x_max}")
        if self.kind == LINEAR:
            _finite("k", self.k)
            if self.k <= 0:
                raise ValidationError(f"linear stiffness k must be > 0, got {self.k}")
        elif self.kind == CONSTANT:
            _finite("f0", self.f0)
            if self.f0 < 0:
                raise ValidationError(f"constant force f0 must be >= 0, got {self.f0}")
        elif self.kind == POWER_LAW:
            for name in ("c", "d", "p"):
                _finite(name, getattr(self, name))
            if self.c < 0:
                raise ValidationError(f"power-law c must be >= 0, got {self.c}")
            if self.d <= 0:
                raise ValidationError(f"power-law d must be > 0, got {self.d}")
            if self.p < 1:
                raise ValidationError(f"power-law p must be >= 1, got {self.p}")
        elif self.kind == TABULATED:
            self._validate_points()
        elif self.kind == NEGATED:
            if not isinstance(self.inner, ForceCharacteristic):
                raise ValidationError("negated characteristic requires an inner one")
        else:
            raise ValidationError(f"unknown characteristic kind {self.kind!r}")

    def _validate_points(self):
        pts = self.points
        if len(pts) < 2:
            raise ValidationError("tabulated characteristic needs at least 2 points")
        xs = [x for x, _ in pts]
        if xs[0] != 0.0:
            raise ValidationError(f"first tabulated x must be 0, got {xs[0]}")
        for i in range(1, len(xs)):
            if xs[i] <= xs[i - 1]:
                raise ValidationError(
                    f"tabulated x values must be strictly increasing, "
                    f"got {xs[i - 1]} then {xs[i]}"
                )
        for x, f in pts:
            _finite("tabulated x", x)
            _finite("tabulated F", f)
        if self.x_max > xs[-1] * (1 + 1e-12):
            raise ValidationError(
                f"x_max {self.x_max} exceeds last tabulated x {xs[-1]}"
            )

    # -- factories ---------------------------------------------------------

    @classmethod
    def linear(cls, k: float, x_max: float) -> "ForceCharacteristic":
        """Linear spring, F = k*x."""
        return cls(kind=LINEAR, x_max=float(x_max), k=float(k))

    @classmethod
    def constant(cls, f0: float, x_max: float) -> "ForceCharacteristic":
        """Constant-force element, F = f0 at any extension."""
        return cls(kind=CONSTANT, x_max=float(x_max), f0=float(f0))

    @classmethod
    def power_law(cls, c: float, d: float, p: float, x_max: float) -> "ForceCharacteristic":
        """Decaying attraction F = c / (x + d)**p, the magnet-like stand-in."""
        return cls(kind=POWER_LAW, x_max=float(x_max), c=float(c), d=float(d), p=float(p))

    @classmethod
    def tabulated(cls, points, x_max: float | None = None) -> "ForceCharacteristic":
        """Piecewise-linear law through (x m, F N) knots; first x must be 0."""
        pts = tuple((float(x), float(f)) for x, f in points)
        if x_max is None:
            if not pts:
                raise ValidationError("tabulated characteristic needs at least 2 points")
            x_max = pts[-1][0]
        return cls(kind=TABULATED, x_max=float(x_max), points=pts)

    @classmethod
    def negated(cls, inner: "ForceCharacteristic") -> "ForceCharacteristic":
        """Exact inverse characteristic, F = -inner(x)."""
        return cls(kind=NEGATED, x_max=inner.x_max, inner=inner)

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.array([x for x, _ in self.points], dtype=float)
        fs = np.array([f for _, f in self.points], dtype=float)
        return xs, fs

    @cached_property
    def _knot_lists(self) -> tuple[list, list]:
        return [x for x, _ in self.points], [f for _, f in self.points]

    def _eval(self, xs):
        """The law at xs: a Python float (scalar path) or numpy values."""
        scalar = type(xs) is float
        if self.kind == LINEAR:
            return self.k * xs
        if self.kind == CONSTANT:
            return self.f0 if scalar else np.full_like(xs, self.f0)
        if self.kind == POWER_LAW:
            # np.float64 keeps numpy's overflow to inf on a scalar, where a
            # Python float ** would raise OverflowError
            base = np.float64(xs + self.d) if scalar else xs + self.d
            return self.c / base**self.p
        if self.kind == TABULATED:
            if scalar:
                return interp_scalar(xs, *self._knot_lists)
            kx, kf = self._knots
            return np.interp(xs, kx, kf)
        return -self.inner._eval(xs)

    def force_at(self, x):
        """Force (N) at extension x (m); accepts a scalar or an ndarray.

        Raises DomainError outside [0, x_max].
        """
        xs, scalar = clip_domain(x, self.x_max)
        vals = self._eval(xs)
        return float(vals) if scalar else vals

    @cached_property
    def _knot_energy(self) -> np.ndarray:
        kx, kf = self._knots
        return np.concatenate(([0.0], np.cumsum(0.5 * (kf[1:] + kf[:-1]) * np.diff(kx))))

    def _energy(self, xs):
        """The integral of the law from 0 to xs, on the same paths as _eval."""
        scalar = type(xs) is float
        if self.kind == LINEAR:
            return 0.5 * self.k * xs * xs
        if self.kind == CONSTANT:
            return self.f0 * xs
        if self.kind == POWER_LAW:
            # log1p/expm1 keep full precision near x = 0
            t = np.log1p(xs / self.d)
            if self.p == 1.0:
                return self.c * t
            # np.float64 overflows to inf where a Python float ** would raise
            scale = self.c * np.float64(self.d) ** (1.0 - self.p) / (self.p - 1.0)
            return scale * -np.expm1((1.0 - self.p) * t)
        if self.kind == TABULATED:
            kx, kf = self._knots
            if scalar:
                i = min(max(bisect_right(self._knot_lists[0], xs) - 1, 0), kx.size - 2)
            else:
                i = np.clip(np.searchsorted(kx, xs, side="right") - 1, 0, kx.size - 2)
            return self._knot_energy[i] + 0.5 * (kf[i] + self._eval(xs)) * (xs - kx[i])
        return -self.inner._energy(xs)

    def stored_energy(self, x):
        """Elastic energy (J) stored at extension x, the integral of force.

        Exact closed form for every law; accepts a scalar or an ndarray
        like :meth:`force_at`. Raises DomainError outside [0, x_max].
        """
        xs, scalar = clip_domain(x, self.x_max)
        vals = self._energy(xs)
        return float(vals) if scalar else vals

    def extension_at(self, force: float) -> float:
        """Extension (m) at which the law delivers ``force`` (N).

        The inverse of :meth:`force_at` for a monotone law. Raises
        UnreachableForce when no extension delivers the force, and
        ValidationError for a tabulated law that is not monotone.
        """
        force = float(force)
        if self.kind == LINEAR:
            # the same 1e-12 endpoint slack the grasp planner grants
            if not 0.0 <= force <= self.k * self.x_max * (1 + 1e-12):
                raise UnreachableForce(f"{force:g} N outside characteristic range")
            return force / self.k
        if self.kind == CONSTANT:
            if force != self.f0:
                raise UnreachableForce(f"{force:g} N outside characteristic range")
            return 0.0
        if self.kind == POWER_LAW:
            f_end, f_start = self.force_at(self.x_max), self.force_at(0.0)
            if not f_end <= force <= f_start:
                raise UnreachableForce(f"{force:g} N outside characteristic range")
            if force == f_start:
                return 0.0
            if force == f_end:
                return self.x_max
            return min(self.d * math.expm1(math.log(f_start / force) / self.p), self.x_max)
        if self.kind == TABULATED:
            xs, fs = self._knot_lists
            pairs = list(zip(fs, fs[1:]))
            if not (all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)):
                raise ValidationError("tabulated characteristic must be monotone to invert")
            for i, (a, b) in enumerate(pairs):
                if min(a, b) <= force <= max(a, b):
                    if a == b:
                        return xs[i]
                    return xs[i] + (force - a) / (b - a) * (xs[i + 1] - xs[i])
            raise UnreachableForce(f"{force:g} N outside tabulated range")
        return self.inner.extension_at(-force)

    def invert(self) -> "ForceCharacteristic":
        """The exact inverse characteristic: force_at flips sign pointwise."""
        return ForceCharacteristic.negated(self)
