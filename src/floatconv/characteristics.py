"""Force-displacement laws for elastic elements.

A characteristic maps extension x (m) to tensile force F (N) on the
closed domain [0, x_max]. Supported laws:

    linear      F = k * x
    constant    F = f0
    power_law   F = c / (x + d)**p   (magnet-like decaying attraction)
    tabulated   piecewise-linear through (x, F) knots

The inverse characteristic, F = -law(x), is not a law here: the
non-circular pulley and its counter realize it (see pulley.py). Pairing a
law with it makes the net force vanish at every displacement; that
cancellation is what lets the balance point of a series arrangement be
moved with (ideally) zero external force.

Each law is the one home of its force, its stored energy (the exact
integral of force) and, where the law is monotone, its inverse function
x(F), all in closed form:

    linear      E = k*x**2/2                  x = F/k
    constant    E = f0*x                      x = 0 at F = f0
    power_law   E = c*d**(1-p)/(p-1) * (1 - (1 + x/d)**(1-p)),
                or c*ln(1 + x/d) at p = 1     x = d*((F(0)/F)**(1/p) - 1)
    tabulated   cumulative trapezoid over the knots (exact for the
                piecewise-linear law)         x by linear interpolation

Units are SI throughout: metres, newtons, joules. Instances are immutable
and every operation is pure, so they may be evaluated from concurrent
callers without coordination.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, UnreachableForce, ValidationError

LINEAR = "linear"
CONSTANT = "constant"
POWER_LAW = "power_law"
TABULATED = "tabulated"

# Largest law domain or stage travel (m). It keeps printed lengths short, and with
# the config's 1e-6 m circular-radius floor every angle at or below 1e12 rad.
MAX_LENGTH = 1e6


def _slack(x_max: float) -> float:
    """How far past either end of [0, x_max] clip_domain accepts a value and clips it."""
    return 1e-12 * max(abs(x_max), 1.0)


def clip_domain(x, x_max: float):
    """Validate x against [0, x_max], clipping fp endpoint spill.

    Endpoints that round-trip through a division (x = R * (x_max / R)) can
    land an ulp outside the domain; a 1e-12 relative slack absorbs that
    without admitting genuinely out-of-range queries.

    Returns x as _reals reads it, a real scalar as a Python float, which every
    evaluator computes in plain float arithmetic, and an array uncopied when
    already inside the domain: no evaluator writes into the value it is given.
    """
    slack = _slack(x_max)
    x = _reals("displacement", x)
    if type(x) is float:
        lo = hi = x
    else:
        # a NaN or an inf shows in these
        lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("displacement must be finite")
    if lo < -slack or hi > x_max + slack:
        raise DomainError(f"value range [{lo:g}, {hi:g}] outside domain [0, {x_max:g}]")
    if lo < 0.0 or hi > x_max:
        return min(max(x, 0.0), x_max) if type(x) is float else np.clip(x, 0.0, x_max)
    return x


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples y over x, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """A sampled curve y(x), linear between knots: its value and running integral.

    ``xs`` must be strictly increasing. Every method takes a Python float
    (plain float arithmetic over cached lists) or numpy values, and the two
    paths agree bit for bit.
    """

    xs: np.ndarray
    ys: np.ndarray

    @cached_property
    def cumulative(self) -> np.ndarray:
        """The integral from xs[0] up to each knot."""
        return cumulative_trapezoid(self.ys, self.xs)

    @cached_property
    def _lists(self) -> tuple[list, list, list, list]:
        """The knots, the running integral and each segment's slope, as float lists."""
        with np.errstate(over="ignore"):   # inf, as the float arithmetic gives it
            slopes = np.diff(self.ys) / np.diff(self.xs)
        return self.xs.tolist(), self.ys.tolist(), self.cumulative.tolist(), slopes.tolist()

    def at(self, x):
        """y at x, clamped to the end values outside the knots: np.interp."""
        if type(x) is not float:
            return np.interp(x, self.xs, self.ys)
        # numpy's segment choice, end clamping and formula, so the result
        # is bit-identical
        xp, fp, _, slopes = self._lists
        j = bisect_right(xp, x) - 1
        if j < 0:
            return fp[0]
        if j >= len(xp) - 1:
            return fp[-1]
        if xp[j] == x:
            return fp[j]
        return slopes[j] * (x - xp[j]) + fp[j]

    def integral(self, x):
        """The integral from xs[0] to x."""
        return self.at_and_integral(x)[1]

    def at_and_integral(self, x) -> tuple:
        """(y at x, the integral from xs[0] to x): the integral is the knots'
        running sum plus the partial trapezoid, exact for the piecewise-linear curve."""
        y = self.at(x)
        if type(x) is float or np.ndim(x) == 0:
            xp, fp, cum, _ = self._lists
            i = min(max(bisect_right(xp, x) - 1, 0), len(xp) - 2)
            return y, cum[i] + 0.5 * (fp[i] + y) * (x - xp[i])
        # the same sum in two buffers (np.take's mode "raise" would copy its out)
        i = np.searchsorted(self.xs[1:-1], x, side="right")   # the end panels run past the knots
        part, run = 0.5 * (self.ys[i] + y), self.xs[i]
        part *= np.subtract(x, run, out=run)
        return y, np.add(np.take(self.cumulative, i, out=run, mode="clip"), part, out=run)


def _shown(value, text=repr, size=80) -> str:
    """text(value) cut to ``size`` UTF-8 bytes (a lone surrogate escaped, a character
    the cut splits dropped), or the type's name of a value that does not print."""
    try:
        return text(value).encode(errors="backslashreplace")[:size].decode(errors="ignore")
    except ValueError:   # Python prints no int of more than 4,300 digits
        return type(value).__name__


def _real(name: str, value) -> float:
    """The one reader of a real number: value as a Python float, an int past the
    float range as the infinity of its sign. ValidationError for a bool or a non-real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reals(name: str, x):
    """The one reader of an outside number or array: a real scalar (a Python or numpy
    number, a 0-d array) as a Python float, read by _real and never through a 1-element
    array, else a float ndarray, uncopied when it is one. ValidationError for a bool,
    text, None, a complex, an object dtype or ragged nesting."""
    if isinstance(x, float):
        return float(x)
    if isinstance(x, numbers.Number):
        return _real(name, x)
    try:
        arr = np.asarray(x)
        if arr.dtype.kind not in "iuf":   # a bool, text, complex or object dtype
            raise ValueError
    except ValueError:   # those dtypes, and ragged nesting, which np.asarray refuses
        raise ValidationError(f"{name} must be a real number, got {_shown(x)}") from None
    return float(arr) if arr.ndim == 0 else arr.astype(float, copy=False)


def _finite(name: str, value) -> float:
    """_real, and ValidationError unless the float it reads is finite."""
    number = _real(name, value)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number}")
    return number


def _floats(record, *names, number=float):
    """Check each named field of a frozen record with _finite and store it as ``number``."""
    for name in names:
        object.__setattr__(record, name, number(_finite(name, getattr(record, name))))


def _at_least(label: str, value, bound: float, strict: bool = False):
    """Raise ValidationError unless value >= bound (> bound when strict); NaN fails."""
    if not (value > bound if strict else value >= bound):
        raise ValidationError(f"{label} must be {'>' if strict else '>='} {bound:g}, got {value}")


def _length(label: str, value):
    """Raise ValidationError unless value <= MAX_LENGTH; NaN fails."""
    if not value <= MAX_LENGTH:
        raise ValidationError(f"{label} must be <= {MAX_LENGTH:g}, got {value}")


def _count(label: str, n, lo: int, hi: int):
    """Raise ValidationError unless n is an integer, not a bool, in [lo, hi]; return n."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"{label} must be an integer")
    if not lo <= n <= hi:
        raise ValidationError(f"{label} must be in [{lo}, {hi}], got {_shown(n, str)}")
    return n


def _flag(label: str, value):
    """Raise ValidationError unless value is a bool or a numpy bool; return value."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{label} must be true or false")
    return value


def _frozen(*arrays) -> tuple:
    """Mark arrays a producer just built read-only, so a record keeps them uncopied."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _columns(record, names, label: str, rows: int) -> list:
    """Store the named fields of a frozen record read-only, each read by _reals: 1-d, one
    length and at least ``rows`` long. A read-only float64 array that owns its memory, or
    the float copy _reals makes of another dtype, is kept; anything else is copied."""
    columns = []
    for name in names:
        column = _reals(name, value := getattr(record, name))
        if type(column) is float or not column.flags.owndata or column.flags.writeable and (
                column is value or not isinstance(value, np.ndarray)):
            column = np.array(column)
        column.flags.writeable = False
        object.__setattr__(record, name, column)
        columns.append(column)
    if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
        raise ValidationError(f"{label} must be numeric, 1-d and share one length")
    if columns[0].size < rows:
        raise ValidationError(f"{label} need {rows} or more rows, got {columns[0].size}")
    return columns


@dataclass(frozen=True)
class ForceCharacteristic:
    """A force-vs-displacement law on the closed domain [0, x_max].

    Build instances through the factory classmethods (:meth:`linear`,
    :meth:`constant`, :meth:`power_law`, :meth:`tabulated`) or the raw
    constructor: both check and store each number the law reads as a float.
    """

    kind: str
    x_max: float
    k: float = 0.0        # N/m, linear stiffness
    f0: float = 0.0       # N, constant force
    c: float = 0.0        # N*m^p, power-law numerator
    d: float = 0.0        # m, power-law offset (keeps the pole off-domain)
    p: float = 1.0        # power-law exponent
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind == TABULATED:
            self._knots()
        _floats(self, "x_max", "k", "f0", "c", "d", "p")
        _at_least("x_max", self.x_max, 0, strict=True)
        _length("x_max", self.x_max)
        if self.kind == LINEAR:
            _at_least("linear stiffness k", self.k, 0, strict=True)
        elif self.kind == CONSTANT:
            _at_least("constant force f0", self.f0, 0)
        elif self.kind == POWER_LAW:
            _at_least("power-law c", self.c, 0)
            _at_least("power-law d", self.d, 0, strict=True)
            _at_least("power-law p", self.p, 1)
        elif self.kind == TABULATED:
            xs = [x for x, _ in self.points]
            if xs[0] != 0.0:
                raise ValidationError(f"first tabulated x must be 0, got {xs[0]}")
            for a, b in zip(xs, xs[1:]):
                if b <= a:
                    raise ValidationError(
                        f"tabulated x values must be strictly increasing, got {a} then {b}"
                    )
            if self.x_max > xs[-1] + _slack(xs[-1]):
                raise ValidationError(f"x_max {self.x_max} exceeds last tabulated x {xs[-1]}")
        else:
            raise ValidationError(f"unknown characteristic kind {_shown(self.kind)}")

    def _knots(self):
        """Store the knots as float pairs, and an x_max of None as the last knot's x."""
        try:
            pts = tuple((_finite("tabulated x", x), _finite("tabulated F", f))
                        for x, f in self.points)
        except (TypeError, ValueError):   # a knot that is no pair, or no sequence of knots
            raise ValidationError("tabulated points must be (x, F) pairs") from None
        if len(pts) < 2:
            raise ValidationError("tabulated characteristic needs at least 2 points")
        object.__setattr__(self, "points", pts)
        if self.x_max is None:
            object.__setattr__(self, "x_max", pts[-1][0])

    # -- factories ---------------------------------------------------------

    @classmethod
    def linear(cls, k: float, x_max: float) -> "ForceCharacteristic":
        """Linear spring, F = k*x."""
        return cls(kind=LINEAR, x_max=x_max, k=k)

    @classmethod
    def constant(cls, f0: float, x_max: float) -> "ForceCharacteristic":
        """Constant-force element, F = f0 at any extension."""
        return cls(kind=CONSTANT, x_max=x_max, f0=f0)

    @classmethod
    def power_law(cls, c: float, d: float, p: float, x_max: float) -> "ForceCharacteristic":
        """Decaying attraction F = c / (x + d)**p, the magnet-like stand-in."""
        return cls(kind=POWER_LAW, x_max=x_max, c=c, d=d, p=p)

    @classmethod
    def tabulated(cls, points, x_max: float | None = None) -> "ForceCharacteristic":
        """Piecewise-linear law through (x m, F N) knots from x = 0, up to x_max or the last x."""
        return cls(kind=TABULATED, x_max=x_max, points=points)

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _curve(self) -> PiecewiseLinear:
        """A tabulated law's knots as a curve."""
        return PiecewiseLinear(*map(np.array, zip(*self.points)))

    def _eval(self, xs):
        """The law at xs: a Python float for a float, else numpy values."""
        if self.kind == LINEAR:
            return self.k * xs
        if self.kind == CONSTANT:
            return self.f0 if type(xs) is float else np.full_like(xs, self.f0)
        if self.kind == POWER_LAW:
            # np.float64 overflows a float to inf, where a Python float ** would
            # raise OverflowError, and hands a float64 array back as itself
            f = self.c / np.float64(xs + self.d) ** self.p
            return float(f) if type(xs) is float else f
        return self._curve.at(xs)

    def force_at(self, x):
        """Force (N) at extension x (m): a float for a real scalar, else an ndarray.

        Raises DomainError outside [0, x_max].
        """
        return self._eval(clip_domain(x, self.x_max))

    def _energy(self, xs):
        """The integral of the law from 0 to xs, on the same paths as _eval."""
        if self.kind == LINEAR:
            return 0.5 * self.k * xs * xs
        if self.kind == CONSTANT:
            return self.f0 * xs
        if self.kind == POWER_LAW:
            # log1p/expm1 keep full precision near x = 0
            t = np.log1p(xs / self.d)
            if self.p == 1.0:
                e = self.c * t
            else:
                # np.float64 overflows to inf where a Python float ** would raise
                scale = self.c * np.float64(self.d) ** (1.0 - self.p) / (self.p - 1.0)
                e = scale * -np.expm1((1.0 - self.p) * t)
            return float(e) if type(xs) is float else e
        return self._curve.integral(xs)

    def stored_energy(self, x):
        """Elastic energy (J) stored at extension x, the integral of force.

        Exact closed form for every law; accepts a scalar or an ndarray
        like :meth:`force_at`. Raises DomainError outside [0, x_max].
        """
        return self._energy(clip_domain(x, self.x_max))

    def extension_at(self, force: float) -> float:
        """Extension (m) at which the law delivers ``force`` (N).

        The inverse of :meth:`force_at` for a monotone law. Raises
        UnreachableForce when no extension delivers the force, and
        ValidationError for a tabulated law that is not monotone.
        """
        force = _real("force", force)
        if self.kind == LINEAR:
            x = force / self.k
            if not 0.0 <= x <= self.x_max + _slack(self.x_max):
                raise UnreachableForce(f"{force:g} N outside characteristic range")
            return x
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
        # tabulated: only [0, x_max] is the law's domain, so end the knots there
        xs, fs = map(list, zip(*self.points))
        n = bisect_left(xs, self.x_max)
        xs = xs[:n] + [self.x_max]
        fs = fs[:n] + [self._eval(self.x_max)]
        pairs = list(zip(fs, fs[1:]))
        if not (all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)):
            raise ValidationError("tabulated characteristic must be monotone to invert")
        for i, (a, b) in enumerate(pairs):
            if min(a, b) <= force <= max(a, b):
                if a == b:
                    return xs[i]
                return xs[i] + (force - a) / (b - a) * (xs[i + 1] - xs[i])
        raise UnreachableForce(f"{force:g} N outside tabulated range")
