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
# The refusal of a value that is no real number: its name and its repr, cut to 80 characters.
_NOT_REAL = "{} must be a real number, got {!r:.80}"


def clip_domain(x, x_max: float):
    """Validate x against [0, x_max], clipping fp endpoint spill.

    Endpoints that round-trip through a division (x = R * (x_max / R)) can
    land an ulp outside the domain; a 1e-12 relative slack absorbs that
    without admitting genuinely out-of-range queries.

    Returns any real scalar (a Python or numpy number, a 0-d array) as a
    Python float, which every evaluator computes in plain float arithmetic,
    and input of 1-d or more as a float ndarray, uncopied when already
    inside the domain: no evaluator writes into the value it is given. A
    bool, text, None, a complex, an object dtype or ragged nesting raises
    ValidationError; an int past the float range counts as infinite.
    A scalar never goes through a 1-element array: numpy's vectorized
    ``power`` loop differs from its scalar one in the last ulp on some inputs.
    """
    slack = 1e-12 * max(abs(x_max), 1.0)
    if isinstance(x, float):
        x = lo = hi = float(x)
    elif isinstance(x, numbers.Number):
        x = lo = hi = _real("displacement", x)
    else:
        try:
            arr = np.asarray(x)
            if arr.dtype.kind not in "iuf":   # a bool, text, complex or object dtype
                raise ValueError
        except ValueError:   # those dtypes, and ragged nesting, which np.asarray refuses
            raise ValidationError(_NOT_REAL.format("displacement", x)) from None
        if arr.ndim == 0:
            x = lo = hi = float(arr)
        else:
            x = arr.astype(float, copy=False)
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

    ``xs`` must be strictly increasing. Both methods take a Python float
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
    def _lists(self) -> tuple[list, list, list]:
        return self.xs.tolist(), self.ys.tolist(), self.cumulative.tolist()

    def at(self, x):
        """y at x, clamped to the end values outside the knots: np.interp."""
        if type(x) is not float:
            return np.interp(x, self.xs, self.ys)
        # numpy's segment choice, end clamping and formula, so the result
        # is bit-identical
        xp, fp, _ = self._lists
        j = bisect_right(xp, x) - 1
        if j < 0:
            return fp[0]
        if j >= len(xp) - 1:
            return fp[-1]
        if xp[j] == x:
            return fp[j]
        slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
        return slope * (x - xp[j]) + fp[j]

    def integral(self, x):
        """The integral from xs[0] to x: the knots' running sum plus the
        partial trapezoid, exact for the piecewise-linear curve."""
        if type(x) is float:
            xp, fp, cum = self._lists
            i = min(max(bisect_right(xp, x) - 1, 0), len(xp) - 2)
        else:
            xp, fp, cum = self.xs, self.ys, self.cumulative
            i = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
        return cum[i] + 0.5 * (fp[i] + self.at(x)) * (x - xp[i])


def _real(name: str, value) -> float:
    """The one reader of a real number: value as a Python float, an int past the
    float range as the infinity of its sign. ValidationError for a bool or a non-real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(_NOT_REAL.format(name, value))
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(name: str, value) -> float:
    """_real, and ValidationError unless the float it reads is finite."""
    number = _real(name, value)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number}")
    return number


def _floats(record, *names):
    """Check each named field of a frozen record with _finite and store the float."""
    for name in names:
        object.__setattr__(record, name, _finite(name, getattr(record, name)))


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
        raise ValidationError(f"{label} must be in [{lo}, {hi}], got {n}")
    return n


def _flag(label: str, value):
    """Raise ValidationError unless value is a bool or a numpy bool; return value."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{label} must be true or false")
    return value


def _columns(record, names, label: str, rows: int) -> list:
    """Make the named fields of a frozen record read-only float copies:
    numeric, 1-d, one length and at least ``rows`` long."""
    try:
        columns = [np.array(getattr(record, name), dtype=float) for name in names]
        if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
            raise ValueError
    except (TypeError, ValueError):   # text and ragged nesting fail the conversion
        raise ValidationError(f"{label} must be numeric, 1-d and share one length") from None
    if columns[0].size < rows:
        raise ValidationError(f"{label} need {rows} or more rows, got {columns[0].size}")
    for name, column in zip(names, columns):
        column.flags.writeable = False
        object.__setattr__(record, name, column)
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
        _floats(self, "x_max")
        _at_least("x_max", self.x_max, 0, strict=True)
        _length("x_max", self.x_max)
        if self.kind == LINEAR:
            _floats(self, "k")
            _at_least("linear stiffness k", self.k, 0, strict=True)
        elif self.kind == CONSTANT:
            _floats(self, "f0")
            _at_least("constant force f0", self.f0, 0)
        elif self.kind == POWER_LAW:
            _floats(self, "c", "d", "p")
            _at_least("power-law c", self.c, 0)
            _at_least("power-law d", self.d, 0, strict=True)
            _at_least("power-law p", self.p, 1)
        elif self.kind == TABULATED:
            xs = [x for x, _ in self.points]
            if len(xs) < 2:
                raise ValidationError("tabulated characteristic needs at least 2 points")
            if xs[0] != 0.0:
                raise ValidationError(f"first tabulated x must be 0, got {xs[0]}")
            for a, b in zip(xs, xs[1:]):
                if b <= a:
                    raise ValidationError(
                        f"tabulated x values must be strictly increasing, got {a} then {b}"
                    )
            if self.x_max > xs[-1] * (1 + 1e-12):
                raise ValidationError(f"x_max {self.x_max} exceeds last tabulated x {xs[-1]}")
        else:
            raise ValidationError(f"unknown characteristic kind {self.kind!r}")

    def _knots(self):
        """Store the knots as float pairs, and an x_max of None as the last knot's x."""
        try:
            pts = tuple((_finite("tabulated x", x), _finite("tabulated F", f))
                        for x, f in self.points)
        except (TypeError, ValueError):   # a knot that is no pair, or no sequence of knots
            raise ValidationError("tabulated points must be (x, F) pairs") from None
        if not pts:
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
        scalar = type(xs) is float
        if self.kind == LINEAR:
            return self.k * xs
        if self.kind == CONSTANT:
            return self.f0 if scalar else np.full_like(xs, self.f0)
        if self.kind == POWER_LAW:
            if scalar:
                # np.float64 keeps numpy's overflow to inf, where a Python
                # float ** would raise OverflowError
                return float(self.c / np.float64(xs + self.d) ** self.p)
            return self.c / (xs + self.d) ** self.p
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
            # a 1e-12 slack for a target rounded at the domain's end
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
        # tabulated: only [0, x_max] is the law's domain, so end the knots there
        xs, fs, _ = self._curve._lists
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
