"""Fabrication and analysis artifacts: profile SVG, profile/sweep/trace CSV.

The core works in SI units; exports use millimetres and degrees, the
workshop convention. All numbers are serialized with fixed 6-decimal
formatting and a locale-independent '.' separator, and every writer is a
pure text generator, so output is byte-for-byte deterministic and
golden-file friendly. Line endings are LF.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import _finite
from .converter import SweepTable
from .errors import ParseError, ValidationError
from .gripper import GraspTrace
from .pulley import PulleyProfile

PROFILE_CSV_HEADER = "theta_deg,r_mm"
SWEEP_CSV_HEADER = (
    "u_mm,spring_force_n,counter_force_n,op_force_ideal_n,op_force_plus_n,op_force_minus_n"
)
TRACE_CSV_HEADER = "tick,phase,jaw_mm,grip_n,actuator_n,latch"
# half an ulp of the fmt6 columns of a profile CSV: r in mm, theta in deg
CSV_RADIUS_QUANTUM = 0.5e-9                 # m
CSV_ANGLE_QUANTUM = math.radians(0.5e-6)   # rad
SVG_MARGIN_MM = 5.0     # around the curve
SVG_STROKE_PX = 1.0
# px per mm. At the top a 1 m radius is 1e9 px, a short number; at the
# bottom 1 mm is still 0.001 px, not rounded to zero by the 6 decimals.
SVG_SCALE_MIN = 1e-3
SVG_SCALE_MAX = 1e6

_F6 = "%.6f"   # the one number format of every export


def _unsigned_zero(text: str) -> str:
    """Normalize negative zero away. With fixed 6 decimals a "-0.000000"
    can only be a whole token, so one replace covers a whole document."""
    return text.replace("-0.000000", "0.000000")


def fmt6(value: float) -> str:
    """Fixed 6-decimal rendering; negative zero is normalized away."""
    return _unsigned_zero(_F6 % value)


def _fill(template: str, n: int, values) -> str:
    """``template`` repeated ``n`` times, filled from the flat ``values``
    (row by row) in one %-format: the cost is the number formatting."""
    return _unsigned_zero((template * n) % tuple(values))


def _interleave(*columns: np.ndarray) -> list[float]:
    return np.column_stack(columns).ravel().tolist()


def profile_to_csv(profile: PulleyProfile) -> str:
    values = _interleave(np.degrees(profile.thetas), profile.radii * 1000.0)
    return PROFILE_CSV_HEADER + "\n" + _fill(f"{_F6},{_F6}\n", profile.n_samples, values)


def _parse_fast(text: str) -> np.ndarray | None:
    """The fields (theta_deg, r_mm, theta_deg, ...) of a file the row loop
    accepts, with the same values; None for any other text.

    The separators in order must alternate ",\\n,\\n...,", one comma per
    row: a count would pass a 3-field row next to a 1-field one. They are
    ASCII, so the UTF-8 bytes keep their order.
    """
    header, _, body = text.partition("\n")
    if header != PROFILE_CSV_HEADER:
        return None
    body = body.removesuffix("\n")
    # surrogatepass: a lone surrogate in a str must not raise here
    raw = np.frombuffer(body.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = raw[(raw == ord(",")) | (raw == ord("\n"))].tobytes()
    rows = (len(seps) + 1) // 2
    if rows < 2 or seps != b",\n" * (rows - 1) + b",":
        return None
    cells = body.replace("\n", ",").split(",")
    try:
        return np.fromiter(map(float, cells), dtype=float, count=2 * rows)
    except ValueError:
        return None


def _parse_rows(text: str) -> np.ndarray:
    """The row loop: the reference parse, which names the first bad line
    in its ParseError."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[0] != PROFILE_CSV_HEADER:
        got = lines[0] if lines else ""
        raise ParseError(f"expected header {PROFILE_CSV_HEADER!r}, got {got!r}", line=1)
    values = []
    for i, row in enumerate(lines[1:], start=2):
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=i)
        try:
            values += [float(parts[0]), float(parts[1])]
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r}", line=i) from None
    if len(values) < 4:
        raise ParseError("profile needs at least 2 sample rows", line=len(lines))
    return np.array(values)


def read_profile_csv(text: str, circular_radius_m: float = 1.0) -> PulleyProfile:
    """Parse a profile CSV back into a PulleyProfile.

    The file format does not carry the circular-pulley radius, so force
    analysis needs it passed in; geometry-only consumers may keep the
    default.
    """
    values = _parse_fast(text)
    if values is None:
        values = _parse_rows(text)
    return PulleyProfile(
        circular_radius=circular_radius_m,
        thetas=np.radians(values[0::2]),
        radii=values[1::2] / 1000.0,
    )


def profile_to_svg(profile: PulleyProfile, scale: float = 10.0) -> str:
    """Render the polar curve as a single SVG path plus an axis marker.

    Points are (r*cos(theta), r*sin(theta)) in mm, y flipped to screen
    convention, scaled by ``scale`` px per mm, which must lie in
    [SVG_SCALE_MIN, SVG_SCALE_MAX]; the viewBox tightly bounds the curve
    plus SVG_MARGIN_MM.
    """
    sc = _finite("scale", scale)
    if not SVG_SCALE_MIN <= sc <= SVG_SCALE_MAX:
        raise ValidationError(
            f"scale must be in [{SVG_SCALE_MIN:g}, {SVG_SCALE_MAX:g}] px/mm, got {scale}"
        )
    # PulleyProfile bounds the radii, so no coordinate can overflow
    r_mm = profile.radii * 1000.0
    xs = r_mm * np.cos(profile.thetas)
    ys = -r_mm * np.sin(profile.thetas)  # screen y grows downward
    px, py = xs * sc, ys * sc

    x0 = (float(np.min(xs)) - SVG_MARGIN_MM) * sc
    y0 = (float(np.min(ys)) - SVG_MARGIN_MM) * sc
    width = (float(np.max(xs)) - float(np.min(xs)) + 2 * SVG_MARGIN_MM) * sc
    height = (float(np.max(ys)) - float(np.min(ys)) + 2 * SVG_MARGIN_MM) * sc

    path = "M " + _fill(f"{_F6} {_F6} L ", profile.n_samples, _interleave(px, py))[:-3]
    marker_r = 0.5 * sc  # 0.5 mm dot at the rotation axis
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt6(width)}" height="{fmt6(height)}" '
        f'viewBox="{fmt6(x0)} {fmt6(y0)} {fmt6(width)} {fmt6(height)}">\n'
        f'  <path d="{path}" fill="none" stroke="black" '
        f'stroke-width="{fmt6(SVG_STROKE_PX)}"/>\n'
        f'  <circle cx="0.000000" cy="0.000000" r="{fmt6(marker_r)}" fill="black"/>\n'
        "</svg>\n"
    )


def sweep_to_csv(table: SweepTable) -> str:
    values = _interleave(
        table.u * 1000.0,
        table.spring_force,
        table.counter_force,
        table.op_force_ideal,
        table.op_force_plus,
        table.op_force_minus,
    )
    return SWEEP_CSV_HEADER + "\n" + _fill(",".join([_F6] * 6) + "\n", len(table.u), values)


def trace_to_csv(trace: GraspTrace) -> str:
    row = f"%d,{{}},{_F6},{_F6},{_F6},%d\n"
    template = "".join(row.format(phase) * n for phase, n in trace.phase_counts)
    ticks = np.arange(trace.jaw.size)
    values = _interleave(ticks, trace.jaw * 1000.0, trace.grip, trace.actuator, trace.latch)
    return TRACE_CSV_HEADER + "\n" + _fill(template, 1, values)
