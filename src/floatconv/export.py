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


def fmt6(value: float) -> str:
    """Fixed 6-decimal rendering; negative zero is normalized away."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def profile_to_csv(profile: PulleyProfile) -> str:
    lines = [PROFILE_CSV_HEADER]
    for theta, r in zip(profile.thetas, profile.radii):
        lines.append(f"{fmt6(math.degrees(theta))},{fmt6(r * 1000.0)}")
    return "\n".join(lines) + "\n"


def read_profile_csv(text: str, circular_radius_m: float = 1.0) -> PulleyProfile:
    """Parse a profile CSV back into a PulleyProfile.

    The file format does not carry the circular-pulley radius, so force
    analysis needs it passed in; geometry-only consumers may keep the
    default.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[0] != PROFILE_CSV_HEADER:
        got = lines[0] if lines else ""
        raise ParseError(f"expected header {PROFILE_CSV_HEADER!r}, got {got!r}", line=1)
    thetas = []
    radii = []
    for i, row in enumerate(lines[1:], start=2):
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=i)
        try:
            theta_deg, r_mm = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r}", line=i) from None
        thetas.append(math.radians(theta_deg))
        radii.append(r_mm / 1000.0)
    if len(thetas) < 2:
        raise ParseError("profile needs at least 2 sample rows", line=len(lines))
    return PulleyProfile(
        circular_radius=circular_radius_m,
        thetas=np.asarray(thetas),
        radii=np.asarray(radii),
    )


def profile_to_svg(profile: PulleyProfile, scale: float = 10.0) -> str:
    """Render the polar curve as a single SVG path plus an axis marker.

    Points are (r*cos(theta), r*sin(theta)) in mm, y flipped to screen
    convention, scaled by ``scale`` px per mm; the viewBox tightly bounds
    the curve plus SVG_MARGIN_MM.
    """
    sc = _finite("scale", scale)
    if not sc > 0:
        raise ValidationError(f"scale must be > 0, got {scale}")
    if profile.thetas.size == 0:
        raise ValidationError("cannot render an empty profile")
    r_mm = profile.radii * 1000.0
    xs = r_mm * np.cos(profile.thetas)
    ys = -r_mm * np.sin(profile.thetas)  # screen y grows downward

    x0 = (float(np.min(xs)) - SVG_MARGIN_MM) * sc
    y0 = (float(np.min(ys)) - SVG_MARGIN_MM) * sc
    width = (float(np.max(xs)) - float(np.min(xs)) + 2 * SVG_MARGIN_MM) * sc
    height = (float(np.max(ys)) - float(np.min(ys)) + 2 * SVG_MARGIN_MM) * sc

    steps = [f"M {fmt6(xs[0] * sc)} {fmt6(ys[0] * sc)}"]
    for x, y in zip(xs[1:], ys[1:]):
        steps.append(f"L {fmt6(x * sc)} {fmt6(y * sc)}")
    path = " ".join(steps)

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
    lines = [SWEEP_CSV_HEADER]
    for u, sf, cf, ideal, plus, minus in zip(
        table.u,
        table.spring_force,
        table.counter_force,
        table.op_force_ideal,
        table.op_force_plus,
        table.op_force_minus,
    ):
        lines.append(
            f"{fmt6(u * 1000.0)},{fmt6(sf)},{fmt6(cf)},{fmt6(ideal)},{fmt6(plus)},{fmt6(minus)}"
        )
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: GraspTrace) -> str:
    lines = [TRACE_CSV_HEADER]
    for row in trace.rows:
        lines.append(
            f"{row.tick},{row.phase},{fmt6(row.jaw_position * 1000.0)},"
            f"{fmt6(row.grip_force)},{fmt6(row.actuator_force)},"
            f"{1 if row.latch_engaged else 0}"
        )
    return "\n".join(lines) + "\n"
