"""Fabrication and analysis artifacts: profile SVG, profile/sweep/trace CSV.

The core works in SI units; exports use millimetres and degrees, the
workshop convention. All numbers are serialized with fixed 6-decimal
formatting and a locale-independent '.' separator, and every writer is a
pure text generator, so output is byte-for-byte deterministic and
golden-file friendly. Line endings are LF.

One codec serves every file, in blocks of at most _BLOCK rows that its callers
cut and hand the encoder one at a time: a writer, the trace's phase by phase,
or the reader holds its result, one more copy of it and one block's
temporaries, never a whole column of them. The encoder turns each value into
its integer quantum round(v * 1e6); where the float product lands on a half
quantum, ``"%.6f" % v``, which rounds the exact product half to even, decides
it. It splits the quantum into whole part and decimals by 10**6; a 0-decimal
column (the trace's tick and latch) holds whole numbers and writes its whole
part alone. Each block becomes one matrix of NUL-padded 4-byte words from
lookup tables, as many words per column as that column's widest number needs,
and one ``bytes.translate`` deletes the NULs. The bytes are those ``"%.6f"``
writes, with "-0.000000" normalized to "0.000000"; a block holding a
non-finite value or one of 2**52/1e6 or more in magnitude is %-formatted
instead. The decoder reads a profile CSV, in blocks cut just after a LF, whose
every field is ``-?\\d{1,9}\\.\\d{6}`` as integers over 1e6, float() of each field
bit for bit: the decimals by Horner on the bytes, each block one array, joined at
the end. Any other text goes to a row-by-row parse that names the first bad line.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import _finite, _frozen, _shown
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
# Largest radius x scale: every SVG number then prints in 25 characters or fewer.
SVG_MAX_PX = 1e15

_F6 = "%.6f"   # the one number format of every export


def _unsigned_zero(text: str) -> str:
    """Normalize negative zero away. With fixed 6 decimals a "-0.000000"
    can only be a whole token, so one replace covers a whole document."""
    return text.replace("-0.000000", "0.000000")


def fmt6(value: float) -> str:
    """Fixed 6-decimal rendering; negative zero is normalized away."""
    return _unsigned_zero(_F6 % value)


# -- encoder ----------------------------------------------------------------------

_FAST_MAX = 2.0**52 / 1e6    # below it a quantum and a half-quantum are exact floats
_Q = np.arange(10**4, dtype=np.uint16)
_DIGITS = np.stack([_Q // 1000, _Q // 100 % 10, _Q // 10 % 10, _Q % 10], axis=-1) + ord("0")
_SHOWN = np.cumsum(_DIGITS != ord("0"), axis=1) > 0   # from the first nonzero digit on
_POINT = np.arange(4) == 0
# Tables of native 4-byte words; a word written back into a byte buffer
# keeps its byte order. "0000" .. "9999"; a whole part's leading word, its
# leading zeros NUL, as the units word and above it; ".000" .. ".999" and
# "000\0" .. "999\0", whose NUL takes the separator's first byte.
_QUADS, _LEADS_UNITS, _LEADS, _POINT_TRIPLES, _TRIPLES = (
    np.ascontiguousarray(table, np.uint8).view(np.uint32).ravel()
    for table in (
        _DIGITS,
        np.where(_SHOWN | (np.arange(4) == 3), _DIGITS, 0),   # the units digit shows
        np.where(_SHOWN, _DIGITS, 0),
        np.where(_POINT, ord("."), _DIGITS[:1000]),
        np.roll(np.where(_POINT, 0, _DIGITS[:1000]), -1, axis=1),
    )
)
_MINUS_WORD = np.frombuffer(b"\0\0\0-", np.uint32)[0]
_BLOCK = 2**14   # rows a block, 128 KiB a column of int64; decoding, 16 characters a row


def _quanta(values: np.ndarray) -> np.ndarray | None:
    """round(v * 1e6) as int64, half to even on the exact product, ``"%.6f"``
    deciding a float tie; None when a value is non-finite or |v| >= _FAST_MAX."""
    if not (np.abs(values) < _FAST_MAX).all():   # false for nan, too
        return None
    p = values * 1e6
    q = np.rint(p)
    # p is v * 1e6 rounded: only where p is a tie can its rounding error decide
    tie = np.abs(p - q) == 0.5
    if tie.any():
        q[tie] = [int((_F6 % v).replace(".", "")) for v in values[tie].tolist()]
    return q.astype(np.int64)


def _encode(values: np.ndarray, decimals: tuple[int, ...], seps: tuple[str, ...],
            quanta: np.ndarray | None = None) -> str:
    """An (n, c) float matrix as text, row by row: column j with
    ``decimals[j]`` (6 or 0) decimals, then ``seps[j]``; a 0-decimal
    column holds whole numbers. ``quanta`` is ``_quanta(values)`` when
    the caller has it. A block is %-formatted alone, to the same bytes.

    Callers hand it at most one block, _BLOCK rows, which becomes one
    matrix of NUL-padded 4-byte words, sized column by column: a sign word
    if the column holds a negative quantum; the words of whole digits its
    largest whole part needs; for 6 decimals ".ddd" and "ddd" plus the
    separator's first byte; the rest of the separator. Every quantum splits
    by the scalar 10**6, which numpy vectorises. One ``bytes.translate``
    deletes the NULs.
    """
    q = _quanta(values) if quanta is None else quanta
    if q is None:
        row = "".join(f"%.{d}f{sep}" for d, sep in zip(decimals, seps))
        return _unsigned_zero((row * len(values)) % tuple(values.ravel().tolist()))
    words = []   # in row order: an array of one word per row, or one word for all rows
    for column, d, sep in zip(q.T, decimals, seps):
        frac = np.abs(column)
        whole = frac // 10**6
        frac -= whole * 10**6
        if column.min(initial=0) < 0:
            words.append(np.where(column < 0, _MINUS_WORD, 0))
        rest, digits = whole, []   # the words below the leading one, units first
        for i in range(-(-len(str(whole.max(initial=0))) // 4) - 1):
            higher = rest // 10**4
            part = rest - higher * 10**4
            lead = (_LEADS if i else _LEADS_UNITS).take(part)
            digits.append(np.where(higher > 0, _QUADS.take(part), lead))
            rest = higher
        words += [(_LEADS if digits else _LEADS_UNITS).take(rest), *digits[::-1]]
        sep = sep.encode("ascii")
        if d:
            high = frac // 1000
            frac -= high * 1000
            first = np.frombuffer(sep[:1].rjust(4, b"\0"), np.uint32)
            words += [_POINT_TRIPLES.take(high), (_TRIPLES | first).take(frac)]
            sep = sep[1:]
        words += np.frombuffer(sep.rjust(-(-len(sep) // 4) * 4, b"\0"), np.uint32).tolist()
    out = np.empty((len(q), len(words)), np.uint32)
    for i, word in enumerate(words):
        out[:, i] = word
    return out.tobytes().translate(None, b"\0").decode("ascii")


def profile_to_csv(profile: PulleyProfile) -> str:
    """The profile as theta_deg,r_mm rows.

    Raises ValidationError when the thetas as written would not read back
    strictly increasing, as when samples less than 1e-6 degrees apart
    print alike: read_profile_csv would refuse the file.
    """
    blocks, last = [PROFILE_CSV_HEADER + "\n"], -math.inf   # the theta written last
    for i in range(0, profile.thetas.size, _BLOCK):
        values = np.column_stack([np.degrees(profile.thetas[i:i + _BLOCK]),
                                  profile.radii[i:i + _BLOCK] * 1000.0])
        q = _quanta(values)
        read = q[:, 0] / 1e6 if q is not None else [float(fmt6(v)) for v in values[:, 0]]
        read = np.append(last, read)
        bad = np.flatnonzero(np.diff(np.radians(read)) <= 0)
        if bad.size:
            j = int(bad[0])
            raise ValidationError(
                "profile thetas must be strictly increasing at 6 decimals of a degree: "
                f"samples {i + j - 1} and {i + j} are written as "
                f"{fmt6(read[j])} and {fmt6(read[j + 1])}"
            )
        last = read[-1]
        blocks.append(_encode(values, (6, 6), (",", "\n"), q))
    return "".join(blocks)


# -- decoder ----------------------------------------------------------------------


def _decode(text: str) -> np.ndarray | None:
    """The fields (theta_deg, r_mm, theta_deg, ...) of a profile CSV as
    float() reads them, when every row ends in LF and every field is
    ``-?\\d{1,9}\\.\\d{6}``; None for any other text.

    Such a field is an integer N < 1e15 < 2**53 over 1e6, both exact in
    float64, and IEEE division rounds correctly, so N / 1e6 is float(field)
    bit for bit; "-0.000000" reads as -0.0.
    """
    head = PROFILE_CSV_HEADER + "\n"
    if not (text.startswith(head) and text.endswith("\n") and text.isascii()):
        return None
    blocks, start = [], len(head)   # each block's values, as float64
    while start < len(text):
        # a block ends just after the first LF _BLOCK * 16 characters on, or at the end
        stop = text.find("\n", start + 16 * _BLOCK) + 1 or len(text)
        raw = np.frombuffer(text[start:stop].encode("ascii"), np.uint8)
        start = stop
        ends = np.flatnonzero(raw < ord("-"))   # the separators, and any other byte below '-'
        n = ends.size
        # they must alternate ",\n,\n...", ending in the block's last LF: one comma per row
        if (raw[ends[0::2]] != ord(",")).any() or (raw[ends[1::2]] != ord("\n")).any():
            return None
        starts = np.concatenate(([0], ends[:-1] + 1))
        neg = raw[starts] == ord("-")
        whole = ends - starts - 7 - neg   # digits before the point
        # a point 7 bytes before each end; besides it, the separator and a
        # leading minus, every byte is a digit
        if (
            (whole < 1).any()
            or (whole > 9).any()
            or (raw[ends - 7] != ord(".")).any()
            or np.count_nonzero(raw - np.uint8(ord("0")) < 10) != raw.size - 2 * n - neg.sum()
        ):
            return None
        # the six decimals by Horner on the bytes, each '0' taken off once at the end
        at = ends - 6
        number = raw.take(at).astype(np.int64)
        for _ in range(5):
            at += 1
            number *= 10
            number += raw.take(at)
        number -= ord("0") * 111111
        # then one take per whole digit column, counted back from the units 7 bytes on
        for place in range(int(whole.max())):
            digit = raw.take(at - (7 + place), mode="clip").astype(np.int64)
            digit -= ord("0")
            digit *= 10 ** (6 + place)
            np.putmask(digit, whole <= place, 0)
            number += digit
        block = number / 1e6
        block[neg] *= -1.0
        blocks.append(block)
    values = np.concatenate(blocks) if blocks else np.empty(0)
    return values if values.size >= 4 else None


def _parse_rows(text: str) -> np.ndarray:
    """The row loop: the reference parse, which names the first bad line
    in its ParseError."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[0] != PROFILE_CSV_HEADER:
        got = lines[0] if lines else ""
        raise ParseError(f"expected header {PROFILE_CSV_HEADER!r}, got {_shown(got)}", line=1)
    values = []
    for i, row in enumerate(lines[1:], start=2):
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=i)
        try:
            values += [float(parts[0]), float(parts[1])]
        except ValueError:
            raise ParseError(f"non-numeric field in {_shown(row)}", line=i) from None
    if len(values) < 4:
        raise ParseError("profile needs at least 2 sample rows", line=len(lines))
    return np.array(values)


def read_profile_csv(text: str, circular_radius_m: float) -> PulleyProfile:
    """Parse a profile CSV back into a PulleyProfile.

    The file format does not carry the circular-pulley radius R, so the
    caller passes it: the counter force r * T / R scales with it.
    """
    values = _decode(text)
    if values is None:
        values = _parse_rows(text)
    thetas, radii = _frozen(np.radians(values[0::2]), values[1::2] / 1000.0)
    return PulleyProfile(circular_radius=circular_radius_m, thetas=thetas, radii=radii)


# -- writers ----------------------------------------------------------------------


def profile_to_svg(profile: PulleyProfile, scale: float = 10.0) -> str:
    """Render the polar curve as a single SVG path plus an axis marker.

    Points are (r*cos(theta), r*sin(theta)) in mm, y flipped to screen
    convention, scaled by ``scale`` px per mm, which must lie in
    [SVG_SCALE_MIN, SVG_SCALE_MAX]; the largest radius times the scale
    must not exceed SVG_MAX_PX. The viewBox tightly bounds the curve plus
    SVG_MARGIN_MM.
    """
    sc = _finite("scale", scale)
    if not SVG_SCALE_MIN <= sc <= SVG_SCALE_MAX:
        raise ValidationError(
            f"scale must be in [{SVG_SCALE_MIN:g}, {SVG_SCALE_MAX:g}] px/mm, got {sc}"
        )
    r_max_mm = float(profile.radii.max()) * 1000.0   # x 1000 is monotone: the max of r_mm
    if r_max_mm * sc > SVG_MAX_PX:
        raise ValidationError(
            f"largest radius x scale must be <= {SVG_MAX_PX:g} px, "
            f"got {r_max_mm:g} mm x {sc:g} px/mm = {r_max_mm * sc:g} px"
        )
    path, lo, hi = [], math.inf, -math.inf   # the path's blocks; the curve's (x, y) bounds
    for i in range(0, profile.thetas.size, _BLOCK):
        thetas, r_mm = profile.thetas[i:i + _BLOCK], profile.radii[i:i + _BLOCK] * 1000.0
        # (x, y) as rows, screen y growing downward: each reduces along contiguous memory
        xy = np.array([r_mm * np.cos(thetas), -r_mm * np.sin(thetas)])
        lo, hi = np.minimum(lo, xy.min(axis=1)), np.maximum(hi, xy.max(axis=1))
        path.append(_encode(xy.T * sc, (6, 6), (" ", " L ")))
    path[-1] = path[-1][:-3]   # no " L " after the last point

    x0, y0 = (lo - SVG_MARGIN_MM) * sc
    width, height = (hi - lo + 2 * SVG_MARGIN_MM) * sc
    marker_r = 0.5 * sc  # 0.5 mm dot at the rotation axis
    return "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt6(width)}" height="{fmt6(height)}" '
        f'viewBox="{fmt6(x0)} {fmt6(y0)} {fmt6(width)} {fmt6(height)}">\n'
        '  <path d="M ', *path, '" fill="none" stroke="black" '
        f'stroke-width="{fmt6(SVG_STROKE_PX)}"/>\n'
        f'  <circle cx="0.000000" cy="0.000000" r="{fmt6(marker_r)}" fill="black"/>\n'
        "</svg>\n"
    ])


def sweep_to_csv(table: SweepTable) -> str:
    """The sweep's rows, then spring - counter and that plus and minus the friction band."""
    blocks, ideal, band = [SWEEP_CSV_HEADER + "\n"], table.op_force_ideal, table.friction_band
    for i in range(0, table.u.size, _BLOCK):
        d, b = ideal[i:i + _BLOCK], band[i:i + _BLOCK]
        values = np.column_stack([table.u[i:i + _BLOCK] * 1000.0, table.spring_force[i:i + _BLOCK],
                                  table.counter_force[i:i + _BLOCK], d, d + b, d - b])
        blocks.append(_encode(values, (6,) * 6, (",",) * 5 + ("\n",)))
    return "".join(blocks)


def trace_to_csv(trace: GraspTrace) -> str:
    """Each phase in blocks of at most _BLOCK rows; the phase's name is the tick's separator."""
    blocks, at, latch = [TRACE_CSV_HEADER + "\n"], 0, trace.latch
    for phase, n in trace.phase_counts:
        seps = (f",{phase},", ",", ",", ",", "\n")
        for i in range(at, at + n, _BLOCK):
            j = min(i + _BLOCK, at + n)
            values = np.column_stack([np.arange(i, j), trace.jaw[i:j] * 1000.0, trace.grip[i:j],
                                      trace.actuator[i:j], latch[i:j]])
            blocks.append(_encode(values, (0, 6, 6, 6, 0), seps))
        at += n
    return "".join(blocks)
