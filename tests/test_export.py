"""CSV round trips, SVG rendering, byte determinism, parse errors."""

import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floatconv import (
    CounterElement,
    FloatConvError,
    FloatingConverter,
    ForceCharacteristic,
    ParseError,
    PulleyProfile,
    ValidationError,
    plan_grasp,
    profile_to_csv,
    profile_to_svg,
    read_profile_csv,
    simulate_grasp,
    synthesize_weight_counter,
)
from floatconv import export
from floatconv.config import parse_config, synthesize_from_config
from floatconv.converter import MAX_SWEEP_ROWS, SweepTable
from floatconv.export import (
    SVG_MAX_PX,
    SVG_SCALE_MAX,
    _decode,
    _encode,
    _parse_rows,
    _quanta,
    fmt6,
    sweep_to_csv,
    trace_to_csv,
)
from floatconv.gripper import MAX_GRASP_TICKS, GraspTrace, GripperModel
from floatconv.pulley import MAX_PROFILE_RADIUS, MAX_PROFILE_SAMPLES

THETA_MAX = math.radians(345.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def prototype_profile():
    spring = ForceCharacteristic.linear(k=124.55, x_max=0.02 * THETA_MAX)
    return synthesize_weight_counter(spring, 0.02, 10.0).truncated(0.010, 0.040)


@pytest.fixture(params=[None, 3], ids=["own-blocks", "3-row-blocks"])
def block_rows(request, monkeypatch):
    """The codec's block size in rows: its own, then 3, so that every text of a few
    rows spans several blocks."""
    if request.param:
        monkeypatch.setattr(export, "_BLOCK", request.param)
    return export._BLOCK


# block_rows is a function fixture, which hypothesis flags under @given: it sets
# one block size for all of a test's examples, as it should
ONE_BLOCK_SIZE = [HealthCheck.function_scoped_fixture]


# -- profile CSV ---------------------------------------------------------------


def test_profile_csv_header_and_shape():
    text = profile_to_csv(prototype_profile())
    lines = text.split("\n")
    assert lines[0] == "theta_deg,r_mm"
    assert lines[1] == "0.000000,10.000000"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 2 + 512
    assert "\r" not in text


def test_profile_csv_round_trip_within_half_ulp():
    profile = prototype_profile()
    back = read_profile_csv(profile_to_csv(profile), circular_radius_m=0.02)
    # half-ulp of 6 decimals: 5e-7 mm and 5e-7 deg
    assert np.max(np.abs(back.radii - profile.radii)) <= 5e-7 / 1000.0
    assert np.max(np.abs(np.degrees(back.thetas) - np.degrees(profile.thetas))) <= 5e-7
    assert back.circular_radius == 0.02


@settings(deadline=None, max_examples=30)
@given(
    k=st.floats(min_value=1.0, max_value=1e4),
    R=st.floats(min_value=5e-3, max_value=0.1),
    load=st.floats(min_value=1.0, max_value=100.0),
)
def test_profile_round_trip_lossless_for_synthesized_profiles(k, R, load):
    lin = ForceCharacteristic.linear(k=k, x_max=R * 4.0)
    profile = synthesize_weight_counter(lin, R, load, n_samples=64)
    back = read_profile_csv(profile_to_csv(profile), circular_radius_m=R)
    assert np.max(np.abs(back.radii - profile.radii)) <= 5e-10
    assert np.max(np.abs(back.thetas - profile.thetas)) <= math.radians(5e-7)


def test_read_profile_rejects_bad_header():
    with pytest.raises(ParseError) as err:
        read_profile_csv("theta_deg,radius_mm\n0.000000,1.000000\n", 0.02)
    assert err.value.line == 1


def test_read_profile_rejects_bad_rows():
    with pytest.raises(ParseError) as err:
        read_profile_csv("theta_deg,r_mm\n0.000000,1.000000\n1.0\n", 0.02)
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        read_profile_csv("theta_deg,r_mm\n0.000000,abc\n1.000000,2.000000\n", 0.02)
    assert err.value.line == 2
    with pytest.raises(ParseError):
        read_profile_csv("theta_deg,r_mm\n0.000000,1.000000\n", 0.02)  # single row


def test_empty_profile_rejected():
    with pytest.raises(ValidationError):
        PulleyProfile(circular_radius=0.02, thetas=np.array([]), radii=np.array([]))


# -- SVG --------------------------------------------------------------------------


def test_svg_bounding_box_of_circle():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    profile = synthesize_weight_counter(const, 0.02, 10.0, theta_max=2 * math.pi)
    svg = profile_to_svg(profile, scale=10.0)
    match = re.search(r'viewBox="([-\d.]+) ([-\d.]+) ([\d.]+) ([\d.]+)"', svg)
    assert match
    w, h = float(match.group(3)), float(match.group(4))
    # 40 mm diameter + 2*5 mm margin at 10 px/mm
    assert w == pytest.approx(500.0, abs=0.5)
    assert h == pytest.approx(500.0, abs=0.5)


def test_svg_prototype_profile_extent():
    svg = profile_to_svg(prototype_profile(), scale=10.0)
    match = re.search(r'viewBox="[-\d. ]+ ([\d.]+) ([\d.]+)"', svg)
    w = float(match.group(1))
    # max radial extent is 40 mm, so the box is at most 80 + 2*margin mm
    assert w <= (80.0 + 2 * 5.0) * 10.0


def test_svg_point_count_and_finite_coordinates():
    profile = prototype_profile()
    svg = profile_to_svg(profile)
    path = re.search(r'd="([^"]+)"', svg).group(1)
    coords = re.findall(r"[ML] ([-\d.]+) ([-\d.]+)", path)
    assert len(coords) == profile.n_samples
    for x, y in coords:
        assert math.isfinite(float(x)) and math.isfinite(float(y))


def test_svg_determinism():
    profile = prototype_profile()
    assert profile_to_svg(profile).encode() == profile_to_svg(profile).encode()
    assert profile_to_csv(profile).encode() == profile_to_csv(profile).encode()


@pytest.mark.parametrize("scale", [0.0, -1.0, 1e-320, 9.99e-4, 1.001e6, 1e306, 1e308])
def test_svg_scale_validation(scale):
    with pytest.raises(ValidationError, match=r"scale must be in \[0.001, 1e\+06\] px/mm"):
        profile_to_svg(prototype_profile(), scale=scale)


def test_svg_scale_refusal_names_the_float_it_read():
    with pytest.raises(ValidationError) as info:
        profile_to_svg(prototype_profile(), 10**300)
    assert str(info.value) == "scale must be in [0.001, 1e+06] px/mm, got 1e+300"


@pytest.mark.parametrize("scale", [1e-3, 1e6])
def test_svg_scale_range_is_inclusive(scale):
    svg = profile_to_svg(prototype_profile(), scale=scale)
    assert "inf" not in svg and "nan" not in svg


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_svg_scale_rejects_non_finite(value):
    with pytest.raises(ValidationError, match="must be finite"):
        profile_to_svg(prototype_profile(), scale=value)


# -- sweep / trace CSV --------------------------------------------------------------


def test_sweep_csv_format():
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0), gap_x=0.01
    )
    text = sweep_to_csv(conv.sweep(0.01, 0.11, 11))
    lines = text.split("\n")
    assert lines[0] == (
        "u_mm,spring_force_n,counter_force_n,op_force_ideal_n,"
        "op_force_plus_n,op_force_minus_n"
    )
    assert lines[1].startswith("10.000000,")
    assert len(lines) == 13
    fields = lines[1].split(",")
    assert len(fields) == 6
    # ideal column is spring minus counter
    assert float(fields[3]) == pytest.approx(float(fields[1]) - float(fields[2]), abs=1e-6)


def test_trace_csv_format():
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0)
    )
    model = GripperModel(
        converter=conv,
        stage_travel=0.1,
        stage_step=0.01,
        latch_holds=True,
        actuator_force_cap=2.0,
        object_position=0.05,
    )
    text = trace_to_csv(simulate_grasp(plan_grasp(model, 10.0)))
    lines = text.split("\n")
    assert lines[0] == "tick,phase,jaw_mm,grip_n,actuator_n,latch"
    assert lines[1] == "0,positioning,0.000000,0.000000,0.000000,0"
    assert lines[-2].split(",")[1] == "done"
    assert set(row.split(",")[5] for row in lines[1:-1]) <= {"0", "1"}


def test_fmt6_normalizes_negative_zero():
    assert fmt6(-1e-9) == "0.000000"
    assert fmt6(-0.0) == "0.000000"
    assert fmt6(1.5) == "1.500000"
    assert fmt6(-2.25) == "-2.250000"


# -- reference writers and reader: one value, one row at a time -------------------
#
# The package writes whole columns and parses the whole body at once; these
# are the per-value loops it replaced. Every output byte and every ParseError
# must match them.


def ref_fmt6(value):
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def ref_profile_csv(profile):
    lines = ["theta_deg,r_mm"]
    for theta, r in zip(profile.thetas, profile.radii):
        lines.append(f"{ref_fmt6(math.degrees(theta))},{ref_fmt6(r * 1000.0)}")
    return "\n".join(lines) + "\n"


def ref_sweep_csv(table):
    lines = [
        "u_mm,spring_force_n,counter_force_n,op_force_ideal_n,op_force_plus_n,op_force_minus_n"
    ]
    for u, sf, cf, ideal, band in zip(
        table.u,
        table.spring_force,
        table.counter_force,
        table.op_force_ideal,
        table.friction_band,
    ):
        row = (u * 1000.0, sf, cf, ideal, ideal + band, ideal - band)
        lines.append(",".join(ref_fmt6(v) for v in row))
    return "\n".join(lines) + "\n"


def ref_trace_csv(trace):
    lines = ["tick,phase,jaw_mm,grip_n,actuator_n,latch"]
    for tick, phase, jaw, grip, actuator, latch in trace.rows:
        lines.append(
            f"{tick},{phase},{ref_fmt6(jaw * 1000.0)},"
            f"{ref_fmt6(grip)},{ref_fmt6(actuator)},{1 if latch else 0}"
        )
    return "\n".join(lines) + "\n"


def ref_svg_path(profile, scale):
    r_mm = profile.radii * 1000.0
    xs = r_mm * np.cos(profile.thetas)
    ys = -r_mm * np.sin(profile.thetas)
    steps = [f"M {ref_fmt6(xs[0] * scale)} {ref_fmt6(ys[0] * scale)}"]
    for x, y in zip(xs[1:], ys[1:]):
        steps.append(f"L {ref_fmt6(x * scale)} {ref_fmt6(y * scale)}")
    return " ".join(steps)


def ref_svg(profile, scale):
    r_mm = profile.radii * 1000.0
    xs = r_mm * np.cos(profile.thetas)
    ys = -r_mm * np.sin(profile.thetas)
    (x_lo, x_hi), (y_lo, y_hi) = ((float(np.min(c)), float(np.max(c))) for c in (xs, ys))
    x0, y0 = (x_lo - 5.0) * scale, (y_lo - 5.0) * scale
    width, height = (x_hi - x_lo + 10.0) * scale, (y_hi - y_lo + 10.0) * scale
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{ref_fmt6(width)}" height="{ref_fmt6(height)}" '
        f'viewBox="{ref_fmt6(x0)} {ref_fmt6(y0)} {ref_fmt6(width)} {ref_fmt6(height)}">\n'
        f'  <path d="{ref_svg_path(profile, scale)}" fill="none" stroke="black" '
        'stroke-width="1.000000"/>\n'
        f'  <circle cx="0.000000" cy="0.000000" r="{ref_fmt6(0.5 * scale)}" fill="black"/>\n'
        "</svg>\n"
    )


def ref_read_profile_csv(text, circular_radius_m):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[0] != "theta_deg,r_mm":
        got = lines[0] if lines else ""
        raise ParseError(f"expected header {'theta_deg,r_mm'!r}, got {got!r:.80}", line=1)
    thetas, radii = [], []
    for i, row in enumerate(lines[1:], start=2):
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=i)
        try:
            theta_deg, r_mm = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r:.80}", line=i) from None
        thetas.append(math.radians(theta_deg))
        radii.append(r_mm / 1000.0)
    if len(thetas) < 2:
        raise ParseError("profile needs at least 2 sample rows", line=len(lines))
    return PulleyProfile(
        circular_radius=circular_radius_m, thetas=np.asarray(thetas), radii=np.asarray(radii)
    )


def read_outcome(reader, text):
    """What a reader makes of ``text``: the sample bytes, or the error it raised."""
    try:
        profile = reader(text, 0.02)
    except FloatConvError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return profile.thetas.tobytes(), profile.radii.tobytes(), profile.circular_radius


HEADER = "theta_deg,r_mm\n"
# a 100 KB header, and a 100 KB row
LONG_LINES = ["x" * 100_000 + "\n0.0,10.0\n1.0,11.0\n",
              HEADER + "0.0,10.0\n1.0," + "x" * 100_000 + "\n"]


@pytest.mark.parametrize(
    "text",
    [
        HEADER + "0.0,10.0\n\n1.0,11.0\n",            # blank line in the middle
        HEADER + "0.0,10.0,1.0\n2.0\n",                # 3-field row, then a 1-field row
        HEADER + "0.0,10.0\nabc\n",
        HEADER + "0.0,10.0\n1.0,abc\n",
        HEADER + "0.0,10.0\n",                         # a single data row
        HEADER + "abc\n",                              # ... that is bad
        HEADER,
        "theta_deg,r_mm",
        "",
        "\n",
        HEADER + "\n",
        HEADER + "0.0,10.0\n1.0,11.0",                  # no final newline
        HEADER + "0.0,10.0\n1.0,11.0\n\n",              # a blank last row
        HEADER + "0.0,10.0\r\n1.0,11.0\r\n",            # CRLF rows
        "theta_deg,r_mm\r\n0.0,10.0\r\n1.0,11.0\r\n",  # CRLF header
        HEADER + "0.0,10.0\n1_0,11.0\n",               # float() reads 1_0 as 10
        HEADER + "0.0,10.0\n 1.0 ,\t11.0 \n",          # surrounding whitespace
        HEADER + "0.0,10.0\n1.0,nan\n",
        HEADER + "0.0,10.0\n1.0,inf\n",
        HEADER + "0.0,10.0\n1.0,-1.0\n",
        HEADER + "0.0,10.0\n1.0,\n",
        HEADER + "0.0,10.0\n1.0,1e999\n",
        HEADER + "0.0,10.0\n1.0,0x10\n",
        HEADER + "0.0,10.0\n1.0,\u0661\u0662\n",       # Arabic-Indic digits: float() accepts
        HEADER + "0.0,10.0\n1.0,\ud800\n",             # a lone surrogate
        HEADER + "0.0,10.0\n1.0,11.0\n0.5,12.0\n",      # thetas not increasing
        # fixed-6 fields in the wrong places or between the wrong separators
        HEADER + "0.000000\n10.000000\n1.000000\n11.000000\n",
        HEADER + "0.000000,10.000000,1.000000\n11.000000\n",
        HEADER + "0.000000,10.000000,1.000000,11.000000\n",
        HEADER + "0.000000,10.000000\n",
        HEADER + "0.000000,10.000000\n1.000000,11.000000\n2.000000,12",   # no final LF
        HEADER + "0.000000 10.000000\n1.000000 11.000000\n",
        HEADER + "0.000000\t10.000000\n1.000000\t11.000000\n",
        HEADER + "0.000000;10.000000\n1.000000;11.000000\n",
        HEADER + "0.000000,10.000000\n1.000000,.000000\n",
        HEADER + "0.000000,10.000000\n1.000000,-.000000\n",
        *LONG_LINES,
    ],
)
def test_read_profile_matches_row_loop(block_rows, text):
    assert read_outcome(read_profile_csv, text) == read_outcome(ref_read_profile_csv, text)


@pytest.mark.parametrize("text", LONG_LINES, ids=["header", "row"])
def test_a_parse_error_cuts_the_line_it_echoes(text):
    with pytest.raises(ParseError) as info:
        read_profile_csv(text, 0.02)
    assert len(str(info.value)) <= 200


_CELLS = st.sampled_from(
    ["0", "1.5", "-1", "1_0", " 3 ", "nan", "inf", "abc", "", "1e3", "0x1", "7,", ","]
)
# None stands for a well-formed row whose theta keeps increasing
_ROWS = st.none() | _CELLS | st.tuples(_CELLS, _CELLS).map(",".join)


@settings(deadline=None, max_examples=200, suppress_health_check=ONE_BLOCK_SIZE)
@given(rows=st.lists(_ROWS, max_size=6), ending=st.sampled_from(["", "\n", "\r\n", "\n\n"]))
def test_read_profile_matches_row_loop_on_generated_text(block_rows, rows, ending):
    body = "\n".join(f"{1.5 * i},10.0" if row is None else row for i, row in enumerate(rows))
    text = HEADER + body + ending
    assert read_outcome(read_profile_csv, text) == read_outcome(ref_read_profile_csv, text)


# values at the rounding edges of 6 decimals, large ones, and both signs of zero
_EDGE = [0.0, -0.0, -4.9e-7, 4.9e-7, 5e-7, -5e-7, 5.0000001e-7, 1e15, -1e15, 123456789.1234565]
_VALUES = st.sampled_from(_EDGE) | st.floats(-1e16, 1e16, allow_nan=False)


# friction coefficients a converter accepts: mu in [0, 1), f0 >= 0
_MU = st.sampled_from([0.0, 0.5, math.nextafter(1.0, 0.0)]) | st.floats(0.0, 1.0, exclude_max=True)
_F0 = st.sampled_from([0.0, 4.9e-7, 5e-7, 1e15]) | st.floats(0.0, 1e16)


@settings(deadline=None, max_examples=100, suppress_health_check=ONE_BLOCK_SIZE)
@given(rows=st.lists(st.tuples(*[_VALUES] * 3), min_size=1, max_size=40), mu=_MU, f0=_F0)
def test_sweep_csv_matches_per_value_writer(block_rows, rows, mu, f0):
    # at 3-row blocks, %-formatted blocks and encoded ones share a document
    columns = np.array(rows).T
    u, first = np.unique(columns[0] / 1000.0, return_index=True)
    table = SweepTable(u, *columns[1:, first], mu, f0)
    assert sweep_to_csv(table).encode() == ref_sweep_csv(table).encode()


def test_sweep_csv_writes_non_finite_values_as_before(block_rows):
    table = SweepTable(
        [0.0, 1.0, 2.0, 3.0], [math.inf, -math.inf, math.nan, 1.5], [-0.0, 1e300, -5e-7, 0.25],
        0.5, 0.25,
    )
    assert table.friction_band.tolist() == [0.25, 5e299, 0.5 * 5e-7 + 0.25, 0.375]
    # at 3-row blocks the last row, all finite, is a block the encoder writes
    assert sweep_to_csv(table) == ref_sweep_csv(table)


_RADII = st.sampled_from([0.0, -0.0, 4.9e-10, 5e-10, 1e12]) | st.floats(0.0, 1e3)


@settings(deadline=None, max_examples=100, suppress_health_check=ONE_BLOCK_SIZE)
@given(
    r0=_RADII,
    samples=st.lists(st.tuples(st.floats(1e-9, 1.0), _RADII), min_size=1, max_size=40),
    scale=st.sampled_from([1e-3, 0.37, 10.0, 1e6]),
)
def test_profile_writers_match_per_value_writers(block_rows, r0, samples, scale):
    steps, radii = zip(*samples)
    profile = PulleyProfile(0.02, np.cumsum((0.0,) + steps), np.array((r0,) + radii))
    text = ref_profile_csv(profile)
    try:
        ref_read_profile_csv(text, 0.02)
    except ValidationError:
        # thetas less than 1e-6 degrees apart print alike: the file would not read back
        with pytest.raises(ValidationError, match="strictly increasing at 6 decimals"):
            profile_to_csv(profile)
    else:
        assert profile_to_csv(profile).encode() == text.encode()
    if np.max(profile.radii) * 1000.0 * scale > SVG_MAX_PX:
        with pytest.raises(ValidationError, match="largest radius x scale"):
            profile_to_svg(profile, scale=scale)
    else:
        assert profile_to_svg(profile, scale=scale).encode() == ref_svg(profile, scale).encode()


def test_profile_writers_match_per_value_writers_on_synthesized_profile(block_rows):
    profile = prototype_profile()
    assert profile_to_csv(profile) == ref_profile_csv(profile)
    assert profile_to_svg(profile) == ref_svg(profile, 10.0)


@settings(deadline=None, max_examples=50, suppress_health_check=ONE_BLOCK_SIZE)
@given(
    columns=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=2, max_size=30),
    data=st.data(),
    latch_holds=st.booleans(),
)
def test_trace_csv_matches_per_value_writer(block_rows, columns, data, latch_holds):
    # at 3-row blocks a phase is cut into blocks, its last one full or short
    n_positioning = data.draw(st.integers(0, len(columns) - 2))
    trace = GraspTrace(*np.array(columns).T, n_positioning, latch_holds)
    assert trace_to_csv(trace).encode() == ref_trace_csv(trace).encode()


# forces of both signs, both zeros and rounding edges, in a cycle of prime length
_FORCES = [-2.5, 0.0, -0.0, 3.125, -4.9e-7, 5e-7, 1234.5678915, -1e6, 7.0, -0.25, 1e-6]


@pytest.mark.parametrize("latch_holds", [True, False])
def test_trace_csv_matches_per_value_writer_on_a_long_trace(block_rows, latch_holds):
    # the positioning ticks run past 9,999 and past 2**14 rows, so the tick
    # column gains a word inside a phase, and the phase spans blocks
    n = 20_002
    trace = GraspTrace(
        np.linspace(0.0, 0.05, n), np.resize(_FORCES, n), np.resize(_FORCES[::-1], n), 16_500,
        latch_holds,
    )
    assert [count for _, count in trace.phase_counts] == [16_501, 3_500, 1]
    assert trace.latch.any() == latch_holds and not trace.latch.all()
    assert trace_to_csv(trace).encode() == ref_trace_csv(trace).encode()


def test_fmt6_matches_reference_at_edges():
    for value in _EDGE + [math.inf, -math.inf, math.nan, 1e300]:
        assert fmt6(value) == ref_fmt6(value)
        assert fmt6(np.float64(value)) == ref_fmt6(value)


def test_svg_numbers_stay_short_at_the_radius_bound():
    # a radius that would overflow the SVG coordinates never reaches the writer
    with pytest.raises(ValidationError, match=r"profile radii must be <= 1e\+12 m, got 1e\+305 m"):
        PulleyProfile(0.02, np.array([0.0, 1.0]), np.array([1e305, 1e305]))
    profile = PulleyProfile(0.02, np.array([0.0, 1.0]), np.full(2, MAX_PROFILE_RADIUS))
    with pytest.raises(
        ValidationError,
        match=r"^largest radius x scale must be <= 1e\+15 px, "
        r"got 1e\+15 mm x 1e\+06 px/mm = 1e\+21 px$",
    ):
        profile_to_svg(profile, scale=SVG_SCALE_MAX)


@pytest.mark.parametrize("radius, scale", [(MAX_PROFILE_RADIUS, 1.0), (1e6, SVG_SCALE_MAX)])
def test_svg_numbers_stay_short_at_the_largest_accepted_product(radius, scale):
    profile = PulleyProfile(0.02, np.array([0.0, 1.0, 4.0]), np.full(3, radius))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = profile_to_svg(profile, scale=scale)
    assert max(len(token) for token in re.findall(r"[-0-9.]+", svg)) <= 25


def test_profile_csv_refuses_thetas_that_print_alike():
    profile = PulleyProfile(0.02, np.array([0.0, 1e-9, 1.0]), np.array([0.01, 0.02, 0.03]))
    with pytest.raises(
        ValidationError,
        match=r"^profile thetas must be strictly increasing at 6 decimals of a degree: "
        r"samples 0 and 1 are written as 0\.000000 and 0\.000000$",
    ):
        profile_to_csv(profile)


# -- the codec at its edges --------------------------------------------------------

FAST_MAX = 2.0**52 / 1e6   # from here on the encoder leaves a document to %-format
# exact ties of the 6th decimal: the odd multiples of 2**-7 are k * 7812.5e-6
_TIES = [k * 2.0**-7 for k in (1, 3, 5, 127, 129, 2**20 + 1, 2**38 + 1)]
# each half-quantum (k + 0.5) * 1e-6 as a float and the floats on either side
_HALVES = [(k + 0.5) * 1e-6 for k in (0, 1, 2, 7, 12344, 999999, 123456789, 2**40 + 3)]
_NEAR_HALVES = [x for h in _HALVES for x in (np.nextafter(h, -1.0), h, np.nextafter(h, 2 * h))]
_CODEC_EDGES = _TIES + _NEAR_HALVES + [
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 4.999999999999999e-7,
    np.nextafter(FAST_MAX, 0.0), FAST_MAX, np.nextafter(FAST_MAX, math.inf),
    math.inf, math.nan,
]


@pytest.mark.parametrize("value", [float(s * x) for x in _CODEC_EDGES for s in (1.0, -1.0)])
def test_encoder_matches_percent_format_at_edges(value):
    fast = _quanta(np.array([[value]])) is not None
    assert fast == (abs(value) < FAST_MAX)
    assert _encode(np.array([[value]]), (6,), ("\n",)) == ref_fmt6(value) + "\n"


_WIDE = st.floats(-2 * FAST_MAX, 2 * FAST_MAX) | st.floats(-1e3, 1e3) | st.sampled_from(
    [float(s * x) for x in _CODEC_EDGES[:-2] for s in (1.0, -1.0)]
)


@settings(deadline=None, max_examples=300, derandomize=True, database=None,
          suppress_health_check=ONE_BLOCK_SIZE)
@given(rows=st.lists(st.tuples(_WIDE, _WIDE, st.integers(0, 2**20)), max_size=12))
def test_encoder_matches_percent_format_on_matrices(block_rows, rows):
    values = np.array(rows, dtype=float).reshape(-1, 3)
    want = "".join(f"{ref_fmt6(a)} L {ref_fmt6(b)},{tick}\n" for a, b, tick in rows)
    assert _encode(values, (6, 6, 0), (" L ", ",", "\n")) == want


_NUMERALS = "0123456789"
# a sign, at most one leading digit, then 7 to 15 digits, the last six the decimals:
# a whole part of 1 to 10 digits, drawn far faster by st.text than by st.from_regex.
# A 10-digit one, which the decoder hands to the row loop, needs both texts at their
# longest, so most examples reach the decoder's own path.
_FIXED6 = st.tuples(st.sampled_from(["", "-"]), st.text(_NUMERALS, max_size=1),
                    st.text(_NUMERALS, min_size=7, max_size=15))


@settings(deadline=None, max_examples=300, derandomize=True, database=None,
          suppress_health_check=ONE_BLOCK_SIZE)
@given(rows=st.lists(st.tuples(_FIXED6, _FIXED6), min_size=2, max_size=8))
def test_decoder_reads_fixed6_fields_as_float_does(block_rows, rows):
    parts = [(sign, lead + digits[:-6], digits[-6:]) for row in rows for sign, lead, digits in row]
    fields = [f"{sign}{whole}.{frac}" for sign, whole, frac in parts]
    text = HEADER + "".join(f"{a},{b}\n" for a, b in zip(fields[0::2], fields[1::2]))
    got = _decode(text)
    if max(len(whole) for _, whole, _ in parts) > 9:
        assert got is None   # a 10-digit whole part goes to the row loop
    else:
        assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()


def test_decoder_reads_leading_zeros_and_negative_zero():
    text = HEADER + "-0.000000,0007.250000\n000000000.000001,-000123.456789\n"
    assert _decode(text).tobytes() == np.array([-0.0, 7.25, 1e-6, -123.456789]).tobytes()
    assert math.copysign(1.0, _decode(text)[0]) == -1.0


# fields one edit away from fixed-6, and fixed-6 ones at the limits
NEAR_FIXED6 = [
    "0.000000", "-0.000000", "0001.500000", "999999999.999999", "1234567890.000000",
    "1.00000", "1.0000000", "+1.000000", "1..000000", "-.000000", ".000000", "1.",
    "1/000000", "1:000000", "1.00000a", "--1.000000", "1.000000-", "1-000000",
    "1.-00000", " 1.000000", "1.000000 ", "1.000000\r", "1\x00000000", "\u0661.000000", "",
]


@pytest.mark.parametrize("field", NEAR_FIXED6)
@pytest.mark.parametrize("row", ["{},10.000000", "1.000000,{}"])
def test_read_profile_matches_row_loop_on_one_near_fixed6_field(block_rows, field, row):
    text = HEADER + "0.000000,10.000000\n" + row.format(field) + "\n2.000000,12.000000\n"
    assert read_outcome(read_profile_csv, text) == read_outcome(ref_read_profile_csv, text)


# None stands for a fixed-6 row whose theta keeps increasing from 0
_NEAR_FIXED6 = st.sampled_from(NEAR_FIXED6)
_NEAR_ROWS = st.none() | st.tuples(_NEAR_FIXED6, _NEAR_FIXED6).map(",".join) | _NEAR_FIXED6


@settings(deadline=None, max_examples=300, derandomize=True, database=None,
          suppress_health_check=ONE_BLOCK_SIZE)
@given(rows=st.lists(_NEAR_ROWS, max_size=6), ending=st.sampled_from(["", "\n", "\n\n"]))
def test_read_profile_matches_row_loop_on_near_fixed6_text(block_rows, rows, ending):
    body = "\n".join(
        f"{i}.000000,1{i}.000000" if row is None else row for i, row in enumerate(rows)
    )
    text = HEADER + body + ending
    assert read_outcome(read_profile_csv, text) == read_outcome(ref_read_profile_csv, text)


# -- the codec's blocks ------------------------------------------------------------
#
# The codec reads and writes a profile in blocks of rows. The oracles above run
# with 3-row blocks too; these put an edge case at every row of a text some blocks
# long, so that it also falls just after a cut.

FIXED6_ROW = "1.000000,10.000000\n"


def test_a_bad_row_in_a_later_block_names_its_line(block_rows):
    for k in range(12):
        rows = [f"{i}.000000,1{i}.000000\n" for i in range(12)]
        rows[k] = rows[k].replace("0000,", "0a00,")
        text = HEADER + "".join(rows)
        assert read_outcome(read_profile_csv, text) == read_outcome(ref_read_profile_csv, text)
        with pytest.raises(ParseError, match=r"^line \d+: non-numeric field") as info:
            read_profile_csv(text, 0.02)
        assert info.value.line == k + 2


@pytest.mark.parametrize("field", ["-0.000000", "123456789.000000", "-999999999.999999"])
def test_decoder_reads_an_edge_field_at_every_row(block_rows, field):
    for k in range(12):
        fields = FIXED6_ROW[:-1].split(",") * 6
        fields[k] = field
        text = HEADER + "".join(f"{a},{b}\n" for a, b in zip(fields[0::2], fields[1::2]))
        assert _decode(text).tobytes() == np.array([float(f) for f in fields]).tobytes()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_decoder_reads_a_shipped_profile_as_the_row_loop_does(path):
    # each shipped config's profile at 65,536 samples: real numbers in whole blocks.
    # A round trip, profile_to_csv(read) == text, would pass a decoder that is off
    # by less than half a quantum; float() of each field would not
    data = json.loads(path.read_text(encoding="utf-8"))
    data["pulley"]["samples"] = 2**16
    text = profile_to_csv(synthesize_from_config(parse_config(data)))
    assert text.count("\n") - 1 > 3 * export._BLOCK
    assert _decode(text).tobytes() == _parse_rows(text).tobytes()


@pytest.mark.parametrize("value", [-0.0, -4.9e-7, 123456789.5, -999999999.999999, math.inf])
def test_encoder_writes_an_edge_value_at_every_row(block_rows, value):
    for k in range(7):
        values = np.full((7, 2), 1.25)
        values[k, 1] = value
        want = "".join(f"{ref_fmt6(a)},{ref_fmt6(b)}\n" for a, b in values.tolist())
        assert _encode(values, (6, 6), (",", "\n")) == want


def test_encoder_writes_a_block_of_exact_ties(block_rows):
    # one full block of odd multiples of 2**-7 of both signs, whose products
    # v * 1e6 = k * 7812.5 are exact ties, with the near-halves at every 7th value
    rng = np.random.default_rng(35)
    k = 2 * rng.integers(0, 2 ** rng.integers(1, 38, 2 * 2**14)) + 1
    values = k * 2.0**-7 * rng.choice([-1.0, 1.0], k.size)
    values[::7] = np.resize([s * x for x in _NEAR_HALVES for s in (1.0, -1.0)], values[::7].size)
    values = values.reshape(2**14, 2)
    p = values * 1e6
    assert np.count_nonzero(np.abs(p - np.rint(p)) == 0.5) > 0.85 * values.size
    want = "".join(f"{ref_fmt6(a)},{ref_fmt6(b)}\n" for a, b in values.tolist())
    assert _encode(values, (6, 6), (",", "\n")) == want


def test_thetas_that_print_alike_across_a_cut_are_named(block_rows):
    for k in range(7):
        degrees = np.arange(8.0)
        degrees[k + 1] = k + 1e-8   # written as k.000000, like sample k
        profile = PulleyProfile(0.02, np.radians(degrees), np.full(8, 0.01))
        with pytest.raises(ValidationError) as info:
            profile_to_csv(profile)
        assert str(info.value) == (
            "profile thetas must be strictly increasing at 6 decimals of a degree: "
            f"samples {k} and {k + 1} are written as {k}.000000 and {k}.000000"
        )


def traced_peak(call):
    """call()'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_io_holds_no_whole_column_of_temporaries():
    # the largest profile a config can request: each call's peak is its result and a
    # copy of it, the list of blocks the document is joined from or the decoded fields
    # the profile's arrays are cut from, plus a block's temporaries. Whole-column
    # temporaries took the peak to 4.0x (CSV), 4.4x (SVG) and 7.5x (read).
    spring = ForceCharacteristic.linear(k=124.55, x_max=0.02 * THETA_MAX)
    profile = synthesize_weight_counter(spring, 0.02, 10.0, MAX_PROFILE_SAMPLES)
    text, peak = traced_peak(lambda: profile_to_csv(profile))
    assert peak < 3 * len(text)
    svg, peak = traced_peak(lambda: profile_to_svg(profile))
    assert peak < 3 * len(svg)
    read, peak = traced_peak(lambda: read_profile_csv(text, 0.02))
    assert peak < 3 * (read.thetas.nbytes + read.radii.nbytes)
    assert profile_to_csv(read) == text


def test_trace_csv_holds_no_whole_trace_matrix():
    # the longest trace a grasp can write: the peak is the document, the list of
    # blocks it is joined from and a block's temporaries. The whole five-column
    # matrix, built before encoding, took it to 2.84x.
    n = MAX_GRASP_TICKS
    grip = np.concatenate([np.zeros(n // 2 + 1), np.linspace(0.0, 10.0, n - n // 2 - 1)])
    trace = GraspTrace(np.linspace(0.0, 0.1, n), grip, np.linspace(0.0, 12.0, n), n // 2, True)
    text, peak = traced_peak(lambda: trace_to_csv(trace))
    assert peak < 2.25 * len(text)


def test_sweep_csv_holds_no_whole_table():
    # the longest sweep a converter runs: the peak is the document, the list of
    # blocks it is joined from and a block's temporaries. The whole six-column
    # matrix, built before encoding, took it to 2.87x.
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    conv = FloatingConverter(left=spring, profile=synthesize_weight_counter(spring, 0.02, 10.0),
                             counter=CounterElement.weight(10.0), friction_mu=0.05,
                             friction_f0=0.01)
    table = conv.sweep(0.0, conv.u_max, MAX_SWEEP_ROWS)
    table.op_force_ideal, table.friction_band   # derived on first read: not the writer's
    text, peak = traced_peak(lambda: sweep_to_csv(table))
    assert text.count("\n") == MAX_SWEEP_ROWS + 1
    assert peak < 2.25 * len(text)
