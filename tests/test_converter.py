"""Operating force, sweeps, friction bands, energy ledger, equilibrium."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatconv import (
    CounterElement,
    DomainError,
    FloatingConverter,
    ForceCharacteristic,
    IndeterminateEquilibrium,
    NoRootError,
    NumericalError,
    ValidationError,
    synthesize_spring_counter,
    synthesize_weight_counter,
)
from floatconv import export
from floatconv.characteristics import PiecewiseLinear, _slack, cumulative_trapezoid
from floatconv.config import parse_config, synthesize_from_config
from floatconv.converter import (
    _EQUILIBRIUM_SCAN, EQUILIBRIUM_U_TOL, MAX_SUMMARY_VALUE, MAX_SWEEP_ROWS, SweepSummary,
    SweepTable,
)
from floatconv.pulley import PulleyProfile

PROTO_THETA_MAX = math.radians(345.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def matched_converter(k=100.0, R=0.02, load=10.0, gap_x=0.0, mu=0.0, f0=0.0, x_max=None):
    spring = ForceCharacteristic.linear(k=k, x_max=x_max or R * PROTO_THETA_MAX)
    profile = synthesize_weight_counter(spring, R, load)
    return FloatingConverter(
        left=spring,
        profile=profile,
        counter=CounterElement.weight(load),
        gap_x=gap_x,
        friction_mu=mu,
        friction_f0=f0,
    )


def truncated_prototype_converter(gap_x=0.0):
    spring = ForceCharacteristic.linear(k=124.55, x_max=0.02 * PROTO_THETA_MAX)
    profile = synthesize_weight_counter(spring, 0.02, 10.0).truncated(0.010, 0.040)
    return FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(10.0), gap_x=gap_x
    )


# -- operating force -----------------------------------------------------------


def test_matched_zero_gap_floats_freely():
    conv = matched_converter()
    us = np.linspace(0.0, conv.u_max, 97)
    assert np.max(np.abs(conv.operating_force(us))) <= 1e-12 * 100.0 * conv.u_max


def test_gap_produces_constant_operating_force():
    conv = matched_converter(gap_x=0.01)
    assert conv.operating_force(0.05) == pytest.approx(1.0, rel=1e-9)
    assert conv.operating_force(0.10) == pytest.approx(1.0, rel=1e-9)
    # brute-force scan confirms constancy over the engaged range
    us = np.linspace(0.01, conv.u_max, 211)
    ops = conv.operating_force(us)
    assert np.max(np.abs(ops - 1.0)) <= 1e-9


def test_counter_slack_below_gap():
    conv = matched_converter(gap_x=0.01)
    spring, counter = conv.force_components(0.005)
    assert counter == 0.0
    assert spring == pytest.approx(0.5, rel=1e-12)
    assert conv.operating_force(0.005) == pytest.approx(0.5, rel=1e-12)


def test_truncated_counter_overpowers_slack_spring():
    conv = truncated_prototype_converter()
    assert conv.operating_force(0.0) == pytest.approx(-5.0, rel=1e-12)


def test_operating_force_domain():
    conv = matched_converter()
    with pytest.raises(DomainError):
        conv.operating_force(conv.u_max + 1e-3)
    with pytest.raises(DomainError):
        conv.operating_force(-1e-3)


# -- sweeps ---------------------------------------------------------------------


def test_ideal_matched_sweep_is_zero_vector():
    conv = matched_converter()
    table = conv.sweep(0.0, conv.u_max, 128)
    peak = float(np.max(np.abs(table.spring_force)))
    assert np.max(np.abs(table.op_force_ideal)) <= 1e-12 * peak
    assert np.array_equal(
        table.op_force_ideal, table.spring_force - table.counter_force
    )


def test_gap_sweep_plateau():
    conv = matched_converter(gap_x=0.01, x_max=0.12)
    table = conv.sweep(0.01, 0.12, 64)
    assert table.op_force_ideal == pytest.approx(np.full(64, 1.0), abs=1e-9)


def test_friction_band_ratio():
    # mu calibrated so the band is 0.3% of the generated force: at the
    # displacement where the spring makes 10 N the band is +/-0.03 N
    conv = matched_converter(mu=0.003)
    table = conv.sweep(0.0, 0.1, 2)
    assert table.spring_force[1] == pytest.approx(10.0, rel=1e-12)
    band = table.friction_band[1]
    assert band == pytest.approx(0.003 * table.counter_force[1], rel=1e-12)
    assert band == pytest.approx(0.03, rel=1e-9)


def test_friction_band_symmetry(monkeypatch):
    # the plus and minus columns exist only as the sweep CSV writes them: read the
    # matrix its encoder is handed, before the 6-decimal rounding
    conv = matched_converter(gap_x=0.005, mu=0.01, f0=0.05)
    table = conv.sweep(0.005, conv.u_max, 33)
    written, encode = [], export._encode

    def recording_encode(values, *args):
        written.append(values)
        return encode(values, *args)

    monkeypatch.setattr(export, "_encode", recording_encode)
    export.sweep_to_csv(table)
    (values,) = written
    ideal, plus, minus = values[:, 3:].T
    assert np.array_equal(ideal, table.op_force_ideal)
    mid = 0.5 * (plus + minus)
    scale = max(float(np.max(np.abs(table.spring_force))), 1.0)
    assert np.max(np.abs(mid - table.op_force_ideal)) <= 1e-14 * scale


def test_sweep_validation():
    conv = matched_converter()
    with pytest.raises(ValidationError):
        conv.sweep(0.05, 0.01, 16)
    with pytest.raises(DomainError):
        conv.sweep(0.0, conv.u_max * 1.5, 16)


@pytest.mark.parametrize("x_max", [None, 5.0], ids=["pulley_end", "law_end"])
def test_sweep_end_ends_at_the_slack(x_max):
    # u_max is the pulley's 0.1204 m range, or the end of a 5 m law whose pulley
    # reaches 10 m past a 5 m gap
    conv = matched_converter(x_max=x_max, gap_x=0.0 if x_max is None else 5.0)
    end = conv.u_max + _slack(conv.u_max)
    assert conv.sweep(0.0, end, 2).u.tolist() == [0.0, end]
    for past in (math.nextafter(end, math.inf), math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no inf reaches np.linspace
            with pytest.raises(DomainError) as info:
                conv.sweep(0.0, past, 2)
        assert str(info.value) == f"sweep end {past:g} m exceeds converter range {conv.u_max:g} m"


@pytest.mark.parametrize("n", [MAX_SWEEP_ROWS + 1, 2.5, True, 1, 0, "512", 2**40])
def test_sweep_rows_rejected_before_allocation(monkeypatch, n):
    # validation only: a sweep at the limit is never run
    conv = matched_converter()

    def no_grid(*args, **kwargs):
        raise AssertionError("sweep allocated its grid before validating n")

    monkeypatch.setattr(np, "linspace", no_grid)
    rule = r"^sweep rows must be (an integer|in \[2, 1048576\], got)"
    with pytest.raises(ValidationError, match=rule):
        conv.sweep(0.0, conv.u_max, n)


def test_sweep_table_refuses_a_repeated_displacement():
    columns = [[0.0, 0.01, 0.01]] * 3
    with pytest.raises(ValidationError, match="^sweep displacements must be strictly increasing$"):
        SweepTable(*columns)


FRICTION_REFUSALS = {
    "mu_nan": ("friction_mu", math.nan, "friction_mu must be finite, got nan"),
    "mu_inf": ("friction_mu", math.inf, "friction_mu must be finite, got inf"),
    "mu_minus_inf": ("friction_mu", -math.inf, "friction_mu must be finite, got -inf"),
    "mu_negative": ("friction_mu", -0.1, "friction_mu must be in [0, 1), got -0.1"),
    "mu_one": ("friction_mu", 1.0, "friction_mu must be in [0, 1), got 1.0"),
    "mu_bool": ("friction_mu", True, "friction_mu must be a real number, got True"),
    "f0_nan": ("friction_f0", math.nan, "friction_f0 must be finite, got nan"),
    "f0_inf": ("friction_f0", math.inf, "friction_f0 must be finite, got inf"),
    "f0_negative": ("friction_f0", -1e-9, "friction_f0 must be >= 0, got -1e-09"),
}


@pytest.mark.parametrize("record", ["converter", "sweep"])
@pytest.mark.parametrize("case", FRICTION_REFUSALS)
def test_converter_and_sweep_table_refuse_the_same_friction(record, case):
    name, value, message = FRICTION_REFUSALS[case]
    conv = matched_converter()
    table = conv.sweep(0.0, conv.u_max, 3)
    with pytest.raises(ValidationError) as info:
        if record == "converter":
            FloatingConverter(conv.left, conv.profile, conv.counter, **{name: value})
        else:
            SweepTable(table.u, table.spring_force, table.counter_force, **{name: value})
    assert str(info.value) == message


@pytest.mark.parametrize("source", ["hand_built", "sweep"])
def test_every_sweep_table_field_hashes_as_a_buffer(source):
    # a digest hashes each field's buffer, which a plain float has not
    conv = matched_converter(gap_x=0.01, mu=0.005, f0=0.02)
    table = conv.sweep(0.0, conv.u_max, 64)
    if source == "hand_built":
        table = SweepTable(table.u.tolist(), table.spring_force.tolist(),
                           table.counter_force.tolist(), 0.005, 0.02)
    for field in fields(table):
        hashlib.sha256().update(getattr(table, field.name))
    assert (table.friction_mu, table.friction_f0) == (0.005, 0.02)
    band = table.friction_band
    assert _bytes(band) == _bytes(conv.friction_band(table.counter_force))
    assert table.friction_band is band and not band.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        band[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        table.friction_band = band


def test_sweep_rows_accept_a_numpy_integer():
    conv = matched_converter()
    assert conv.sweep(0.0, conv.u_max, np.int64(512)).u.size == 512


# -- copy-free sweeps: the same bytes, a bounded peak ----------------------------


@pytest.mark.parametrize("counter", ["weight", "spring"])
def test_a_largest_sweep_peaks_at_eight_columns(counter):
    # three stored columns and the transients; the record copying every column, and a
    # spring's payout keeping seven temporaries, took it to about 14 columns, the three
    # operating-force columns, stored as well, to about 7, and a stored band to about 5
    law = ForceCharacteristic.linear(k=110.0, x_max=0.12)
    if counter == "weight":
        element = CounterElement.weight(10.0)
        profile = synthesize_weight_counter(law, 0.02, 10.0)
    else:
        element = CounterElement.spring(10.0, 50.0)
        profile = synthesize_spring_counter(law, 0.02, element, n_steps=512)
    conv = FloatingConverter(law, profile, element, gap_x=0.01, friction_mu=0.005)
    conv.sweep(0.0, conv.u_max, 2)   # the cached curves are built outside the count
    tracemalloc.start()
    try:
        table = conv.sweep(0.0, conv.u_max, MAX_SWEEP_ROWS)
        held, peak = tracemalloc.get_traced_memory()
        table.spring_force, table.counter_force, table.friction_mu, table.friction_f0
        still = tracemalloc.get_traced_memory()[0]
        table.op_force_ideal
        derived = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    column = MAX_SWEEP_ROWS * 8
    assert table.u.size == MAX_SWEEP_ROWS
    assert peak <= (4.25 if counter == "weight" else 6.1) * column
    # the table holds its three stored columns until a derived one is read
    assert 3 * column <= held <= still < 3.25 * column
    assert 4 * column <= derived < 4.25 * column


def _unfused_at_and_integral(xp, fp, x):
    """PiecewiseLinear.at_and_integral as np.clip and fresh temporaries computed it."""
    i = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    y = np.interp(x, xp, fp)
    return y, cumulative_trapezoid(fp, xp)[i] + 0.5 * (fp[i] + y) * (x - xp[i])


def _unfused_sweep(conv, n):
    """FloatingConverter.sweep's columns as np.where and fresh temporaries computed them."""
    us = np.linspace(0.0, conv.u_max, n)
    spring = conv.left.force_at(us)
    profile, element = conv.profile, conv.counter
    R = profile.circular_radius
    theta = np.minimum(np.maximum(us - conv.gap_x, 0.0) / R, profile.theta_max)
    if element.k2 == 0:
        cable = np.interp(theta, profile.thetas, profile.radii) * element.t0 / R
    else:
        radius, payout = _unfused_at_and_integral(profile.thetas, profile.radii, theta)
        cable = radius * element.tension(payout) / R
    counter = np.where(us >= conv.gap_x, cable, 0.0)
    ideal = spring - counter
    band = conv.friction_mu * np.abs(counter) + conv.friction_f0
    return us, spring, counter, conv.friction_mu, conv.friction_f0, band, ideal


def _bytes(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@st.composite
def unfused_cases(draw):
    """A converter of any law kind, under a weight or a spring, with a gap inside its
    range and friction on or off; a sweep's row count; a curve and points to read it at."""
    x_max = 0.12
    kind = draw(st.sampled_from(["linear", "constant", "power_law", "tabulated"]))
    if kind == "linear":
        law = ForceCharacteristic.linear(draw(st.floats(1.0, 500.0)), x_max)
    elif kind == "constant":
        law = ForceCharacteristic.constant(draw(st.floats(0.0, 50.0)), x_max)
    elif kind == "power_law":
        p = draw(st.just(1.0) | st.floats(1.0, 3.0))
        law = ForceCharacteristic.power_law(draw(st.floats(1e-3, 0.1)),
                                            draw(st.floats(1e-3, 0.1)), p, x_max)
    else:
        inner = sorted(set(draw(st.lists(st.floats(1e-3, 0.119), max_size=5))))
        xs = [0.0, *inner, x_max]
        fs = draw(st.lists(st.floats(-5.0, 50.0), min_size=len(xs), max_size=len(xs)))
        law = ForceCharacteristic.tabulated(list(zip(xs, fs)))
    samples = draw(st.integers(2, 40))
    thetas = np.linspace(0.0, draw(st.floats(1.0, 8.0)), samples)
    radii = draw(st.lists(st.floats(0.0, 0.05), min_size=samples, max_size=samples))
    profile = PulleyProfile(0.02, thetas, np.array(radii))
    if draw(st.booleans()):
        element = CounterElement.weight(draw(st.floats(1.0, 20.0)))
    else:
        element = CounterElement.spring(draw(st.floats(0.0, 20.0)), draw(st.floats(1.0, 100.0)))
    friction = {"friction_mu": draw(st.just(0.0) | st.floats(1e-3, 0.5)),
                "friction_f0": draw(st.just(0.0) | st.floats(0.0, 1.0))}
    n = draw(st.integers(2, 200))
    conv = FloatingConverter(law, profile, element, gap_x=draw(st.floats(1e-4, 0.1)), **friction)
    if draw(st.booleans()):   # the gap on a row, where u == gap engages the counter
        row = np.linspace(0.0, conv.u_max, n)[draw(st.integers(1, n - 1))]
        conv = FloatingConverter(law, profile, element, gap_x=float(row), **friction)
    ys = draw(st.lists(st.floats(-1.0, 1.0), min_size=samples, max_size=samples))
    curve = PiecewiseLinear(thetas, np.array(ys))
    inside = st.floats(-1.0, thetas[-1] + 1.0) | st.sampled_from(thetas.tolist())
    points = np.array(draw(st.lists(inside, min_size=1, max_size=20)))
    return conv, n, curve, points


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=unfused_cases())
def test_copy_free_sweeps_are_the_unfused_formulas_bit_for_bit(case):
    conv, n, curve, points = case
    table = conv.sweep(0.0, conv.u_max, n)
    want = _unfused_sweep(conv, n)
    assert np.any(want[0] < conv.gap_x) and np.any(want[0] >= conv.gap_x)
    derived = table.friction_band, table.op_force_ideal
    assert [_bytes(column) for column in astuple(table) + derived] == [
        _bytes(column) for column in want]
    # the curve on an array, and on each point as a 0-d array
    for got, want in [(curve.at_and_integral(points),
                       _unfused_at_and_integral(curve.xs, curve.ys, points))] + [
            (curve.at_and_integral(np.asarray(x)),
             _unfused_at_and_integral(curve.xs, curve.ys, np.asarray(x))) for x in points]:
        assert [_bytes(v) for v in got] == [_bytes(v) for v in want]
    # the increasing-u check refuses what np.diff(u) <= 0 refused, and nothing else
    j = n // 2
    for value in (table.u[j], table.u[j - 1], math.nextafter(table.u[j - 1], -math.inf)):
        u = table.u.copy()
        u[j] = value
        if np.any(np.diff(u) <= 0):
            with pytest.raises(ValidationError, match="strictly increasing"):
                SweepTable(u, *astuple(table)[1:])
        else:
            SweepTable(u, *astuple(table)[1:])


def test_sweep_summary_ratios():
    conv = matched_converter(k=124.55, gap_x=0.01, x_max=0.2)
    table = conv.sweep(0.01, 0.2, 256)
    s = table.summary()
    assert s.op_force_const == pytest.approx(1.2455, rel=1e-9)
    assert s.ratio_peak == pytest.approx(0.05, rel=1e-9)


@np.errstate(over="ignore", invalid="ignore")
def _summary_by_plus_minus(table):
    """SweepTable.summary with its banded force max(|ideal + band|, |ideal - band|)."""
    spring = np.abs(table.spring_force)
    peak = float(np.max(spring))
    op_const = float(np.max(np.abs(table.op_force_ideal)))
    ideal, band = table.op_force_ideal, table.friction_band
    banded = np.maximum(np.abs(ideal + band), np.abs(ideal - band))
    ratio_peak = float(np.max(banded) / peak) if peak > 0 else 0.0
    nonzero = spring > 1e-12 * max(peak, 1.0)
    ratio_point = float(np.max(banded[nonzero] / spring[nonzero], initial=0.0))
    if not all(abs(v) <= MAX_SUMMARY_VALUE for v in (op_const, ratio_peak, ratio_point)):
        raise NumericalError(
            f"sweep summary is not finite or exceeds {MAX_SUMMARY_VALUE:g}: "
            f"op_force_const={op_const:g} N "
            f"ratio_peak={ratio_peak:g} ratio_point={ratio_point:g}"
        )
    counter, band = float(np.max(np.abs(table.counter_force))), float(np.max(banded))
    if not all(v <= MAX_SUMMARY_VALUE for v in (peak, counter, band)):
        raise NumericalError(f"sweep forces are not finite or exceed {MAX_SUMMARY_VALUE:g}: "
                             f"spring={peak:g} N counter={counter:g} N banded={band:g} N")
    return SweepSummary(op_const, ratio_peak, ratio_point)


def _outcome(summarize, table):
    try:
        return tuple(float(v).hex() for v in summarize(table))
    except NumericalError as exc:
        return "NumericalError", str(exc)


# signed zeros and the smallest subnormal and normal; forces past the summary bound
_SMALL_FORCES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
                 | st.floats(-100.0, 100.0))
_HUGE_FORCES = st.sampled_from([1e300, -1e300, math.inf, -math.inf]) | st.floats(allow_nan=False)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(_SMALL_FORCES, _SMALL_FORCES), min_size=2, max_size=8),
       huge=st.lists(st.tuples(_HUGE_FORCES | _SMALL_FORCES, _HUGE_FORCES), max_size=2),
       mu=st.sampled_from([0.0, 0.5, math.nextafter(1.0, 0.0)]) | st.floats(0.0, 0.99),
       f0=st.sampled_from([0.0, 5e-324, 1e300]) | st.floats(0.0, 100.0))
def test_summary_banded_force_is_the_plus_minus_maximum(rows, huge, mu, f0):
    # |ideal| + band, the grasp's effort, is max(|ideal + band|, |ideal - band|) bit for
    # bit when band >= 0, but for ideal = +-inf under an infinite band: inf, not nan
    spring, counter = np.array(rows + huge).T
    table = SweepTable(np.arange(spring.size, dtype=float), spring, counter, mu, f0)
    with np.errstate(over="ignore", invalid="ignore"):   # inf - inf, 0 * inf
        ideal, band = table.op_force_ideal, table.friction_band
    # with mu = 0 an infinite counter makes a nan band: no band is negative
    assert not np.any(band < 0)
    got, want = _outcome(SweepTable.summary, table), _outcome(_summary_by_plus_minus, table)
    if np.any(np.isinf(ideal) & (band == math.inf)):
        # both refuse the infinite counter; a printed nan may read inf
        assert got[0] == want[0] == "NumericalError"
    else:
        assert got == want


# -- energy ledger -----------------------------------------------------------


def test_ledger_matched_zero_gap():
    conv = matched_converter()
    led = conv.energy_ledger(0.0, 0.1)
    assert led.delta_spring == pytest.approx(0.5, rel=1e-12)
    assert led.delta_counter == pytest.approx(-0.5, rel=1e-12)
    assert abs(led.operator_work) <= 1e-12


def test_ledger_gap_constant_force_work():
    conv = matched_converter(gap_x=0.01, x_max=0.12)
    led = conv.energy_ledger(0.01, 0.11)
    assert led.operator_work == pytest.approx(1.0 * 0.1, rel=1e-9)
    assert led.operator_work == pytest.approx(
        led.delta_spring + led.delta_counter, rel=1e-9
    )


def test_ledger_degenerate_interval_is_exactly_zero():
    conv = matched_converter(gap_x=0.01)
    led = conv.energy_ledger(0.05, 0.05)
    assert led.delta_spring == 0.0
    assert led.delta_counter == 0.0
    assert led.operator_work == 0.0


def test_ledger_across_gap_engagement():
    # interval straddling the gap: free-spring work below it, plateau work
    # above. Hand-computed: 0.5*k*(0.01^2-0.005^2) + k*0.01*0.005
    conv = matched_converter(gap_x=0.01, x_max=0.12)
    led = conv.energy_ledger(0.005, 0.015)
    expected_work = 0.5 * 100.0 * (0.01**2 - 0.005**2) + 100.0 * 0.01 * 0.005
    assert led.operator_work == pytest.approx(expected_work, rel=1e-9)
    assert led.operator_work == pytest.approx(
        led.delta_spring + led.delta_counter, rel=1e-9
    )


def test_ledger_reversed_interval_flips_signs():
    conv = matched_converter(gap_x=0.01, x_max=0.12)
    fwd = conv.energy_ledger(0.02, 0.1)
    rev = conv.energy_ledger(0.1, 0.02)
    assert rev.delta_spring == pytest.approx(-fwd.delta_spring, rel=1e-12)
    assert rev.operator_work == pytest.approx(-fwd.operator_work, rel=1e-9)


def test_ledger_reversed_across_the_gap_is_equal_and_opposite():
    # the grid carries the gap as a knot and runs from u1 back to u0
    conv = matched_converter(gap_x=0.01, x_max=0.12)
    fwd = conv.energy_ledger(0.005, 0.015)
    rev = conv.energy_ledger(0.015, 0.005)
    assert rev.delta_spring == -fwd.delta_spring
    assert rev.delta_counter == -fwd.delta_counter
    assert rev.operator_work == pytest.approx(-fwd.operator_work, rel=1e-12)


@pytest.mark.parametrize("gap_x", [0.0, 0.01])
@pytest.mark.parametrize("end", ["low", "high"])
def test_ledger_evaluates_its_clipped_ends(gap_x, end):
    # clip_domain admits an end up to 1e-12 past the domain and clips it; the
    # ledger must evaluate that clipped end, as force_components does
    conv = matched_converter(gap_x=gap_x, x_max=0.12)
    u0, u1 = (-0.9e-12, conv.u_max) if end == "low" else (0.0, conv.u_max + 0.9e-12)
    conv.force_components(u0)
    conv.force_components(u1)
    assert conv.energy_ledger(u0, u1) == conv.energy_ledger(0.0, conv.u_max)


@settings(deadline=None, max_examples=40)
@given(
    lo=st.floats(min_value=0.0, max_value=1.0),
    hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_ledger_closure_on_random_intervals(lo, hi):
    conv = matched_converter(gap_x=0.01, x_max=0.12)
    span = conv.u_max - conv.gap_x
    u0 = conv.gap_x + lo * span
    u1 = conv.gap_x + hi * span
    led = conv.energy_ledger(u0, u1)
    gap = abs(led.operator_work - (led.delta_spring + led.delta_counter))
    scale = max(abs(led.delta_spring), abs(led.delta_counter), abs(led.operator_work), 1e-9)
    assert gap <= 1e-6 * scale


# -- equilibrium ----------------------------------------------------------------


def test_equilibrium_indeterminate_when_perfectly_balanced():
    conv = matched_converter()
    with pytest.raises(IndeterminateEquilibrium):
        conv.equilibrium_displacement(0.0)


def test_equilibrium_no_root_for_constant_offset():
    conv = matched_converter(gap_x=0.01)
    with pytest.raises(NoRootError):
        conv.equilibrium_displacement(0.5)  # plateau sits at 1.0 N


@pytest.mark.parametrize("gap_x", [0.12, 0.2])
def test_equilibrium_needs_an_engaged_range(gap_x):
    conv = matched_converter(gap_x=gap_x, x_max=0.12)   # u_max = 0.12 <= gap_x
    with pytest.raises(ValidationError, match="^converter has no engaged displacement range$"):
        conv.equilibrium_displacement(0.0)


def test_equilibrium_no_root_for_a_residual_that_moves_without_crossing():
    # a pulley cut for half the stiffness leaves 50 N/m * u, from 0 to 6 N
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    half = ForceCharacteristic.linear(k=50.0, x_max=0.12)
    counter = CounterElement.weight(10.0)
    conv = FloatingConverter(spring, synthesize_weight_counter(half, 0.02, 10.0), counter)
    with pytest.raises(NoRootError, match="^operating force never crosses -1 N$"):
        conv.equilibrium_displacement(-1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("applied", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
def test_equilibrium_refuses_a_non_finite_applied_force(applied):
    # refused before the scan, whose constant-residual test would subtract inf
    # from inf; an int past the float range is in test_characteristics' table
    conv = matched_converter(gap_x=0.01)
    with pytest.raises(ValidationError, match=f"^applied must be finite, got {applied}$"):
        conv.equilibrium_displacement(applied)


def shipped_converter(name, scale=1.0):
    """configs/<name>.json's converter at zero gap, as the CLI builds it, with its
    law's force scaled by ``scale`` against the pulley synthesized for the law."""
    cfg = parse_config(json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8")))
    field = {"linear": "k", "constant": "f0", "power_law": "c"}[cfg.spring.kind]
    law = replace(cfg.spring, **{field: scale * getattr(cfg.spring, field)})
    return FloatingConverter(law, synthesize_from_config(cfg), cfg.counter,
                             friction_mu=cfg.friction_mu, friction_f0=cfg.friction_f0_n)


@pytest.mark.parametrize("name", ["gripper", "spring_counter", "ib_magnet"])
def test_a_shipped_balanced_converter_is_indeterminate_at_zero_force(name):
    # synthesis balances the counter to SPRING_SYNTHESIS_RTOL of the law's peak:
    # a few uN of residual on the spring counter and the magnet, which alone
    # would read as sign changes, and so as a root at u = 0
    with pytest.raises(IndeterminateEquilibrium,
                       match="^operating force equals 0 N everywhere; "):
        shipped_converter(name).equilibrium_displacement(0.0)


@pytest.mark.parametrize("name", ["gripper", "spring_counter", "ib_magnet"])
def test_a_shipped_balanced_converter_is_constant_off_its_balance(name):
    # its residual moves by less than the synthesis tolerance: constant, not a root
    with pytest.raises(NoRootError, match="^operating force is constant at .* never crosses 1 N$"):
        shipped_converter(name).equilibrium_displacement(1.0)


@pytest.mark.parametrize("applied, error", [(0.0, IndeterminateEquilibrium), (1.0, NoRootError)])
@pytest.mark.parametrize("name", ["gripper", "spring_counter", "ib_magnet"])
def test_the_equilibrium_scan_evaluates_the_law_once(monkeypatch, name, applied, error):
    # the first scan takes the residual and the peak from one force_components call
    conv = shipped_converter(name)
    calls, law_eval = [], ForceCharacteristic._eval

    def counting_eval(self, xs):
        calls.append(np.size(xs))
        return law_eval(self, xs)

    monkeypatch.setattr(ForceCharacteristic, "_eval", counting_eval)
    with pytest.raises(error):
        conv.equilibrium_displacement(applied)
    assert calls == [_EQUILIBRIUM_SCAN + 1]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("applied", [0.0, 1e10])
def test_a_law_infinite_at_its_start_sets_no_equilibrium_tolerance(applied):
    # c / d**p overflows at u = 0, so the scan's peak is inf: a tolerance scaled by it
    # would call any residual balanced
    law = ForceCharacteristic.power_law(c=1e300, d=1e-10, p=2.0, x_max=0.1)
    profile = synthesize_weight_counter(ForceCharacteristic.linear(100.0, 0.1), 0.02, 10.0)
    conv = FloatingConverter(law, profile, CounterElement.weight(10.0))
    with pytest.raises(NoRootError) as info:
        conv.equilibrium_displacement(applied)
    assert str(info.value) == f"operating force never crosses {applied:g} N"


def test_the_shipped_truncated_pulley_balances_where_its_clamp_begins():
    root = shipped_converter("truncated_pulley").equilibrium_displacement(0.0)
    assert root == pytest.approx(0.0403, abs=5e-5)


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.json")))
def test_a_shipped_pulley_under_a_law_a_tenth_stronger_has_one_root(name):
    conv = shipped_converter(name, 1.1)
    u = 0.5 * conv.u_max
    root = conv.equilibrium_displacement(float(conv.operating_force(u)))
    assert abs(root - u) <= EQUILIBRIUM_U_TOL


def test_equilibrium_root_at_truncation_boundary():
    conv = truncated_prototype_converter()
    root = conv.equilibrium_displacement(0.0)
    # oracle: sign-change scan of the residual puts the root at the clamp
    # boundary u = R * r_min / a = 0.04014 m
    us = np.linspace(0.0, conv.u_max, 4097)
    ops = conv.operating_force(us)
    crossing = us[np.nonzero(ops[:-1] * ops[1:] <= 0)[0][0]]
    assert root == pytest.approx(0.04014, abs=5e-4)
    assert root == pytest.approx(crossing, abs=5e-4)


@st.composite
def mismatched_converters(draw):
    """A linear pulley law against a working law whose operating force is
    strictly monotone on the engaged range: a stiffer or softer linear law, a
    tabulated law stiffer on every segment, or a decaying power law."""
    k, R, x_max = draw(st.floats(50.0, 150.0)), 0.02, 0.12
    kind = draw(st.sampled_from(["linear", "tabulated", "power_law"]))
    if kind == "linear":
        ratio = draw(st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 2.0)))
        left = ForceCharacteristic.linear(k * ratio, x_max)
    elif kind == "tabulated":
        slopes = draw(st.lists(st.floats(1.2 * k, 3.0 * k), min_size=2, max_size=7))
        xs = np.linspace(0.0, x_max, len(slopes) + 1)
        rises = np.concatenate(([0.0], np.cumsum(np.multiply(slopes, np.diff(xs)))))
        fs = draw(st.floats(0.0, 5.0)) + rises
        left = ForceCharacteristic.tabulated(zip(xs, fs))
    else:
        d, p = draw(st.floats(0.01, 0.05)), draw(st.floats(1.0, 3.0))
        left = ForceCharacteristic.power_law(draw(st.floats(5.0, 50.0)) * d**p, d, p, x_max)
    pulley_law = ForceCharacteristic.linear(k, draw(st.floats(0.06, 0.1)))
    if draw(st.booleans()):
        counter = CounterElement.weight(draw(st.floats(5.0, 15.0)))
        profile = synthesize_weight_counter(pulley_law, R, counter.t0)
    else:
        counter = CounterElement.spring(draw(st.floats(5.0, 15.0)), draw(st.floats(10.0, 80.0)))
        profile = synthesize_spring_counter(pulley_law, R, counter)
    conv = FloatingConverter(left, profile, counter, gap_x=draw(st.floats(0.0, 0.02)))
    u_star = conv.gap_x + draw(st.floats(0.02, 0.98)) * (conv.u_max - conv.gap_x)
    return conv, float(conv.operating_force(u_star))


def bisection_root(conv, applied):
    """The one root of a monotone operating force, by scalar bisection to 1e-13 m."""
    a, b = conv.gap_x, conv.u_max
    fa = conv.operating_force(a) - applied
    while b - a > 1e-13:
        mid = 0.5 * (a + b)
        fm = conv.operating_force(mid) - applied
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=mismatched_converters())
def test_equilibrium_matches_an_independent_bisection(case):
    conv, applied = case
    root = conv.equilibrium_displacement(applied)
    assert abs(root - bisection_root(conv, applied)) <= EQUILIBRIUM_U_TOL


def stiffer_than_its_pulley(cls=FloatingConverter):
    """A 120 N/m law against a pulley shaped for 100 N/m, engaged from 10 mm."""
    profile = synthesize_weight_counter(ForceCharacteristic.linear(100.0, 0.1), 0.02, 10.0)
    return cls(ForceCharacteristic.linear(120.0, 0.12), profile, CounterElement.weight(10.0),
               gap_x=0.01)


@pytest.mark.parametrize("node", [0, 1, 300, _EQUILIBRIUM_SCAN - 1, _EQUILIBRIUM_SCAN])
def test_equilibrium_root_on_a_scan_node(node):
    conv = stiffer_than_its_pulley()
    us = np.linspace(conv.gap_x, conv.u_max, _EQUILIBRIUM_SCAN + 1)
    applied = float(conv.operating_force(us)[node])
    root = conv.equilibrium_displacement(applied)
    assert abs(root - us[node]) <= EQUILIBRIUM_U_TOL
    if node == 0:
        assert root == conv.gap_x


class LastPositionShifted(FloatingConverter):
    """An operating force 1 mN lower at the last position of an array: a
    stand-in for a law whose array evaluation differs by position."""

    def operating_force(self, u):
        force = super().operating_force(u)
        if np.ndim(force):
            force[-1] -= 1e-3
        return force


def test_equilibrium_rescan_keeps_the_bracket_end_residuals():
    # the root sits on scan node 300; re-evaluated as the last position of a
    # rescan, that end would lose the sign change
    conv = stiffer_than_its_pulley(LastPositionShifted)
    us = np.linspace(conv.gap_x, conv.u_max, _EQUILIBRIUM_SCAN + 1)
    root = conv.equilibrium_displacement(float(conv.operating_force(us)[300]))
    assert abs(root - us[300]) <= EQUILIBRIUM_U_TOL


def test_gap_doubling_doubles_operating_force():
    base = matched_converter(gap_x=0.01, x_max=0.12)
    double = matched_converter(gap_x=0.02, x_max=0.12)
    u = 0.08
    assert double.operating_force(u) == pytest.approx(
        2.0 * base.operating_force(u), abs=1e-9
    )


def test_converter_validation():
    with pytest.raises(ValidationError):
        matched_converter(gap_x=-0.01)
    with pytest.raises(ValidationError):
        matched_converter(mu=1.0)
    with pytest.raises(ValidationError):
        matched_converter(f0=-0.1)


@pytest.mark.parametrize("field", ["gap_x", "f0"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_converter_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match="must be finite"):
        matched_converter(**{field: value})
