"""Acceptance suite: one test per release criterion, stated tolerances.

Each test prints its own PASS line (run with -s to see them inline); the
conftest summary hook repeats one line per criterion at the end of the
run either way.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from floatconv import (
    ActuatorStall,
    BackdriveFault,
    CounterElement,
    FloatingConverter,
    ForceCharacteristic,
    GripperModel,
    plan_grasp,
    profile_to_csv,
    profile_to_svg,
    read_profile_csv,
    simulate_grasp,
    synthesize_spring_counter,
    synthesize_weight_counter,
)
from floatconv.cli import main
from floatconv.config import parse_config, synthesize_from_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PROTO_THETA_MAX = math.radians(345.0)
PROTO_K = 124.55     # N/m, back-solved so the spiral slope is 4.982e-3 m/rad
PROTO_R = 0.02       # m
PROTO_LOAD = 10.0    # N


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def _random_tabulated(rng):
    n = int(rng.integers(3, 9))
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.01, 0.2, n - 1))))
    fs = np.concatenate(([rng.uniform(0.0, 5.0)], rng.uniform(0.0, 50.0, n - 1)))
    return ForceCharacteristic.tabulated(list(zip(xs, fs)))


def test_c01_balance_exactness():
    """Max |balance residual| <= 1e-9 x peak force on a 512-point grid."""
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    for trial in range(20):
        if trial % 2 == 0:
            k = rng.uniform(10.0, 1e3)
            x_max = rng.uniform(0.05, 0.5)
            target = ForceCharacteristic.linear(k=k, x_max=x_max)
        else:
            target = _random_tabulated(rng)
        R = rng.uniform(0.005, 0.1)
        load = rng.uniform(1.0, 100.0)
        profile = synthesize_weight_counter(target, R, load, n_samples=512)
        counter = CounterElement.weight(load)
        resid = profile.balance_residual(counter, target, profile.thetas)
        peak = max(float(np.max(np.abs(target.force_at(R * profile.thetas)))), 1e-300)
        assert np.max(np.abs(resid)) <= 1e-9 * peak
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 balance exactness")


def test_c02_spiral_slope_closed_form():
    """|a - k*R**2/mg| <= 1e-12 relative over 1000 random triples."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    for _ in range(1000):
        k = rng.uniform(1.0, 1e4)
        R = rng.uniform(1e-3, 0.5)
        load = rng.uniform(0.1, 1e3)
        target = ForceCharacteristic.linear(k=k, x_max=R * 2.0)
        profile = synthesize_weight_counter(target, R, load, n_samples=2)
        expected = k * R**2 / load
        assert abs(profile.slope - expected) <= 1e-12 * expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("2 spiral slope closed form")


def test_c03_energy_identity_and_ledger_closure():
    """load*payout matches spring energy to 1e-9; ledger closes to 1e-6."""
    k, R, load = 100.0, 0.02, 10.0
    spring = ForceCharacteristic.linear(k=k, x_max=R * PROTO_THETA_MAX)
    profile = synthesize_weight_counter(spring, R, load)
    thetas = np.linspace(0.0, profile.theta_max, 513)
    lhs = load * profile.payout(thetas)
    rhs = 0.5 * k * (R * thetas) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * rhs[-1]

    rng = np.random.default_rng(7)
    linear_conv = FloatingConverter(
        left=spring, profile=profile, counter=CounterElement.weight(load), gap_x=0.01
    )
    pw = ForceCharacteristic.power_law(c=0.04, d=0.2, p=2.0, x_max=0.12)
    pw_profile = synthesize_weight_counter(pw, R, load, n_samples=2049)
    pw_conv = FloatingConverter(
        left=pw, profile=pw_profile, counter=CounterElement.weight(load)
    )
    for conv in (linear_conv, pw_conv):
        lo = conv.gap_x
        for _ in range(50):
            u0, u1 = rng.uniform(lo, conv.u_max, 2)
            led = conv.energy_ledger(u0, u1)
            gap = abs(led.operator_work - (led.delta_spring + led.delta_counter))
            scale = max(
                abs(led.delta_spring),
                abs(led.delta_counter),
                abs(led.operator_work),
                1e-9,
            )
            assert gap <= 1e-6 * scale
    _report("3 energy identity and ledger closure")


def test_c04_constant_operating_force_law():
    """Operating force constant within 1e-9 N and equal to k*gap; doubling."""
    k = 100.0
    spring = ForceCharacteristic.linear(k=k, x_max=0.2)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    plateau = {}
    for gap_mm in (5, 10, 20):
        gap = gap_mm / 1000.0
        conv = FloatingConverter(
            left=spring, profile=profile, counter=CounterElement.weight(10.0), gap_x=gap
        )
        us = np.linspace(gap, conv.u_max, 501)
        ops = conv.operating_force(us)
        assert np.max(ops) - np.min(ops) <= 1e-9
        assert np.max(np.abs(ops - k * gap)) <= 1e-9
        plateau[gap_mm] = float(np.mean(ops))
    assert abs(plateau[10] - 2 * plateau[5]) <= 1e-9
    assert abs(plateau[20] - 2 * plateau[10]) <= 1e-9
    _report("4 constant operating force")


def test_c05_ratio_calibration(tmp_path, capsys):
    """Peak-normalized ratios: 5% at 10 mm, 10% at 20 mm, <=0.3% friction."""
    start = time.perf_counter()
    base = {
        "spring": {"type": "linear", "k_n_per_m": PROTO_K, "max_extension_m": 0.2},
        "pulley": {"circular_radius_m": PROTO_R, "samples": 512},
        "counter": {"type": "weight", "load_n": PROTO_LOAD},
    }

    def run_sweep(cfg, gap_mm=None):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(path), "--out", str(out)]
        if gap_mm is not None:
            argv[3:3] = ["--gap-mm", str(gap_mm)]
        assert main(argv) == 0
        tokens = dict(t.split("=") for t in capsys.readouterr().out.split())
        return {key: float(val) for key, val in tokens.items()}

    summary = run_sweep(base, gap_mm=10)
    assert summary["ratio_peak"] == pytest.approx(0.05, abs=1e-9)
    summary = run_sweep(base, gap_mm=20)
    # the ideal quasi-static model gives exactly 10% here; instrumented
    # prototypes of this mechanism have reported ~8% at a 20 mm gap, the
    # difference being unmodeled fixture and bearing friction (regression
    # note, not a target)
    assert summary["ratio_peak"] == pytest.approx(0.10, abs=1e-9)
    assert summary["ratio_peak"] != pytest.approx(0.08, abs=1e-3)

    fric = dict(base)
    fric["friction"] = {"mu": 0.003}
    summary = run_sweep(fric)
    assert summary["ratio_peak"] <= 0.003 + 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("5 ratio calibration")


def test_c06_truncation_offset_decay():
    """Clamped prototype pulley: residual -5 N at theta=0, fading by 2.007 rad."""
    spring = ForceCharacteristic.linear(k=PROTO_K, x_max=PROTO_R * PROTO_THETA_MAX)
    profile = synthesize_weight_counter(spring, PROTO_R, PROTO_LOAD, n_samples=4097)
    trunc = profile.truncated(0.010, 0.040)
    counter = CounterElement.weight(PROTO_LOAD)

    r0 = trunc.balance_residual(counter, spring, 0.0)
    assert r0 == pytest.approx(-5.0, abs=5e-7)

    thetas = np.linspace(0.0, trunc.theta_max, 4097)
    resid = trunc.balance_residual(counter, spring, thetas)
    peak = PROTO_K * spring.x_max
    # sign-change scan: find the last angle where the residual is still
    # meaningfully negative
    negative = np.nonzero(resid < -1e-9 * peak)[0]
    boundary = float(thetas[negative[-1]])
    kink = 0.010 / (PROTO_K * PROTO_R**2 / PROTO_LOAD)
    assert kink == pytest.approx(2.007, abs=5e-4)
    panel = trunc.theta_max / (trunc.n_samples - 1)
    assert abs(boundary - kink) <= 2 * panel
    assert np.all(resid[negative[-1] + 2 :] >= -1e-9 * peak)
    assert np.max(np.abs(resid[thetas >= kink + 2 * panel])) <= 1e-9 * peak
    _report("6 truncation offset decay")


def test_c07_spring_counter_oracle_equivalence():
    """RK4 synthesis vs independent 10x-resolution integration, 1e-6 rel."""
    k, R, t0, k2 = 100.0, 0.02, 10.0, 50.0
    spring = ForceCharacteristic.linear(k=k, x_max=R * PROTO_THETA_MAX)
    counter = CounterElement.spring(t0=t0, k2=k2)
    profile = synthesize_spring_counter(spring, R, counter, n_steps=2048)

    # independent fine-step integration of ds/dtheta = R*f/(t0+k2*s)
    n_fine = 20480
    h = profile.theta_max / n_fine
    s = 0.0
    s_nodes = [0.0]
    for i in range(n_fine):
        t = i * h

        def rhs(theta, s_val):
            return R * k * min(R * theta, spring.x_max) / (t0 + k2 * s_val)

        a1 = rhs(t, s)
        a2 = rhs(t + 0.5 * h, s + 0.5 * h * a1)
        a3 = rhs(t + 0.5 * h, s + 0.5 * h * a2)
        a4 = rhs(t + h, s + h * a3)
        s += h * (a1 + 2 * a2 + 2 * a3 + a4) / 6.0
        s_nodes.append(s)
    tension = t0 + k2 * np.asarray(s_nodes)[::10]
    r_oracle = R * spring.force_at(R * profile.thetas) / tension
    peak = float(np.max(np.abs(r_oracle)))
    assert np.max(np.abs(profile.radii - r_oracle)) <= 1e-6 * peak

    # k2 = 0 reduces exactly to the weight case
    relaxed = synthesize_spring_counter(
        spring, R, CounterElement.spring(t0=t0, k2=0.0), n_steps=2048
    )
    weight = synthesize_weight_counter(spring, R, t0, n_samples=2049)
    assert np.array_equal(relaxed.radii, weight.radii)
    _report("7 spring-counter oracle equivalence")


def test_c08_gripper_amplification_and_faults():
    """Cap 2 N, gap 10 mm, k=100, target 10 N -> 10x; stall; backdrive."""

    def model(cap, latch):
        spring = ForceCharacteristic.linear(k=100.0, x_max=PROTO_R * PROTO_THETA_MAX)
        profile = synthesize_weight_counter(spring, PROTO_R, PROTO_LOAD)
        conv = FloatingConverter(
            left=spring, profile=profile, counter=CounterElement.weight(PROTO_LOAD)
        )
        return GripperModel(
            converter=conv,
            stage_travel=0.10,
            stage_step=0.01,
            latch_holds=latch,
            actuator_force_cap=cap,
            object_position=0.05,
        )

    strong = model(cap=2.0, latch=True)
    plan = plan_grasp(strong, 10.0)
    assert plan.gap_x == pytest.approx(0.01, rel=1e-9)
    trace = simulate_grasp(plan)
    assert trace.max_actuator == pytest.approx(1.0, rel=1e-9)
    assert trace.final_grip == pytest.approx(10.0, abs=1e-6)
    assert trace.amplification == pytest.approx(10.0, rel=1e-9)

    weak = model(cap=0.5, latch=True)
    with pytest.raises(ActuatorStall):
        simulate_grasp(plan_grasp(weak, 10.0))

    unlatched = model(cap=2.0, latch=False)
    with pytest.raises(BackdriveFault):
        simulate_grasp(plan_grasp(unlatched, 10.0))
    _report("8 gripper amplification and faults")


def test_c09_arc_length_oracle():
    """Spiral arc length matches the closed form within 1e-6 at 2048 panels."""
    a, R, load = 0.004, 0.02, 10.0
    spring = ForceCharacteristic.linear(k=a * load / R**2, x_max=R * 2.0)
    profile = synthesize_weight_counter(spring, R, load, n_samples=2049, theta_max=2.0)
    theta = 2.0
    closed = a * 0.5 * (theta * math.sqrt(theta**2 + 1) + math.asinh(theta))
    assert profile.arc_length(theta) == pytest.approx(closed, rel=1e-6)
    _report("9 arc-length oracle")


def test_c10_io_determinism(tmp_path):
    """CSV round trip lossless; byte-identical outputs; verify pipeline."""
    spring = ForceCharacteristic.linear(k=PROTO_K, x_max=PROTO_R * PROTO_THETA_MAX)
    profile = synthesize_weight_counter(spring, PROTO_R, PROTO_LOAD).truncated(
        0.010, 0.040
    )
    text = profile_to_csv(profile)
    back = read_profile_csv(text, circular_radius_m=PROTO_R)
    assert np.max(np.abs(back.radii - profile.radii)) <= 5e-10
    assert np.max(np.abs(back.thetas - profile.thetas)) <= math.radians(5e-7)
    assert profile_to_csv(profile).encode() == text.encode()
    assert profile_to_svg(profile).encode() == profile_to_svg(profile).encode()

    cfg = {
        "spring": {
            "type": "linear",
            "k_n_per_m": PROTO_K,
            "max_extension_m": PROTO_R * PROTO_THETA_MAX,
        },
        "pulley": {
            "circular_radius_m": PROTO_R,
            "theta_max_deg": 345.0,
            "samples": 512,
        },
        "counter": {"type": "weight", "load_n": PROTO_LOAD},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(["synthesize", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["synthesize", "--config", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["verify", "--config", str(path), "--profile", str(out1)]) == 0
    _report("10 io determinism")


def test_c11_ib_magnet_balance(tmp_path, capsys):
    """Magnet at 4096 samples: verifies, |op force| <= 1e-5 F(0), work <= 1e-6 E."""
    path = CONFIGS / "ib_magnet.json"
    base = json.loads(path.read_text(encoding="utf-8"))
    csv = tmp_path / "magnet.csv"
    assert main(["synthesize", "--config", str(path), "--out", str(csv)]) == 0
    assert main(["verify", "--config", str(path), "--profile", str(csv)]) == 0
    capsys.readouterr()

    def converter(samples, friction=None):
        cfg = parse_config({**base, "pulley": {**base["pulley"], "samples": samples},
                            **({"friction": friction} if friction else {})})
        return FloatingConverter(cfg.spring, synthesize_from_config(cfg), cfg.counter,
                                 friction_mu=cfg.friction_mu, friction_f0=cfg.friction_f0_n)

    def worst_operating_force(conv):
        return float(np.max(np.abs(conv.operating_force(np.linspace(0.0, conv.u_max, 4001)))))

    conv = converter(4096)
    f0 = conv.left.force_at(0.0)
    assert f0 == pytest.approx(80.0, rel=1e-12)
    assert worst_operating_force(conv) <= 1e-5 * f0
    ledger = conv.energy_ledger(0.0, conv.u_max)
    assert abs(ledger.operator_work) <= 1e-6 * ledger.delta_spring
    # a 512-sample grid misses both bounds, so they measure the grid
    coarse = converter(512)
    assert worst_operating_force(coarse) > 1e-5 * f0
    ledger = coarse.energy_ledger(0.0, coarse.u_max)
    assert abs(ledger.operator_work) > 1e-6 * ledger.delta_spring

    rubbing = converter(4096, friction={"mu": 0.02, "offset_n": 0.05})
    summary = rubbing.sweep(0.0, rubbing.u_max, 256).summary()
    assert summary.ratio_peak == pytest.approx(0.02 + 0.05 / f0, abs=1e-9)
    _report("11 ib magnet balance")
