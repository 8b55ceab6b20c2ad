"""Seeded operation lists for the benchmark workloads, with their oracles.

Each generator writes its config files into a work directory and returns
the ordered operations of one pass. An operation is a CLI invocation
(argv for ``floatconv.cli.main``) or a library call. Every operation
carries an oracle, written here from the physics in the package README
rather than from package code, and the number of spans the traced run
must see for it.

The seed varies the physical parameters (stiffness, loads, knots, stage
steps, gaps, friction), never the amount of work: sample counts, tick
counts and grid sizes are fixed per workload, so seeds stay comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WHY = {
    "design": (
        "synthesize -> verify -> export-svg per design: energy quadrature, pulley "
        "synthesis and profile CSV/SVG I/O; never touches gripper or converter"
    ),
    "grasp": (
        "grasp at 10-20 um stage steps, thousands of ticks each: per-tick scalar "
        "calls dominate; fault cases stop within the first ticks"
    ),
    "scan": (
        "many small sweeps plus converter library calls: per-call fixed costs "
        "(argparse, JSON, default-size synthesis) and vectorised sweeps dominate"
    ),
}

R_PROTO = 0.02          # m, prototype circular-pulley radius
X_PROTO = 0.1205        # m, prototype spring extension
X_MAX = 0.12            # m, extension of the generated laws
SWEEP_ROWS = 256        # rows of a CLI sweep table
LIB_SWEEP_ROWS = 100_000
SYNTH_RTOL = 1e-6       # spring-counter synthesis tolerance (README model notes)
SVG_MARGIN_MM = 5.0     # default SVG margin around the curve


@dataclass
class Outcome:
    code: int
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)   # path -> bytes, or None if absent
    value: object = None                        # library result


@dataclass
class Op:
    name: str
    group: str            # synthesize|verify|export_svg|sweep|grasp|analyze|build
    check: Callable[[Outcome], str | None]   # failure reason, or None
    spans: dict           # span name -> calls the traced run must see
    argv: list | None = None
    call: Callable[[dict], object] | None = None
    outputs: tuple = ()


# -- independent physics ------------------------------------------------------

def law_force(spring: dict, x):
    x = np.asarray(x, dtype=float)
    kind = spring["type"]
    if kind == "linear":
        return spring["k_n_per_m"] * x
    if kind == "power_law":
        return spring["c"] / (x + spring["d_m"]) ** spring["p"]
    if kind == "tabulated":
        pts = np.asarray(spring["points_m_n"], dtype=float)
        return np.interp(x, pts[:, 0], pts[:, 1])
    raise ValueError(kind)


def law_extension(spring: dict) -> float:
    if spring["type"] == "tabulated":
        return float(spring["points_m_n"][-1][0])
    return float(spring["max_extension_m"])


def law_inverse(spring: dict, force: float) -> float:
    if spring["type"] == "linear":
        return force / spring["k_n_per_m"]
    pts = np.asarray(spring["points_m_n"], dtype=float)
    return float(np.interp(force, pts[:, 1], pts[:, 0]))


def measured_law(rng: random.Random, knots: int = 33) -> dict:
    """A stiffening 'measured' spring: monotone knots with jittered spacing."""
    k = rng.uniform(80.0, 120.0)
    bend = rng.uniform(0.1, 0.5)
    xs = [0.0]
    for i in range(1, knots - 1):
        xs.append(X_MAX * (i + rng.uniform(-0.3, 0.3)) / (knots - 1))
    xs.append(X_MAX)
    points = [[0.0, 0.0]]
    for x in xs[1:]:
        f = k * x * (1.0 + bend * x / X_MAX) * (1.0 + rng.uniform(-0.01, 0.01))
        points.append([x, max(f, points[-1][1] + 1e-3)])
    return {"type": "tabulated", "points_m_n": points}


def linear_law(k: float, x_max: float = X_MAX) -> dict:
    return {"type": "linear", "k_n_per_m": k, "max_extension_m": x_max}


# -- output parsing -------------------------------------------------------------

def parse_kv(text: str) -> dict:
    return dict(item.split("=", 1) for item in text.split())


def parse_csv(data: bytes, columns: int) -> tuple[list[str], list[list[str]]]:
    lines = data.decode().split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != columns for row in rows):
        raise ValueError("ragged CSV")
    return lines[0].split(","), rows


def numeric(rows, cols) -> np.ndarray:
    return np.array([[float(row[c]) for c in cols] for row in rows], dtype=float)


def expect_exit0(out: Outcome) -> str | None:
    if out.code != 0 or out.stderr:
        return f"exit {out.code} {out.stderr.strip()[:160]}"
    return None


def expect_error(kind: str, code: int = 2):
    def check(out: Outcome) -> str | None:
        if out.code != code or not out.stderr.startswith(f"ERR:{kind}:"):
            return f"expected ERR:{kind} exit {code}, got exit {out.code} {out.stderr.strip()[:120]}"
        if any(v is not None for v in out.files.values()):
            return "fault wrote an output file"
        return None

    return check


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return path


# -- design --------------------------------------------------------------------

def profile_oracle(cfg: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """Expected theta grid, and the weight-counter radii (None for springs)."""
    pulley, spring, counter = cfg["pulley"], cfg["spring"], cfg["counter"]
    R = pulley["circular_radius_m"]
    n = pulley.get("samples", 512)
    if "theta_max_deg" in pulley:
        theta_max = math.radians(pulley["theta_max_deg"])
    else:
        theta_max = law_extension(spring) / R
    thetas = np.linspace(0.0, theta_max, n)
    if counter["type"] != "weight":
        return thetas, None
    radii = R * law_force(spring, R * thetas) / counter["load_n"]
    return thetas, radii


def check_synthesize(cfg: dict, csv: Path):
    pulley, spring, counter = cfg["pulley"], cfg["spring"], cfg["counter"]
    R = pulley["circular_radius_m"]

    def check(out: Outcome) -> str | None:
        bad = expect_exit0(out)
        if bad:
            return bad
        header, rows = parse_csv(out.files[str(csv)], 2)
        if header != ["theta_deg", "r_mm"]:
            return f"profile header {header}"
        thetas, radii = profile_oracle(cfg)
        if len(rows) != thetas.size:
            return f"profile rows {len(rows)} != samples {thetas.size}"
        data = numeric(rows, (0, 1))
        th, r = np.radians(data[:, 0]), data[:, 1] / 1000.0
        if np.max(np.abs(data[:, 0] - np.degrees(thetas))) > 1e-6:
            return "theta grid differs from linspace(0, theta_max, samples)"
        force = law_force(spring, R * thetas)
        slope = None
        if radii is not None:
            unclamped = radii
            if "r_min_m" in pulley:
                radii = np.clip(radii, pulley["r_min_m"], pulley["r_max_m"])
            if np.max(np.abs(r - radii)) > 1e-9:
                return "radii differ from R*F(R*theta)/load"
            if spring["type"] == "linear" and np.array_equal(radii, unclamped):
                slope = spring["k_n_per_m"] * R**2 / counter["load_n"]
        else:
            t0, k2 = counter["t0_n"], counter["k2_n_per_m"]
            payout = np.concatenate(([0.0], np.cumsum(0.5 * (r[1:] + r[:-1]) * np.diff(th))))
            realized = r * (t0 + k2 * payout) / R
            if np.max(np.abs(realized - force)) > 10 * SYNTH_RTOL * np.max(np.abs(force)):
                return "spring-counter radii do not balance R*F"
            radii = r
            if spring["type"] == "linear" and k2 == 0.0:
                slope = spring["k_n_per_m"] * R**2 / t0
        kv = parse_kv(out.stdout)
        if slope is None:
            if kv["a_m_per_rad"] != "none":
                return f"a_m_per_rad {kv['a_m_per_rad']} for a non-spiral profile"
        elif not close(float(kv["a_m_per_rad"]), slope, 1e-6):
            return f"a_m_per_rad {kv['a_m_per_rad']} != k*R^2/mg {slope:.9f}"
        if not close(float(kv["theta_max_deg"]), math.degrees(thetas[-1]), 1e-6):
            return "theta_max_deg"
        if not close(float(kv["r_min_mm"]), 1000 * float(np.min(radii)), 2e-6):
            return "r_min_mm"
        if not close(float(kv["r_max_mm"]), 1000 * float(np.max(radii)), 2e-6):
            return "r_max_mm"
        return None

    return check


def check_verify(out: Outcome) -> str | None:
    """Pipeline contract: verify accepts synthesize's own output."""
    bad = expect_exit0(out)
    if bad:
        return bad
    kv = parse_kv(out.stdout)
    if float(kv["max_residual_n"]) > float(kv["residual_tol_n"]):
        return "residual above its printed tolerance"
    if float(kv["energy_error_rel"]) > 1e-6:
        return "energy identity above 1e-6"
    return None


def check_svg(csv: Path, svg: Path, scale: float):
    def check(out: Outcome) -> str | None:
        bad = expect_exit0(out)
        if bad:
            return bad
        text = out.files[str(svg)].decode()
        _, rows = parse_csv(csv.read_bytes(), 2)
        data = numeric(rows, (0, 1))
        th, r = np.radians(data[:, 0]), data[:, 1]
        if not text.startswith("<?xml") or text.count(" L ") != len(rows) - 1:
            return "SVG path does not hold one vertex per profile row"
        xs, ys = r * np.cos(th), -r * np.sin(th)
        want = [
            (xs.min() - SVG_MARGIN_MM) * scale,
            (ys.min() - SVG_MARGIN_MM) * scale,
            (xs.max() - xs.min() + 2 * SVG_MARGIN_MM) * scale,
            (ys.max() - ys.min() + 2 * SVG_MARGIN_MM) * scale,
        ]
        got = [float(v) for v in text.split('viewBox="', 1)[1].split('"', 1)[0].split()]
        if not np.allclose(got, want, rtol=0, atol=1e-5 * scale):
            return f"viewBox {got} != {want}"
        return None

    return check


def design_ops(rng: random.Random, work: Path, root: Path) -> list[Op]:
    designs = []
    for name in ("gripper", "spring_counter", "truncated_pulley"):
        path = root / "configs" / f"{name}.json"
        designs.append((name, path, json.loads(path.read_text(encoding="utf-8"))))

    def generated(label, spring, counter, samples=None):
        pulley = {"circular_radius_m": R_PROTO}
        if samples is not None:
            pulley["samples"] = samples
        cfg = {"spring": spring, "pulley": pulley, "counter": counter}
        designs.append((label, write_config(work / f"{label}.json", cfg), cfg))

    spring_counter = {
        "type": "spring",
        "t0_n": rng.uniform(8.0, 12.0),
        "k2_n_per_m": rng.uniform(30.0, 70.0),
    }
    generated("tabulated_spring_4097", measured_law(rng), spring_counter, 4097)
    d = rng.uniform(0.03, 0.04)
    p = rng.uniform(1.4, 1.8)
    magnet = {
        "type": "power_law",
        "c": rng.uniform(15.0, 25.0) * d**p,
        "d_m": d,
        "p": p,
        "max_extension_m": X_MAX,
    }
    weight = {"type": "weight", "load_n": rng.uniform(8.0, 12.0)}
    generated("power_weight_4097", magnet, weight, 4097)
    generated("power_weight_512", magnet, weight)   # default sample count
    cnc = linear_law(rng.uniform(90.0, 130.0), X_PROTO)
    generated("linear_weight_65536", cnc, {"type": "weight", "load_n": rng.uniform(8.0, 12.0)}, 65536)

    scale = rng.choice((5.0, 10.0, 20.0))
    ops = []
    for label, path, cfg in designs:
        csv, svg = work / f"{label}.csv", work / f"{label}.svg"
        ops += [
            Op(
                f"design/{label}/synthesize",
                "synthesize",
                check_synthesize(cfg, csv),
                {"cli.main": 1, "config.parse_config": 1,
                 "config.synthesize_from_config": 1, "export.profile_to_csv": 1},
                argv=["synthesize", "--config", str(path), "--out", str(csv)],
                outputs=(csv,),
            ),
            Op(
                f"design/{label}/verify",
                "verify",
                check_verify,
                {"cli.main": 1, "config.parse_config": 1, "export.read_profile_csv": 1},
                argv=["verify", "--config", str(path), "--profile", str(csv)],
            ),
            Op(
                f"design/{label}/export-svg",
                "export_svg",
                check_svg(csv, svg, scale),
                {"cli.main": 1, "export.read_profile_csv": 1, "export.profile_to_svg": 1},
                argv=["export-svg", "--profile", str(csv), "--out", str(svg),
                      "--scale", repr(scale)],
                outputs=(svg,),
            ),
        ]
    return ops


# -- grasp ---------------------------------------------------------------------

POSITIONING_STEPS = 1500


def check_grasp(spring, counter, friction, step, target, cap, ticks, trace: Path):
    gap = 0.5 * step
    stroke = law_inverse(spring, target)

    def check(out: Outcome) -> str | None:
        bad = expect_exit0(out)
        if bad:
            return bad
        kv = parse_kv(out.stdout)
        if not close(float(kv["final_grip_n"]), target, 1e-6 + 1e-12):
            return f"final grip {kv['final_grip_n']} N != target {target} N"
        if float(kv["max_actuator_n"]) > cap:
            return f"max actuator {kv['max_actuator_n']} N above cap {cap} N"
        if not close(float(kv["gap_x_mm"]), 1000 * gap, 1e-6):
            return f"gap {kv['gap_x_mm']} mm != half a step"
        header, rows = parse_csv(out.files[str(trace)], 6)
        if header != ["tick", "phase", "jaw_mm", "grip_n", "actuator_n", "latch"]:
            return f"trace header {header}"
        if len(rows) != 1 + POSITIONING_STEPS + ticks + 1:
            return f"trace rows {len(rows)} != {1 + POSITIONING_STEPS + ticks + 1}"
        phases = [row[1] for row in rows]
        if phases.count("gripping") != ticks or phases[-1] != "done":
            return "trace phases"
        if spring["type"] == "linear" and counter["type"] == "weight":
            grip = numeric(rows[-ticks - 1:-1], (3, 4))
            u = np.minimum(step * np.arange(1, ticks + 1), stroke)
            k = spring["k_n_per_m"]
            mu, f0 = friction.get("mu", 0.0), friction.get("offset_n", 0.0)
            if np.max(np.abs(grip[:, 0] - k * u)) > 1e-6:
                return "grip column != k*u"
            effort = k * gap + mu * k * (u - gap) + f0
            if np.max(np.abs(grip[:, 1] - effort)) > 1e-6:
                return "actuator column != k*x + friction band"
        return None

    return check


def grasp_ops(rng: random.Random, work: Path, root: Path) -> list[Op]:
    ops = []

    def case(label, spring, counter, ticks, friction=None, latch=True, cap=2.0,
             fault=None, samples=512):
        step = rng.uniform(10e-6, 20e-6)
        position = (POSITIONING_STEPS + 0.5) * step
        k_gap = law_force(spring, 0.5 * step)
        if fault == "ActuatorStall":
            cap = 0.5 * float(k_gap)
        if fault == "UnreachableForce":
            target = round(1.05 * float(law_force(spring, law_extension(spring))), 6)
        else:
            target = round(float(law_force(spring, (ticks - 0.5) * step)), 6)
        cfg = {
            "spring": spring,
            "pulley": {"circular_radius_m": R_PROTO, "samples": samples},
            "counter": counter,
            "gripper": {
                "stage_travel_m": position + 0.01,
                "stage_step_m": step,
                "latch": latch,
                "actuator_cap_n": cap,
                "object_position_m": position,
            },
        }
        if friction:
            cfg["friction"] = friction
        path = write_config(work / f"grasp_{label}.json", cfg)
        trace = work / f"grasp_{label}.csv"
        synth = {"cli.main": 1, "config.parse_config": 1, "config.synthesize_from_config": 1,
                 "gripper.plan_grasp": 1}
        if fault is None:
            check = check_grasp(spring, counter, friction or {}, step, target, cap, ticks, trace)
            spans = {**synth, "gripper.simulate_grasp": 1, "converter.force_components": ticks,
                     "export.trace_to_csv": 1}
        elif fault == "UnreachableForce":
            check = expect_error(fault)
            spans = synth
        else:
            check = expect_error(fault)
            spans = {**synth, "gripper.simulate_grasp": 1, "converter.force_components": 1}
        ops.append(Op(
            f"grasp/{label}",
            "grasp",
            check,
            spans,
            argv=["grasp", "--config", str(path), "--target-force-n", repr(target),
                  "--out", str(trace)],
            outputs=(trace,),
        ))

    def weight():
        return {"type": "weight", "load_n": rng.uniform(9.0, 11.0)}

    case("linear_weight", linear_law(rng.uniform(90.0, 110.0)), weight(), 4500)
    case("tabulated_weight", measured_law(rng), weight(), 2000)
    case("linear_spring", linear_law(rng.uniform(90.0, 110.0)),
         {"type": "spring", "t0_n": rng.uniform(8.0, 12.0),
          "k2_n_per_m": rng.uniform(30.0, 60.0)}, 2500, samples=513)
    case("linear_weight_friction", linear_law(rng.uniform(90.0, 110.0)), weight(), 1500,
         friction={"mu": rng.uniform(0.002, 0.006), "offset_n": rng.uniform(0.005, 0.02)})
    case("fault_backdrive", linear_law(rng.uniform(90.0, 110.0)), weight(), 1000,
         latch=False, fault="BackdriveFault")
    case("fault_stall", linear_law(rng.uniform(90.0, 110.0)), weight(), 1000,
         fault="ActuatorStall")
    case("fault_unreachable", linear_law(rng.uniform(90.0, 110.0)), weight(), 1000,
         fault="UnreachableForce")
    return ops


# -- scan ----------------------------------------------------------------------

def scan_ops(rng: random.Random, work: Path, root: Path) -> list[Op]:
    import floatconv as fc   # looked up per call, so the traced run sees its patches

    k = rng.uniform(90.0, 130.0)
    counters = {
        "weight": {"type": "weight", "load_n": rng.uniform(8.0, 12.0)},
        "spring": {"type": "spring", "t0_n": rng.uniform(8.0, 12.0),
                   "k2_n_per_m": rng.uniform(30.0, 70.0)},
    }
    samples = {"weight": 512, "spring": 513}
    frictions = [0.0] + [rng.uniform(0.001, 0.01) for _ in range(4)]
    gaps_mm = [rng.uniform(1.0, 30.0) for _ in range(6)]
    spring = linear_law(k)
    peak = k * X_MAX
    # a spring-counter pulley balances to SYNTH_RTOL of the peak force
    force_tol = {"weight": 1e-6 + 1e-12 * peak, "spring": 1e-6 + SYNTH_RTOL * peak}

    ops = []
    for kind, counter in counters.items():
        synth_span = f"pulley.synthesize_{kind}_counter"
        for i, mu in enumerate(frictions):
            cfg = {
                "spring": spring,
                "pulley": {"circular_radius_m": R_PROTO, "samples": samples[kind]},
                "counter": counter,
                "friction": {"mu": mu},
            }
            path = write_config(work / f"scan_{kind}_{i}.json", cfg)
            for j, gap_mm in enumerate(gaps_mm):
                out = work / f"scan_{kind}_{i}_{j}.csv"
                ops.append(Op(
                    f"scan/{kind}/mu{i}/gap{j}/sweep",
                    "sweep",
                    check_sweep(k, mu, gap_mm / 1000.0, force_tol[kind], out),
                    {"cli.main": 1, "config.parse_config": 1,
                     "config.synthesize_from_config": 1, synth_span: 1,
                     "converter.sweep": 1, "export.sweep_to_csv": 1},
                    argv=["sweep", "--config", str(path), "--gap-mm", repr(gap_mm),
                          "--out", str(out)],
                    outputs=(out,),
                ))

        gap = rng.uniform(0.005, 0.02)
        mu = rng.uniform(0.001, 0.01)
        mismatch = rng.uniform(1.1, 1.3)
        tol = force_tol[kind]

        def build(ctx, kind=kind, counter=counter, gap=gap, mu=mu, mismatch=mismatch):
            left = fc.characteristics.ForceCharacteristic.linear(k, X_MAX)
            if kind == "weight":
                elem = fc.pulley.CounterElement.weight(counter["load_n"])
                profile = fc.pulley.synthesize_weight_counter(left, R_PROTO, counter["load_n"])
            else:
                elem = fc.pulley.CounterElement.spring(counter["t0_n"], counter["k2_n_per_m"])
                profile = fc.pulley.synthesize_spring_counter(
                    left, R_PROTO, elem, n_steps=samples[kind] - 1)
            matched = fc.converter.FloatingConverter(left, profile, elem, gap_x=gap, friction_mu=mu)
            stiffer = fc.characteristics.ForceCharacteristic.linear(k * mismatch, X_MAX)
            mismatched = fc.converter.FloatingConverter(stiffer, profile, elem, gap_x=gap)
            ctx[kind] = (matched, mismatched)
            return profile

        def check_build(out: Outcome, kind=kind) -> str | None:
            bad = expect_exit0(out)
            if bad:
                return bad
            if out.value.n_samples != samples[kind]:
                return "profile samples"
            return None

        ops.append(Op(f"scan/{kind}/build", "build", check_build, {synth_span: 1}, call=build))

        ops.append(Op(
            f"scan/{kind}/lib_sweep",
            "analyze",
            check_lib_sweep(k * gap, tol),
            {"converter.sweep": 1},
            call=lambda ctx, kind=kind, gap=gap: ctx[kind][0].sweep(gap, X_MAX, LIB_SWEEP_ROWS),
        ))
        u0, u1 = 0.5 * gap, rng.uniform(0.5, 0.9) * X_MAX
        ops.append(Op(
            f"scan/{kind}/energy_ledger",
            "analyze",
            check_ledger(0.5 * k * (u1**2 - u0**2)),
            {"converter.energy_ledger": 1},
            call=lambda ctx, kind=kind, u0=u0, u1=u1: ctx[kind][0].energy_ledger(u0, u1),
        ))
        # mismatched: F_op(u) = k'u - k(u - x) rises through the engaged range
        slope = k * (mismatch - 1.0)
        root_u = gap + rng.uniform(0.2, 0.8) * (X_MAX - gap)
        applied = slope * root_u + k * gap
        ops.append(Op(
            f"scan/{kind}/equilibrium_root",
            "analyze",
            check_root(lambda u, slope=slope, gap=gap: slope * u + k * gap, applied,
                       tol + slope * 2e-9),
            {"converter.equilibrium_displacement": 1},
            call=lambda ctx, kind=kind, a=applied: ctx[kind][1].equilibrium_displacement(a),
        ))
        ops.append(Op(
            f"scan/{kind}/equilibrium_noroot",
            "analyze",
            expect_error("NoRootError"),
            {"converter.equilibrium_displacement": 1},
            call=lambda ctx, kind=kind, a=k * gap + 0.5: ctx[kind][0].equilibrium_displacement(a),
        ))
        if kind == "weight":
            # a dead-weight spiral balances exactly: every u is an equilibrium
            ops.append(Op(
                f"scan/{kind}/equilibrium_indeterminate",
                "analyze",
                expect_error("IndeterminateEquilibrium"),
                {"converter.equilibrium_displacement": 1},
                call=lambda ctx, kind=kind, a=k * gap: ctx[kind][0].equilibrium_displacement(a),
            ))
    return ops


def check_sweep(k, mu, gap, force_tol, out_path: Path):
    plateau = k * gap
    ratio_peak = (k * gap + mu * k * (X_MAX - gap)) / (k * X_MAX)

    def check(out: Outcome) -> str | None:
        bad = expect_exit0(out)
        if bad:
            return bad
        _, rows = parse_csv(out.files[str(out_path)], 6)
        if len(rows) != SWEEP_ROWS:
            return f"sweep rows {len(rows)} != {SWEEP_ROWS}"
        u = numeric((rows[0], rows[-1]), (0,))[:, 0]
        if not (close(u[0], 1000 * gap, 1e-6) and close(u[1], 1000 * X_MAX, 1e-6)):
            return f"sweep range {u} mm"
        kv = parse_kv(out.stdout)
        if not close(float(kv["op_force_const_n"]), plateau, force_tol):
            return f"op_force_const_n {kv['op_force_const_n']} != k*x {plateau:.9f}"
        if not close(float(kv["ratio_peak"]), ratio_peak, 1e-6 + force_tol / (k * X_MAX)):
            return f"ratio_peak {kv['ratio_peak']} != {ratio_peak:.9f}"
        return None

    return check


def check_lib_sweep(plateau, tol):
    def check(out: Outcome) -> str | None:
        bad = expect_exit0(out)
        if bad:
            return bad
        table = out.value
        if table.u.size != LIB_SWEEP_ROWS:
            return "library sweep rows"
        if not close(float(np.max(np.abs(table.op_force_ideal))), plateau, tol):
            return "library sweep plateau != k*x"
        return None

    return check


def check_ledger(delta_spring):
    def check(out: Outcome) -> str | None:
        bad = expect_exit0(out)
        if bad:
            return bad
        led = out.value
        scale = abs(led.delta_spring) + abs(led.delta_counter)
        if not close(led.operator_work, led.delta_spring + led.delta_counter, 1e-6 * scale):
            return "ledger does not close"
        if not close(led.delta_spring, delta_spring, 1e-9 * abs(delta_spring)):
            return "delta_spring != k/2 (u1^2 - u0^2)"
        return None

    return check


def check_root(op_force, applied, tol):
    def check(out: Outcome) -> str | None:
        bad = expect_exit0(out)
        if bad:
            return bad
        if not close(op_force(out.value), applied, tol):
            return f"operating force at root {op_force(out.value):.9f} != applied {applied:.9f}"
        return None

    return check


GENERATORS = {"design": design_ops, "grasp": grasp_ops, "scan": scan_ops}
