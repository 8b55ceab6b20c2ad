"""Command-line interface: synthesis, verification, sweeps, grasps, export.

Results go to stdout and output files; diagnostics go to stderr with a
stable machine-readable prefix ``ERR:<kind>:``. Exit codes: 0 success, 1
validation or configuration error, 2 numerical or simulation failure.
All subcommands are deterministic: the same config bytes produce the same
output bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import export
from .config import RunConfig, parse_config, synthesize_from_config
from .converter import FloatingConverter
from .errors import FloatConvError, ValidationError
from .pulley import SPRING_SYNTHESIS_RTOL
from .export import SvgOptions, fmt6
from .gripper import GripperModel, plan_grasp, simulate_grasp

SWEEP_ROWS = 256

# verify tolerances: balance residual relative to peak force, energy
# identity relative to total stored energy
VERIFY_FORCE_RTOL = 1e-9
VERIFY_ENERGY_RTOL = 1e-6

# half-ulps of the 6-decimal profile CSV columns (mm and deg)
_CSV_RADIUS_QUANTUM = 0.5e-9          # m
_CSV_ANGLE_QUANTUM = math.radians(0.5e-6)  # rad


def _load_config(path: str) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _converter(cfg: RunConfig, profile=None, gap_x=None) -> FloatingConverter:
    return FloatingConverter(
        left=cfg.spring,
        profile=profile if profile is not None else synthesize_from_config(cfg),
        counter=cfg.counter,
        gap_x=cfg.gap_x_m if gap_x is None else gap_x,
        friction_mu=cfg.friction_mu,
        friction_f0=cfg.friction_f0_n,
    )


def _cmd_synthesize(args) -> int:
    cfg = _load_config(args.config)
    profile = synthesize_from_config(cfg)
    _write(args.out, export.profile_to_csv(profile))
    slope = "none" if profile.slope is None else fmt6(profile.slope)
    print(
        f"a_m_per_rad={slope} "
        f"theta_max_deg={fmt6(math.degrees(profile.theta_max))} "
        f"r_min_mm={fmt6(float(np.min(profile.radii)) * 1000.0)} "
        f"r_max_mm={fmt6(float(np.max(profile.radii)) * 1000.0)}"
    )
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    R = cfg.circular_radius_m
    profile = export.read_profile_csv(_read(args.profile), R)

    thetas = profile.thetas
    # the CSV's 6-decimal degrees can round theta_max a hair past the
    # spring's range; pull samples inside that quantum back onto it
    theta_end = cfg.spring.x_max / R
    if thetas[-1] - theta_end <= _CSV_ANGLE_QUANTUM:
        thetas = np.minimum(thetas, theta_end)
    target_force = cfg.spring.force_at(R * thetas)
    residual = profile.balance_residual(cfg.counter, cfg.spring, thetas)
    peak = max(float(np.max(np.abs(target_force))), 1e-300)
    max_residual = float(np.max(np.abs(residual)))

    payout = profile.payout(thetas)
    if cfg.counter.kind == "weight":
        tension_max = cfg.counter.load
        released = cfg.counter.load * payout
    else:
        tension_max = cfg.counter.t0 + cfg.counter.k2 * float(payout[-1])
        released = cfg.counter.t0 * payout + 0.5 * cfg.counter.k2 * payout**2
    stored = cfg.spring.stored_energy(R * thetas)
    e_scale = max(float(stored[-1]), 1e-300)
    energy_rel = float(np.max(np.abs(released - stored))) / e_scale

    # the profile CSV quantizes r and theta to 6 decimals, which puts a
    # floor under the achievable residual; tolerate that floor on top of
    # the relative bound. Spring-counter profiles are only guaranteed to
    # the synthesis verification tolerance, since their realized force
    # runs through the payout quadrature.
    slope_bound = float(np.max(np.abs(np.diff(target_force) / np.diff(R * thetas))))
    quantization = (
        _CSV_RADIUS_QUANTUM * tension_max / R + slope_bound * R * _CSV_ANGLE_QUANTUM
    )
    rtol = VERIFY_FORCE_RTOL if cfg.counter.kind == "weight" else SPRING_SYNTHESIS_RTOL
    residual_tol = rtol * peak + quantization

    print(
        f"max_residual_n={max_residual:.3e} "
        f"residual_tol_n={residual_tol:.3e} "
        f"energy_error_rel={energy_rel:.3e}"
    )
    if max_residual > residual_tol or energy_rel > VERIFY_ENERGY_RTOL:
        print(
            f"ERR:NumericalError:verification tolerances exceeded "
            f"(residual {max_residual:.3e} N vs {residual_tol:.3e} N, "
            f"energy {energy_rel:.3e} vs {VERIFY_ENERGY_RTOL:.0e})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    gap_x = cfg.gap_x_m if args.gap_mm is None else args.gap_mm / 1000.0
    conv = _converter(cfg, gap_x=gap_x)
    table = conv.sweep(gap_x, conv.u_max, SWEEP_ROWS)
    _write(args.out, export.sweep_to_csv(table))
    s = table.summary()
    print(
        f"op_force_const_n={fmt6(s.op_force_const)} "
        f"ratio_peak={fmt6(s.ratio_peak)} "
        f"ratio_point={fmt6(s.ratio_point)}"
    )
    return 0


def _cmd_grasp(args) -> int:
    cfg = _load_config(args.config)
    if cfg.gripper is None:
        raise ValidationError("config: missing required key 'gripper'")
    g = cfg.gripper
    model = GripperModel(
        converter=_converter(cfg),
        stage_travel=g.stage_travel_m,
        stage_step=g.stage_step_m,
        latch_holds=g.latch,
        actuator_force_cap=g.actuator_cap_n,
        object_position=g.object_position_m,
    )
    plan = plan_grasp(model, args.target_force_n)
    trace = simulate_grasp(model, plan)
    _write(args.out, export.trace_to_csv(trace))
    amp = "inf" if math.isinf(trace.amplification) else fmt6(trace.amplification)
    print(
        f"amplification={amp} "
        f"max_actuator_n={fmt6(trace.max_actuator)} "
        f"final_grip_n={fmt6(trace.final_grip)} "
        f"gap_x_mm={fmt6(plan.gap_x * 1000.0)}"
    )
    return 0


def _cmd_export_svg(args) -> int:
    profile = export.read_profile_csv(_read(args.profile))
    opts = SvgOptions(scale=args.scale)
    _write(args.out, export.profile_to_svg(profile, opts))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floatconv",
        description="Non-circular pulley synthesis and floating-converter simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build a pulley profile from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="profile CSV path")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify", help="check a profile against its config")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", required=True, help="profile CSV path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="displacement sweep of the converter")
    p.add_argument("--config", required=True)
    p.add_argument("--gap-mm", type=float, default=None, help="override gap_x (mm)")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grasp", help="plan and simulate a grasp")
    p.add_argument("--config", required=True)
    p.add_argument("--target-force-n", type=float, required=True)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(func=_cmd_grasp)

    p = sub.add_parser("export-svg", help="render a profile CSV to SVG")
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=10.0, help="px per mm")
    p.set_defaults(func=_cmd_export_svg)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FloatConvError as exc:
        print(f"ERR:{type(exc).__name__}:{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
