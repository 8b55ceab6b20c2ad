"""Command-line interface: synthesis, verification, sweeps, grasps, export.

Results go to stdout and output files; diagnostics go to stderr with a
stable machine-readable prefix ``ERR:<kind>:``. Exit codes: 0 success, 1
validation or configuration error (a usage error included), 2 numerical
or simulation failure.
All subcommands are deterministic: the same config bytes produce the same
output bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import export
from .config import (
    VERIFY_ENERGY_RTOL,
    RunConfig,
    parse_config,
    synthesize_from_config,
    verify_profile,
)
from .converter import FloatingConverter
from .errors import FloatConvError, NumericalError, ValidationError
from .export import fmt6
from .gripper import GripperModel, plan_grasp, simulate_grasp

SWEEP_ROWS = 256


def _read(path: str) -> str:
    """The one reader of every file the CLI opens: UTF-8 text."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _object(pairs: list) -> dict:
    """A decoded JSON object, at any depth; a key given twice is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"config: duplicate key '{key}'")
        obj[key] = value
    return obj


def _load_config(path: str) -> RunConfig:
    text = _read(path)
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:   # bad JSON, or an int of too many digits
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _converter(cfg: RunConfig, gap_x: float) -> FloatingConverter:
    return FloatingConverter(
        left=cfg.spring,
        profile=synthesize_from_config(cfg),
        counter=cfg.counter,
        gap_x=gap_x,
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
    profile = export.read_profile_csv(_read(args.profile), cfg.circular_radius_m)
    report = verify_profile(cfg, profile)
    clamped = ""
    if report.clamped_to is not None:
        clamped = f" clamped_to_deg={fmt6(math.degrees(report.clamped_to))}"
    print(
        f"max_residual_n={report.max_residual:.3e} "
        f"residual_tol_n={report.residual_tol:.3e} "
        f"energy_error_rel={report.energy_error:.3e}{clamped}"
    )
    if not report.passed:
        raise NumericalError(
            "verification tolerances exceeded "
            f"(residual {report.max_residual:.3e} N vs {report.residual_tol:.3e} N, "
            f"energy {report.energy_error:.3e} vs {VERIFY_ENERGY_RTOL:.0e})"
        )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    gap_x = cfg.gap_x_m if args.gap_mm is None else args.gap_mm / 1000.0
    conv = _converter(cfg, gap_x=gap_x)
    table = conv.sweep(gap_x, conv.u_max, SWEEP_ROWS)
    s = table.summary()
    _write(args.out, export.sweep_to_csv(table))
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
    model = GripperModel(_converter(cfg, cfg.gap_x_m), **asdict(cfg.gripper))
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
    _write(args.out, export.profile_to_svg(profile, args.scale))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``ValidationError``; subparsers share the class."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and reused: parsing leaves it unchanged."""
    parser = _Parser(
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
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except FloatConvError as exc:
        print(f"ERR:{type(exc).__name__}:{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
