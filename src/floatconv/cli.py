"""Command-line interface: synthesis, verification, sweeps, grasps, export.

Results go to stdout and output files; a diagnostic goes to stderr as one line
of at most 300 bytes, prefixed ``ERR:<kind>:``. Exit codes: 0 success, 1
validation or configuration error (a usage error included), 2 numerical
or simulation failure.
All subcommands are deterministic: the same config bytes produce the same
output bytes.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import export
from .characteristics import _shown
from .config import (
    VERIFY_ENERGY_RTOL,
    RunConfig,
    parse_config,
    synthesize_from_config,
    verify_profile,
)
from .converter import MAX_SUMMARY_VALUE, FloatingConverter
from .errors import FloatConvError, NumericalError, ValidationError
from .export import fmt6
from .gripper import GripperModel, plan_grasp, simulate_grasp

SWEEP_ROWS = 256
MAX_INPUT_CHARS = 64 << 20   # above the widest profile CSV written: 2^20 rows of 46 bytes


def _read(path: str) -> str:
    """The one reader of every file the CLI opens: UTF-8 text of at most MAX_INPUT_CHARS.
    A file is judged by its size, so a small one is not read into a buffer of the bound's
    size; one of size 0, such as a pipe or a device, is read to one character past it."""
    try:
        with open(path, encoding="utf-8") as fh:
            size = os.fstat(fh.fileno()).st_size
            text = fh.read(MAX_INPUT_CHARS + 1 if size == 0
                           else None if size <= MAX_INPUT_CHARS else 0)
        if max(size, len(text)) > MAX_INPUT_CHARS:
            raise ValidationError(
                f"cannot read {_shown(path, str)}: more than {MAX_INPUT_CHARS} characters")
        return text
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's reason, without the path its text repeats
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValidationError(f"cannot read {_shown(path, str)}: {reason}") from exc


def _object(pairs: list) -> dict:
    """A decoded JSON object, at any depth; a key given twice is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"config: duplicate key '{_shown(key, str)}'")
        obj[key] = value
    return obj


def _load_config(path: str) -> RunConfig:
    text = _read(path)
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:   # bad JSON, or an int of too many digits
        raise ValidationError(f"config {_shown(path, str)} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i in range(0, len(text), 1 << 20):   # no whole encoded copy of the text
                fh.write(text[i:i + (1 << 20)])
    except OSError as exc:
        raise ValidationError(f"cannot write {_shown(path, str)}: {exc.strerror}") from exc


def _converter(cfg: RunConfig, gap_x: float = 0.0) -> FloatingConverter:
    return FloatingConverter(
        left=cfg.spring,
        profile=synthesize_from_config(cfg),
        counter=cfg.counter,
        gap_x=gap_x,
        friction_mu=cfg.friction_mu,
        friction_f0=cfg.friction_f0_n,
    )


def _summary(**pairs):
    """Print the one summary line: key=value pairs, numbers in fmt6 and text as given."""
    print(" ".join(f"{k}={v if isinstance(v, str) else fmt6(v)}" for k, v in pairs.items()),
          flush=True)   # a closed pipe fails here, not at exit


def _cmd_synthesize(args, cfg: RunConfig):
    profile = synthesize_from_config(cfg)
    _write(args.out, export.profile_to_csv(profile))
    _summary(a_m_per_rad="none" if profile.slope is None else profile.slope,
             theta_max_deg=math.degrees(profile.theta_max),
             r_min_mm=float(np.min(profile.radii)) * 1000.0,
             r_max_mm=float(np.max(profile.radii)) * 1000.0)


def _cmd_verify(args, cfg: RunConfig):
    profile = export.read_profile_csv(_read(args.profile), cfg.circular_radius_m)
    report = verify_profile(cfg, profile)
    clamped = report.clamped_to
    _summary(max_residual_n=f"{report.max_residual:.3e}",
             residual_tol_n=f"{report.residual_tol:.3e}",
             energy_error_rel=f"{report.energy_error:.3e}",
             **({} if clamped is None else {"clamped_to_deg": math.degrees(clamped)}))
    if not report.passed:
        raise NumericalError(
            "verification tolerances exceeded "
            f"(residual {report.max_residual:.3e} N vs {report.residual_tol:.3e} N, "
            f"energy {report.energy_error:.3e} vs {VERIFY_ENERGY_RTOL:.0e})"
        )


def _cmd_sweep(args, cfg: RunConfig):
    gap_x = args.gap_mm / 1000.0
    conv = _converter(cfg, gap_x)
    table = conv.sweep(gap_x, conv.u_max, SWEEP_ROWS)
    s = table.summary()
    _write(args.out, export.sweep_to_csv(table))
    _summary(op_force_const_n=s.op_force_const, ratio_peak=s.ratio_peak, ratio_point=s.ratio_point)


def _cmd_grasp(args, cfg: RunConfig):
    if cfg.gripper is None:
        raise ValidationError("config: missing required key 'gripper'")
    # the plan's gap replaces the converter's
    model = GripperModel(_converter(cfg), *cfg.gripper)
    plan = plan_grasp(model, args.target_force_n)
    trace = simulate_grasp(plan)
    amp = trace.amplification   # inf for a free converter: printed as "inf", not bounded
    peaks = [float(np.max(np.abs(column))) for column in (trace.grip, trace.actuator)]
    if not all(v <= MAX_SUMMARY_VALUE for v in (*peaks, 0.0 if amp == math.inf else abs(amp))):
        raise NumericalError(f"grasp forces are not finite or exceed {MAX_SUMMARY_VALUE:g}: "
                             f"grip={peaks[0]:g} N actuator={peaks[1]:g} N amplification={amp:g}")
    _write(args.out, export.trace_to_csv(trace))
    _summary(amplification=amp, max_actuator_n=trace.max_actuator,
             final_grip_n=trace.final_grip, gap_x_mm=plan.gap_x * 1000.0)


def _cmd_export_svg(args, cfg: None):
    # the drawing reads only the radii and angles, not R: any R serves
    profile = export.read_profile_csv(_read(args.profile), 1.0)
    _write(args.out, export.profile_to_svg(profile, args.scale))


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
    # the four subcommands that read a config share its flag
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)

    p = sub.add_parser("synthesize", parents=[config], help="build a pulley profile from a config")
    p.add_argument("--out", required=True, help="profile CSV path")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify", parents=[config], help="check a profile against its config")
    p.add_argument("--profile", required=True, help="profile CSV path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", parents=[config], help="displacement sweep of the converter")
    p.add_argument("--gap-mm", type=float, default=0.0, help="gap x of the sweep (mm)")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grasp", parents=[config], help="plan and simulate a grasp")
    p.add_argument("--target-force-n", type=float, required=True)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(func=_cmd_grasp)

    p = sub.add_parser("export-svg", help="render a profile CSV to SVG")
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=10.0, help="px per mm")
    p.set_defaults(func=_cmd_export_svg)

    return parser


@functools.cache
def _keep_heap():
    try:
        mallopt = ctypes.CDLL(None).mallopt   # glibc's; absent on macOS and Windows
        mallopt(-2, 16 << 20)   # M_TOP_PAD
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: the pad turns off its dynamic rule
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    """Run one command; return its exit code. On glibc the first call in a process keeps
    16 MiB past the heap top, so later commands reuse touched pages (a repeated 65,536-sample
    chain faults 0-2 pages, not ~4,400, at up to 16 MiB more RSS). Elsewhere it does nothing."""
    _keep_heap()
    args = None
    try:
        args = _build_parser().parse_args(argv)
        # the config is the first file a subcommand reads
        args.func(args, _load_config(args.config) if "config" in args else None)
        return 0
    except FloatConvError as exc:
        error = exc
    except BrokenPipeError:   # stdout's reader left before the summary, the last step
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())   # exit's flush, too
        if getattr(args, "out", None) and Path(args.out).is_file():   # a file, not a device
            os.remove(args.out)
        error = ValidationError("cannot write stdout: Broken pipe")
    print(_shown(f"ERR:{type(error).__name__}:{error}", str, 299), file=sys.stderr)
    return error.exit_code
