"""CLI subcommands: outputs, exit codes, determinism, config strictness."""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import GOLDEN, pipeline, run

import floatconv
from floatconv import cli
from floatconv.cli import _build_parser, main
from floatconv.config import MAX_PROFILE_SAMPLES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
THETA_MAX_DEG = 345.0


def prototype_config():
    # stiffness back-solved so the spiral slope is 4.982e-3 m/rad
    x_max = 0.02 * math.radians(THETA_MAX_DEG)
    return {
        "spring": {"type": "linear", "k_n_per_m": 124.55, "max_extension_m": x_max},
        "pulley": {
            "circular_radius_m": 0.02,
            "theta_max_deg": THETA_MAX_DEG,
            "samples": 512,
            "r_min_m": 0.010,
            "r_max_m": 0.040,
        },
        "counter": {"type": "weight", "load_n": 10.0},
    }


def untruncated_config():
    cfg = prototype_config()
    del cfg["pulley"]["r_min_m"]
    del cfg["pulley"]["r_max_m"]
    return cfg


def gripper_config(cap=2.0, latch=True):
    return {
        "spring": {"type": "linear", "k_n_per_m": 100.0, "max_extension_m": 0.12043},
        "pulley": {"circular_radius_m": 0.02, "samples": 512},
        "counter": {"type": "weight", "load_n": 10.0},
        "gripper": {
            "stage_travel_m": 0.10,
            "stage_step_m": 0.01,
            "latch": latch,
            "actuator_cap_n": cap,
            "object_position_m": 0.05,
        },
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- exit codes -----------------------------------------------------------------


# every exported error class but the base, which nothing raises
ERROR_CLASSES = [
    name for name in floatconv.__all__
    if isinstance(getattr(floatconv, name), type)
    and issubclass(getattr(floatconv, name), floatconv.FloatConvError)
    and name != "FloatConvError"
]


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_each_error_class_has_its_exit_code(name):
    # bad input exits 1; a numerical or simulation failure exits 2
    want = 1 if name in ("ValidationError", "DomainError", "ParseError") else 2
    assert len(ERROR_CLASSES) == 11
    assert getattr(floatconv, name).exit_code == want
    # the base class holds the failure code the eight subclasses inherit
    assert floatconv.FloatConvError.exit_code == 2


# -- synthesize -----------------------------------------------------------------


def test_synthesize_prototype_profile(tmp_path, capsys):
    cfg = write_config(tmp_path, prototype_config())
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "theta_deg,r_mm"
    assert lines[1] == "0.000000,10.000000"
    # the ideal spiral reaches a*theta_max = 29.998545 mm at 345 deg; the
    # 40 mm ceiling stays inactive over this stroke
    assert lines[-2] == "345.000000,29.998545"
    stdout = capsys.readouterr().out
    assert "theta_max_deg=345.000000" in stdout
    assert "r_min_mm=10.000000" in stdout


def test_synthesize_untruncated_reports_slope(tmp_path, capsys):
    cfg = write_config(tmp_path, untruncated_config())
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    assert "a_m_per_rad=0.004982" in capsys.readouterr().out


def test_synthesize_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, prototype_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(a)]) == 0
    assert main(["synthesize", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- verify ----------------------------------------------------------------------


def test_synthesize_then_verify_untruncated_passes(tmp_path):
    cfg = write_config(tmp_path, untruncated_config())
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--profile", str(out)]) == 0


def test_verify_truncated_prototype_passes_and_reports_clamp(tmp_path, capsys):
    cfg = write_config(tmp_path, prototype_config())
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--profile", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    fields = dict(tok.split("=") for tok in captured.out.split())
    # the 10 mm floor holds the radius up to the last sample before the
    # spiral a*theta reaches it at 2.007 rad (115.0 deg)
    clamped = float(fields["clamped_to_deg"])
    panel = THETA_MAX_DEG / 511
    assert math.degrees(0.010 / 4.982e-3) - panel < clamped < math.degrees(0.010 / 4.982e-3)
    assert float(fields["max_residual_n"]) <= float(fields["residual_tol_n"])
    assert float(fields["energy_error_rel"]) <= 1e-6


@pytest.mark.parametrize("row", [2, 300], ids=["clamped", "unclamped"])
def test_verify_truncated_rejects_a_micrometre_bump(tmp_path, capsys, row):
    cfg = write_config(tmp_path, prototype_config())
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    theta, r = (float(v) for v in lines[row].split(","))
    assert (r == 10.0) == (row == 2)
    lines[row] = f"{theta:.6f},{r + 0.001:.6f}"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--config", cfg, "--profile", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ERR:NumericalError:")


@pytest.mark.parametrize("name", ["gripper", "spring_counter", "truncated_pulley"])
def test_shipped_config_verifies_its_own_profile(tmp_path, capsys, name):
    cfg = str(CONFIGS / f"{name}.json")
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--profile", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_verify_rejects_profile_a_degree_past_the_spring_range(tmp_path, capsys):
    cfg = str(CONFIGS / "gripper.json")
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    header, *rows, last = out.read_text(encoding="utf-8").splitlines()
    theta, r = (float(v) for v in last.split(","))
    rows.append(f"{theta:.6f},{r:.6f}")
    rows.append(f"{theta + 1.0:.6f},{r:.6f}")
    out.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert main(["verify", "--config", cfg, "--profile", str(out)]) == 1
    assert capsys.readouterr().err.startswith("ERR:DomainError:")


# -- sweep ------------------------------------------------------------------------


def ratio_sweep_config(mu=None):
    cfg = {
        "spring": {"type": "linear", "k_n_per_m": 124.55, "max_extension_m": 0.2},
        "pulley": {"circular_radius_m": 0.02, "samples": 512},
        "counter": {"type": "weight", "load_n": 10.0},
    }
    if mu is not None:
        cfg["friction"] = {"mu": mu}
    return cfg


def parse_summary(stdout):
    fields = dict(tok.split("=") for tok in stdout.strip().split())
    return {key: float(val) for key, val in fields.items()}


def test_sweep_gap_override_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, ratio_sweep_config())
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--gap-mm", "10", "--out", str(out)]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["op_force_const_n"] == pytest.approx(1.2455, abs=5e-7)
    assert summary["ratio_peak"] == pytest.approx(0.05, abs=5e-7)
    lines = out.read_text().split("\n")
    assert lines[0].startswith("u_mm,spring_force_n,")
    assert lines[1].startswith("10.000000,")


def test_sweep_friction_only_ratio(tmp_path, capsys):
    cfg = write_config(tmp_path, ratio_sweep_config(mu=0.003))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["ratio_peak"] <= 0.003 + 1e-6
    assert summary["op_force_const_n"] == pytest.approx(0.0, abs=1e-6)


def test_sweep_with_no_spring_force_prints_zero_ratios(tmp_path, capsys):
    # no row passes the spring-force threshold, so ratio_point is the empty case's 0
    cfg = ratio_sweep_config()
    cfg["spring"] = {"type": "constant", "f0_n": 0.0, "max_extension_m": 0.12}
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "op_force_const_n=0.000000 ratio_peak=0.000000 ratio_point=0.000000\n"
    )


# -- grasp ------------------------------------------------------------------------


def test_grasp_success(tmp_path, capsys):
    cfg = write_config(tmp_path, gripper_config())
    out = tmp_path / "trace.csv"
    assert main(["grasp", "--config", cfg, "--target-force-n", "10", "--out", str(out)]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["amplification"] == pytest.approx(10.0, abs=5e-7)
    assert summary["max_actuator_n"] == pytest.approx(1.0, abs=5e-7)
    assert summary["final_grip_n"] == pytest.approx(10.0, abs=5e-7)
    assert out.read_text().startswith("tick,phase,jaw_mm,")


def test_grasp_to_zero_force_prints_an_infinite_amplification(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    argv = ["grasp", "--config", str(CONFIGS / "gripper.json"), "--target-force-n", "0"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "amplification=inf max_actuator_n=0.000000 final_grip_n=0.000000 gap_x_mm=10.000000\n"
    )


def test_grasp_stall_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, gripper_config(cap=0.5))
    out = tmp_path / "trace.csv"
    code = main(["grasp", "--config", cfg, "--target-force-n", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERR:ActuatorStall:")


def test_grasp_backdrive_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, gripper_config(latch=False))
    out = tmp_path / "trace.csv"
    code = main(["grasp", "--config", cfg, "--target-force-n", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERR:BackdriveFault:")


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_grasp_non_finite_target_exit_2(tmp_path, capsys, target):
    cfg = write_config(tmp_path, gripper_config())
    out = tmp_path / "trace.csv"
    code = main(["grasp", "--config", cfg, "--target-force-n", target, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERR:UnreachableForce:target grip must be finite, got {target}\n"
    assert not out.exists()


# a magnet-like law: F falls from 96.2 N at x = 0 to 8.6 N at x_max
MAGNET = {"type": "power_law", "c": 0.5, "d_m": 0.03, "p": 1.5, "max_extension_m": 0.12}


def magnet_gripper_config(cap):
    cfg = json.loads((CONFIGS / "gripper.json").read_text())
    cfg["spring"] = MAGNET
    cfg["gripper"].update(stage_step_m=0.001, actuator_cap_n=cap)
    return cfg


def test_grasp_reaches_a_target_inside_a_decreasing_law(tmp_path):
    # 18.5 N lies between the magnet's end forces, above its force at x_max
    cfg = write_config(tmp_path, magnet_gripper_config(cap=100.0))
    proc = run_module("grasp", "--config", cfg, "--target-force-n", "18.5", "--out", "t.csv",
                      cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "final_grip_n=18.500000 " in proc.stdout


def test_grasp_on_a_decreasing_law_stalls_a_weak_actuator(tmp_path):
    # the slack converter holds the whole magnet force while the jaw closes
    cfg = write_config(tmp_path, magnet_gripper_config(cap=5.0))
    proc = run_module("grasp", "--config", cfg, "--target-force-n", "18.5", "--out", "t.csv",
                      cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("ERR:ActuatorStall:tick 50: ")


def test_grasp_target_past_a_linear_law_is_unreachable(tmp_path):
    # k * x_max = 100 N/m * 0.1205 m = 12.05 N
    cfg = write_config(tmp_path, json.loads((CONFIGS / "gripper.json").read_text()))
    proc = run_module("grasp", "--config", cfg, "--target-force-n", "12.1", "--out", "t.csv",
                      cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "ERR:UnreachableForce:12.1 N outside characteristic range\n"
    assert not (tmp_path / "t.csv").exists()


def test_grasp_requires_gripper_section(tmp_path, capsys):
    cfg = write_config(tmp_path, untruncated_config())
    code = main(["grasp", "--config", cfg, "--target-force-n", "10", "--out", "x.csv"])
    assert code == 1
    assert "gripper" in capsys.readouterr().err


# -- export-svg --------------------------------------------------------------------


def test_export_svg(tmp_path):
    cfg = write_config(tmp_path, prototype_config())
    profile = tmp_path / "profile.csv"
    svg = tmp_path / "shape.svg"
    assert main(["synthesize", "--config", cfg, "--out", str(profile)]) == 0
    assert main(["export-svg", "--profile", str(profile), "--out", str(svg)]) == 0
    content = svg.read_text()
    assert content.startswith("<?xml")
    assert "<path" in content


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["inf", "nan", "1e308", "1e306", "1e-320", "0", "-1"])
def test_export_svg_bad_scale_exit_1(tmp_path, capsys, scale):
    cfg = write_config(tmp_path, prototype_config())
    profile = tmp_path / "profile.csv"
    svg = tmp_path / "shape.svg"
    assert main(["synthesize", "--config", cfg, "--out", str(profile)]) == 0
    capsys.readouterr()
    code = main(["export-svg", "--profile", str(profile), "--out", str(svg), "--scale", scale])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERR:ValidationError:") and err.count("\n") == 1
    assert not svg.exists()


# -- config strictness ---------------------------------------------------------------


def test_unknown_key_rejected_by_name(tmp_path, capsys):
    cfg = prototype_config()
    cfg["pulley"]["radius_mm"] = 20.0
    code = main(["synthesize", "--config", write_config(tmp_path, cfg), "--out", "x.csv"])
    assert code == 1
    assert "pulley.radius_mm" in capsys.readouterr().err


def test_missing_key_rejected_by_name(tmp_path, capsys):
    cfg = prototype_config()
    del cfg["spring"]["k_n_per_m"]
    code = main(["synthesize", "--config", write_config(tmp_path, cfg), "--out", "x.csv"])
    assert code == 1
    assert "spring.k_n_per_m" in capsys.readouterr().err


def test_invalid_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["synthesize", "--config", str(path), "--out", "x.csv"]) == 1
    assert capsys.readouterr().err.startswith("ERR:ValidationError:")


@pytest.mark.parametrize(
    "section, key, literal, message",
    [
        ("spring", "k_n_per_m", "NaN", "'spring.k_n_per_m' must be finite"),
        ("counter", "load_n", "Infinity", "'counter.load_n' must be finite"),
        ("pulley", "circular_radius_m", "-Infinity", "'pulley.circular_radius_m' must be finite"),
        ("pulley", "r_max_m", "1e999", "'pulley.r_max_m' must be finite"),
        ("friction", "mu", "1" + "0" * 400, "'friction.mu' must be finite"),
        ("gripper", "stage_travel_m", "1e999", "'gripper.stage_travel_m' must be finite"),
        ("counter", "k2_n_per_m", "0.0", "no tension"),
        ("spring", "points_m_n", '"abc"',
         "'spring.points_m_n[1]' must be a real number, got 'abc'"),
        ("spring", "points_m_n", "true", "'spring.points_m_n[1]' must be a real number, got True"),
        ("spring", "points_m_n", "1e999", "'spring.points_m_n[1]' must be finite"),
        ("spring", "points_m_n", "1" + "0" * 400, "'spring.points_m_n[1]' must be finite"),
        ("pulley", "samples", "-5", "'pulley.samples' must be in [2, "),
        ("pulley", "samples", "0", "'pulley.samples' must be in [2, "),
        ("pulley", "samples", "1", "'pulley.samples' must be in [2, "),
        ("pulley", "samples", str(MAX_PROFILE_SAMPLES + 1), "'pulley.samples' must be in [2, "),
        ("pulley", "samples", "1" + "0" * 400,
         "'pulley.samples' must be in [2, 1048576], got 1" + "0" * 79 + "\n"),
    ],
    ids=[
        "nan", "infinity", "minus_infinity", "overflow", "huge_integer", "gripper", "no_tension",
        "point_string", "point_bool", "point_overflow", "point_huge_integer",
        "samples_negative", "samples_zero", "samples_one", "samples_above_limit",
        "samples_huge_integer",
    ],
)
def test_bad_config_value_exit_1(tmp_path, capsys, section, key, literal, message):
    cfg = gripper_config()
    cfg["pulley"].update(r_min_m=0.0, r_max_m=0.04)
    if key == "k2_n_per_m":
        cfg["counter"] = {"type": "spring", "t0_n": 0.0, "k2_n_per_m": 0.0}
    if key == "points_m_n":
        cfg["spring"] = {"type": "tabulated", "points_m_n": [[0.0, 0.0], [0.1205, 123456.789]]}
    else:
        cfg.setdefault(section, {})[key] = 123456.789
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace("123456.789", literal))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERR:ValidationError:") and err.count("\n") == 1
    assert message in err and len(err) <= 300
    assert "Traceback" not in err


def assert_one_validation_error(capsys, start):
    err = capsys.readouterr().err
    assert err.startswith("ERR:ValidationError:" + start) and err.count("\n") == 1


def test_synthesize_huge_circular_radius_exit_1(tmp_path, capsys):
    cfg = untruncated_config()
    del cfg["pulley"]["theta_max_deg"]
    cfg["pulley"]["circular_radius_m"] = 1e300
    out = tmp_path / "p.csv"
    assert main(["synthesize", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert_one_validation_error(capsys, "profile radii must be <= 1e+12 m")
    assert not out.exists()


def test_export_svg_huge_radius_exit_1(tmp_path, capsys):
    profile = tmp_path / "huge.csv"
    profile.write_text("theta_deg,r_mm\n0.0,1e290\n10.0,1e290\n")
    out = tmp_path / "huge.svg"
    assert main(["export-svg", "--profile", str(profile), "--out", str(out)]) == 1
    assert_one_validation_error(capsys, "profile radii must be <= 1e+12 m")
    assert not out.exists()


@pytest.mark.parametrize("step", [5e-324, 1e-9])
def test_grasp_tick_cap_exit_1(tmp_path, capsys, step):
    cfg = gripper_config()
    cfg["gripper"]["stage_step_m"] = step
    out = tmp_path / "trace.csv"
    path = write_config(tmp_path, cfg)
    assert main(["grasp", "--config", path, "--target-force-n", "10", "--out", str(out)]) == 1
    assert_one_validation_error(capsys, f"stage_step {step:g} m needs ")
    assert not out.exists()


def test_missing_config_file_exit_1(tmp_path, capsys):
    assert main(["synthesize", "--config", str(tmp_path / "no.json"), "--out", "x.csv"]) == 1
    assert capsys.readouterr().err.startswith("ERR:ValidationError:")


def test_spring_counter_config(tmp_path, capsys):
    cfg = {
        "spring": {"type": "linear", "k_n_per_m": 100.0, "max_extension_m": 0.12},
        "pulley": {"circular_radius_m": 0.02, "samples": 513},
        "counter": {"type": "spring", "t0_n": 10.0, "k2_n_per_m": 50.0},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--profile", str(out)]) == 0


def test_tabulated_spring_config(tmp_path):
    cfg = {
        "spring": {
            "type": "tabulated",
            "points_m_n": [[0.0, 0.0], [0.05, 2.0], [0.12, 10.0]],
        },
        "pulley": {"circular_radius_m": 0.02, "samples": 1024},
        "counter": {"type": "weight", "load_n": 10.0},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--profile", str(out)]) == 0


# -- usage errors and the shared parser ---------------------------------------------

GRIPPER = str(CONFIGS / "gripper.json")
LONG_PATH = "p" * 5_000   # past every file-name length limit
LONG_TEXT = "k" * 100_000
EMOJI_PATH = "\U0001F600" * 5_000   # four UTF-8 bytes a character


@pytest.mark.parametrize(
    "argv, start",
    [
        (["sweep", "--config", GRIPPER, "--gap-mm", "abc", "--out", "x.csv"],
         "floatconv sweep: argument --gap-mm: invalid float value: 'abc'"),
        (["sweep", "--config", GRIPPER], "floatconv sweep: the following arguments"),
        (["grasp", "--config", GRIPPER, "--out", "x.csv"], "floatconv grasp: the following"),
        (["export-svg", "--profile", "p.csv", "--out", "x.svg", "--scale", "big"],
         "floatconv export-svg: argument --scale: invalid float value"),
        (["sweep", "--config", GRIPPER, "--out", "x.csv", "--bogus"],
         "floatconv: unrecognized arguments: --bogus"),
        (["bogus"], "floatconv: argument command: invalid choice: 'bogus'"),
        ([], "floatconv: the following arguments are required: command"),
        # outside text is echoed cut: a path to 80 characters without the repeat an
        # OSError's text adds, a usage message to fit the line's 300 bytes
        (["synthesize", "--config", LONG_PATH, "--out", "x.csv"],
         f"cannot read {LONG_PATH[:80]}: File name too long\n"),
        (["verify", "--config", GRIPPER, "--profile", LONG_PATH],
         f"cannot read {LONG_PATH[:80]}: File name too long\n"),
        (["synthesize", "--config", GRIPPER, "--out", LONG_PATH],
         f"cannot write {LONG_PATH[:80]}: File name too long\n"),
        (["synthesize", "--config", GRIPPER, "--out", "."], "cannot write .: Is a directory\n"),
        # a path is cut to 80 UTF-8 bytes, a lone surrogate from a non-UTF-8 argv escaped
        (["synthesize", "--config", EMOJI_PATH, "--out", "x.csv"],
         f"cannot read {EMOJI_PATH[:20]}: File name too long\n"),
        (["synthesize", "--config", "\udcff" * 100, "--out", "x.csv"],
         "cannot read " + "\\udcff" * 13 + "\\u: No such file or directory\n"),
        (["export-svg", "--profile", "p.csv", "--out", "x.svg", "--scale", LONG_TEXT],
         "floatconv export-svg: argument --scale: invalid float value: 'kkk"),
        (["sweep", "--config", GRIPPER, "--gap-mm", LONG_TEXT, "--out", "x.csv"],
         "floatconv sweep: argument --gap-mm: invalid float value: 'kkk"),
        (["grasp", "--config", GRIPPER, "--target-force-n", LONG_TEXT, "--out", "x.csv"],
         "floatconv grasp: argument --target-force-n: invalid float value: 'kkk"),
        ([LONG_TEXT], "floatconv: argument command: invalid choice: 'kkk"),
        (["sweep", "--config", GRIPPER, "--out", "x.csv", LONG_TEXT],
         "floatconv: unrecognized arguments: kkk"),
    ],
)
def test_usage_error_is_one_validation_error_exit_1(tmp_path, monkeypatch, capsys, argv, start):
    monkeypatch.chdir(tmp_path)   # where a relative output path would be written
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERR:ValidationError:" + start) and err.count("\n") == 1
    assert len(err.encode()) <= 300
    assert_one_error_line_from_module(tmp_path, argv, start)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["sweep", "--help"], ["grasp", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: floatconv") and err == ""


# -- the texts --config appears in ----------------------------------------------------

REQUIRED = "the following arguments are required:"
# each config subcommand's whole ERR: line without its --config, with no other flag
# and with every other required flag
MISSING_CONFIG = [
    (["synthesize"], f"floatconv synthesize: {REQUIRED} --config, --out"),
    (["verify"], f"floatconv verify: {REQUIRED} --config, --profile"),
    (["sweep"], f"floatconv sweep: {REQUIRED} --config, --out"),
    (["grasp"], f"floatconv grasp: {REQUIRED} --config, --target-force-n, --out"),
    (["synthesize", "--out", "x.csv"], f"floatconv synthesize: {REQUIRED} --config"),
    (["verify", "--profile", "p.csv"], f"floatconv verify: {REQUIRED} --config"),
    (["sweep", "--gap-mm", "1", "--out", "x.csv"], f"floatconv sweep: {REQUIRED} --config"),
    (["grasp", "--target-force-n", "1", "--out", "x.csv"], f"floatconv grasp: {REQUIRED} --config"),
    (["export-svg", "--config", "x", "--profile", "p.csv", "--out", "x.svg"],
     "floatconv: unrecognized arguments: --config x"),
]


@pytest.mark.parametrize("argv, line", MISSING_CONFIG)
def test_config_flag_usage_errors_are_pinned(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"ERR:ValidationError:{line}\n")
    assert not any(tmp_path.iterdir())


USAGE = {
    "synthesize": "usage: floatconv synthesize [-h] --config CONFIG --out OUT\n",
    "verify": "usage: floatconv verify [-h] --config CONFIG --profile PROFILE\n",
    "sweep": "usage: floatconv sweep [-h] --config CONFIG [--gap-mm GAP_MM] --out OUT\n",
    "grasp": "usage: floatconv grasp [-h] --config CONFIG --target-force-n TARGET_FORCE_N\n"
             "                       --out OUT\n",
    "export-svg": "usage: floatconv export-svg [-h] --profile PROFILE --out OUT [--scale SCALE]\n",
}


@pytest.mark.parametrize("command", USAGE)
def test_subcommand_help_usage_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.split("\n\n")[0] + "\n" == USAGE[command] and err == ""


def test_verify_reads_the_config_before_the_profile(tmp_path, capsys):
    config, profile = str(tmp_path / "no.json"), str(tmp_path / "no.csv")
    assert main(["verify", "--config", config, "--profile", profile]) == 1
    assert capsys.readouterr() == (
        "", f"ERR:ValidationError:cannot read {config[:80]}: No such file or directory\n"
    )


def test_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    names = sorted(GOLDEN)
    runs = {}
    for name in names:
        (tmp_path / name).mkdir()
        runs[name] = pipeline(CONFIGS / f"{name}.json", tmp_path / name)
    noise = tmp_path / "noise"
    noise.mkdir()
    profile = str(noise / "profile.csv")
    assert main(["synthesize", "--config", GRIPPER, "--out", profile]) == 0
    disturb = [
        (["sweep", "--config", GRIPPER, "--gap-mm", "7", "--out", str(noise / "s.csv")], 0),
        (["export-svg", "--profile", profile, "--out", str(noise / "p.svg"), "--scale", "5"], 0),
        (["sweep", "--config", GRIPPER, "--gap-mm", "abc", "--out", "x.csv"], 1),
        (["grasp", "--config", GRIPPER, "--target-force-n", "10"], 1),
        (["export-svg", "--profile", profile], 1),
        (["bogus", "--scale", "5"], 1),
    ]
    subcommands = list(GOLDEN[names[0]])
    config_major = [(name, sub) for name in names for sub in subcommands]
    # synthesize first (verify and export-svg read its profile), then the
    # rest in reverse, each over the configs in reverse
    command_major = [
        (name, sub) for sub in subcommands[:1] + subcommands[:0:-1] for name in names[::-1]
    ]
    for order in (config_major, command_major):
        for i, (name, sub) in enumerate(order):
            argv, code = disturb[i % len(disturb)]
            assert main(argv) == code, argv
            argv, out = runs[name][sub]
            if out is not None:
                out.unlink(missing_ok=True)
            assert run(argv, out) == GOLDEN[name][sub], (name, sub)
    capsys.readouterr()


# -- the heap setup ----------------------------------------------------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setup acts on glibc only")
def test_a_repeated_design_chain_faults_in_no_fresh_pages(tmp_path, capsys):
    import resource

    cfg = json.loads(Path(GRIPPER).read_text())
    cfg["pulley"]["samples"] = 65536
    argvs = [argv for sub, (argv, _) in pipeline(write_config(tmp_path, cfg), tmp_path).items()
             if sub in ("synthesize", "verify", "export-svg")]
    assert [main(argv) for argv in argvs] == [0, 0, 0]
    # without the top pad glibc trims the heap after each large free, and the chain
    # faults in about 4,400 pages again
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    codes = [main(argv) for argv in argvs]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert codes == [0, 0, 0]
    assert faults < 500
    capsys.readouterr()


class _NoMallopt:
    """A C library without glibc's mallopt, as on macOS."""


def _no_library(name):
    raise OSError("no C library")   # what CDLL raises where dlopen finds nothing


@pytest.mark.parametrize("cdll", [_no_library, lambda name: _NoMallopt()],
                         ids=["no_library", "no_mallopt"])
def test_heap_setup_without_mallopt_changes_no_output(tmp_path, monkeypatch, cdll):
    loads = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: loads.append(name) or cdll(name))
    cli._keep_heap.cache_clear()
    try:
        # the first main call runs the setup, which returns quietly
        runs = pipeline(CONFIGS / "gripper.json", tmp_path)
        assert {sub: run(argv, out) for sub, (argv, out) in runs.items()} == GOLDEN["gripper"]
        assert loads == [None]
    finally:
        cli._keep_heap.cache_clear()   # the next main call sets the real heap up again


def test_a_large_output_is_written_without_a_whole_encoded_copy(tmp_path):
    import tracemalloc

    # 8 Mi characters; a 3-byte character ends each 1 Mi-character slice
    text = ("x" * ((1 << 20) - 1) + "\u20ac") * 8
    out = tmp_path / "big.txt"
    tracemalloc.start()
    try:
        cli._write(str(out), text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == text.encode("utf-8")
    assert peak < len(text)   # the whole text encoded at once is len(text) + 16 bytes


# -- entry points ----------------------------------------------------------------


def run_python(*args, cwd, stdout=subprocess.PIPE):
    src = str(Path(floatconv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )


def run_module(*args, cwd, stdout=subprocess.PIPE):
    return run_python("-m", "floatconv", *args, cwd=cwd, stdout=stdout)


def test_importing_the_cli_sets_up_no_heap(tmp_path):
    proc = run_python("-c", "from floatconv import cli; print(cli._keep_heap.cache_info().misses)",
                      cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_module_help_exits_0(tmp_path):
    proc = run_module("--help", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: floatconv")


def test_module_without_arguments_exits_1(tmp_path):
    proc = run_module(cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("ERR:ValidationError:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_module_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_module("sweep", "--config", GRIPPER, "--out", str(out), cwd=tmp_path)
    code, stdout_sha, out_sha = GOLDEN["gripper"]["sweep"]
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha


@pytest.mark.parametrize("argv", [
    ["synthesize", "--out", "out.csv"],
    ["verify", "--profile", "profile.csv"],
    ["sweep", "--out", "out.csv"],
    ["grasp", "--target-force-n", "10", "--out", "out.csv"],
], ids=lambda argv: argv[0])
def test_a_closed_stdout_pipe_is_one_error_line(tmp_path, argv):
    # as under `| head -c0`: the summary finds no reader, and the output goes with it
    assert run_module("synthesize", "--config", GRIPPER, "--out", "profile.csv",
                      cwd=tmp_path).returncode == 0
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module(argv[0], "--config", GRIPPER, *argv[1:], cwd=tmp_path, stdout=write)
    finally:
        os.close(write)
    # one short ERR line: no traceback, and no "Exception ignored" from the flush at exit
    assert proc.returncode == 1
    assert proc.stderr == "ERR:ValidationError:cannot write stdout: Broken pipe\n"
    assert not (tmp_path / "out.csv").exists()


# A fresh interpreter shows numpy's RuntimeWarnings on stderr, as a user sees
# them; the ERR line must be all there is.


@pytest.mark.parametrize(
    "section, value",
    [
        # the payout 2E / (t0 + sqrt(t0**2)) overflows for a subnormal load
        ("counter", {"type": "weight", "load_n": 5e-324}),
        # c / d**p overflows at x = 0, and the energy with it
        ("spring", {"type": "power_law", "c": 1e300, "d_m": 1e-10, "p": 30,
                    "max_extension_m": 0.12043}),
    ],
    ids=["subnormal_load", "overflowing_power_law"],
)
def test_synthesis_overflow_is_one_error_line(tmp_path, section, value):
    cfg = gripper_config()
    cfg[section] = value
    out = tmp_path / "profile.csv"
    proc = run_module("synthesize", "--config", write_config(tmp_path, cfg), "--out", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "ERR:ValidationError:profile samples must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "theta_max_deg, argv, err",
    [
        # R*theta_max = 0.139626 m of synthesis samples past the spring's 0.1205 m
        (400, ["synthesize"], "value range [0, 0.139626] outside domain [0, 0.1205]"),
        # the 0.1 m stroke to 10 N past the pulley's 0.0798 m range: the first
        # gripping tick past it, u = 0.08 m, is refused
        (200, ["grasp", "--target-force-n", "10"],
         "value range [0.08, 0.08] outside domain [0, 0.0798132]"),
    ],
    ids=["synthesize_past_the_spring", "grasp_past_the_pulley"],
)
def test_a_range_past_a_domain_end_is_one_domain_error_line(tmp_path, theta_max_deg, argv, err):
    cfg = json.loads((CONFIGS / "gripper.json").read_text(encoding="utf-8"))
    cfg["pulley"]["theta_max_deg"] = theta_max_deg
    out = tmp_path / "out.csv"
    proc = run_module(*argv, "--config", write_config(tmp_path, cfg), "--out", str(out),
                      cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"ERR:DomainError:{err}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "spring",
    [
        None,   # the config's own linear law, F(0) = 0
        {"type": "power_law", "c": 0.002, "d_m": 0.005, "p": 2.0, "max_extension_m": 0.03},
    ],
    ids=["linear", "power_law"],
)
def test_a_counter_without_pretension_is_singular_at_theta_0(tmp_path, spring):
    # with t0 = 0 the counter's tension at theta = 0 is 0, whatever F(0) is
    cfg = json.loads((CONFIGS / "spring_counter.json").read_text(encoding="utf-8"))
    cfg["counter"]["t0_n"] = 0
    if spring is not None:
        cfg["spring"] = spring
    out = tmp_path / "profile.csv"
    proc = run_module("synthesize", "--config", write_config(tmp_path, cfg), "--out", str(out),
                      cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "ERR:SingularityError:counter tension reached zero while recovering radii\n"
    )
    assert not out.exists()


def test_sweep_with_a_non_finite_summary_exits_2_before_writing(tmp_path):
    # a 1e308 N friction offset over a spring force near 0 overflows ratio_point
    cfg = gripper_config()
    cfg["friction"] = {"offset_n": 1e308}
    out = tmp_path / "sweep.csv"
    proc = run_module("sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "ERR:NumericalError:sweep summary is not finite or exceeds 1e+15: "
    )
    assert proc.stderr.endswith(" ratio_point=inf\n") and proc.stderr.count("\n") == 1
    assert not out.exists()


# -- every file the CLI opens goes through one reader ----------------------------

# bytes that are not UTF-8: a UTF-16 byte-order mark before a JSON object
NOT_UTF8 = b"\xff\xfe{}"


def assert_one_error_line_from_module(tmp_path, argv, start, out=None):
    proc = run_module(*argv, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("ERR:ValidationError:" + start)
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) <= 300
    assert out is None or not out.exists()


@pytest.mark.parametrize("command", ["synthesize", "verify", "export-svg"])
def test_non_utf8_file_is_one_error_line(tmp_path, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    out = tmp_path / "out.txt"
    argv = {
        "synthesize": ["synthesize", "--config", str(bad), "--out", str(out)],
        "verify": ["verify", "--config", GRIPPER, "--profile", str(bad)],
        "export-svg": ["export-svg", "--profile", str(bad), "--out", str(out)],
    }[command]
    start = f"cannot read {str(bad)[:80]}: 'utf-8' codec"
    assert_one_error_line_from_module(tmp_path, argv, start, out)


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a": ', "}")], ids=["array", "object"])
def test_deeply_nested_config_is_one_error_line(tmp_path, opener, closer):
    path = tmp_path / "deep.json"
    path.write_text(opener * 1000 + "0" + closer * 1000)
    out = tmp_path / "profile.csv"
    argv = ["synthesize", "--config", str(path), "--out", str(out)]
    start = f"config {str(path)[:80]} is not valid JSON: "
    assert_one_error_line_from_module(tmp_path, argv, start, out)


def test_config_with_a_5001_digit_integer_is_one_error_line(tmp_path):
    # Python 3.11+ json refuses an int literal of more than 4,300 digits with a
    # ValueError; a Python without that limit reads the int, and the config as inf
    cfg = gripper_config()
    cfg["friction"] = {"mu": 123456.789}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace("123456.789", "1" + "0" * 5000), encoding="utf-8")
    out = tmp_path / "profile.csv"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    start = (f"config {str(path)[:80]} is not valid JSON: " if 0 < limit < 5001
             else "config: 'friction.mu' must be finite, got inf")
    argv = ["synthesize", "--config", str(path), "--out", str(out)]
    assert_one_error_line_from_module(tmp_path, argv, start, out)


def test_duplicate_top_level_key_is_refused(tmp_path, capsys):
    text = Path(GRIPPER).read_text(encoding="utf-8").rstrip().removesuffix("}")
    path = tmp_path / "config.json"
    path.write_text(text + ',\n  "counter": {"type": "weight", "load_n": 5.0}\n}\n')
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ERR:ValidationError:config: duplicate key 'counter'\n"
    assert not out.exists()


def test_duplicate_nested_key_is_refused(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(gripper_config()).replace(
        '"stage_step_m": 0.01', '"stage_step_m": 0.01, "stage_step_m": 0.02'
    ))
    out = tmp_path / "trace.csv"
    assert main(["grasp", "--config", str(path), "--target-force-n", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ERR:ValidationError:config: duplicate key 'stage_step_m'\n"
    assert not out.exists()


def test_a_duplicate_key_is_echoed_cut(tmp_path, capsys):
    key = "k" * 100_000
    path = tmp_path / "config.json"
    path.write_text(f'{{"{key}": 1, "{key}": 2}}')
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ERR:ValidationError:config: duplicate key '{key[:80]}'\n"
    assert not out.exists()
