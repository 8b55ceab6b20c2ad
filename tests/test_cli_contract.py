"""The CLI input contract: every run ends in success with finite artifacts,
or in one ``ERR:`` line with exit 1 or 2 and no file written.

Configs are copies of ``configs/*.json`` with one or two values replaced;
the command-line numbers get the same values. pytest's
``error::RuntimeWarning`` filter turns a numpy warning that would reach
stderr into a failure of the in-process runs.
"""

import copy
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_cli import CONFIGS, run_module

from floatconv import cli
from floatconv.cli import main
from floatconv.errors import NumericalError, ValidationError

BASE = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1e308)
COMMANDS = ("synthesize", "verify", "sweep", "grasp", "export-svg")
CONSTANT_LAW = {"type": "constant", "f0_n": 1e-200, "max_extension_m": 0.1205}
# finite but huge lengths, which once printed numbers hundreds of digits long
HUGE_DOMAIN = {"type": "constant", "f0_n": 1.0, "max_extension_m": 1e300}
HUGE_STAGE = [("gripper.stage_step_m", 1e290), ("gripper.stage_travel_m", 1e300),
              ("gripper.object_position_m", 1.5e290)]
# finite but huge forces under small summaries: a 1e300 N law balanced by a 1e300 N
# weight, a balanced 1e14 N law under a 1e16 N friction offset, and a 1e300 N/m grasp
HUGE_BALANCE = [("spring", {"type": "constant", "f0_n": 1e300, "max_extension_m": 0.12}),
                ("counter.load_n", 1e300)]
WIDE_BAND = [("spring", {"type": "constant", "f0_n": 1e14, "max_extension_m": 0.12}),
             ("counter.load_n", 1e14), ("friction.offset_n", 1e16)]
HUGE_GRASP = [("spring.k_n_per_m", 1e300), ("counter.load_n", 1e300),
              ("gripper.actuator_cap_n", 1e308)]
# the longest number a successful run may print or write
MAX_TOKEN = 25
NUMBER = re.compile(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?")


def numeric_leaves(node, prefix=""):
    """Dotted paths of the numbers in a config (booleans are not numbers)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{prefix}{key}.")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix[:-1]


LEAVES = {name: sorted(numeric_leaves(cfg)) for name, cfg in BASE.items()}


def edited(name, edits):
    """A copy of configs/<name>.json with each dotted path set to its value."""
    cfg = copy.deepcopy(BASE[name])
    for path, value in edits:
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = value
    return cfg


def shipped_profile(workdir: Path, name: str) -> Path:
    """The profile that synthesize writes for the unedited config."""
    out = workdir / f"{name}.csv"
    if not out.exists():
        with redirect_stdout(StringIO()):
            assert main(["synthesize", "--config", str(CONFIGS / f"{name}.json"),
                         "--out", str(out)]) == 0
    return out


def argv_for(command, config, profile, out, flag):
    """The argv of one run; flag None keeps the flag's default."""
    if command == "export-svg":
        argv = ["export-svg", "--profile", str(profile), "--out", str(out)]
        return argv + ([] if flag is None else [f"--scale={flag!r}"])
    argv = [command, "--config", str(config)]
    if command == "verify":
        return argv + ["--profile", str(profile)]
    argv += ["--out", str(out)]
    if command == "grasp":
        return argv + [f"--target-force-n={10.0 if flag is None else flag!r}"]
    if command == "sweep" and flag is not None:
        argv.append(f"--gap-mm={flag!r}")
    return argv


def assert_contract(code, stdout, stderr, out: Path):
    if code == 0:
        assert stderr == ""
        written = out.read_text() if out.exists() else ""
        assert not re.search(r"(?i)nan|inf", written), written[:400]
        longest = max(map(len, NUMBER.findall(stdout + written)), default=0)
        assert longest <= MAX_TOKEN, (stdout + written)[:400]
    else:
        assert code in (1, 2)
        assert re.fullmatch(r"ERR:\w+:[^\n]*\n", stderr), stderr
        assert len(stderr.encode()) <= 300
        assert not out.exists()


# -- the reproductions, each in a fresh interpreter, where numpy warnings show --


@pytest.mark.parametrize(
    "name, command, edits, code, err",
    [
        # the truncation window is checked when the config is read
        ("truncated_pulley", "verify", [("pulley.r_min_m", 0.05)], 1,
         "ERR:ValidationError:need 0 <= r_min < r_max, got [0.05, 0.04]\n"),
        ("truncated_pulley", "verify", [("pulley.r_min_m", 1e308)], 1,
         "ERR:ValidationError:need 0 <= r_min < r_max, got [1e+308, 0.04]\n"),
        # a subnormal radius overflows every force divided by it
        ("gripper", "sweep", [("pulley.circular_radius_m", 5e-324)], 1,
         "ERR:ValidationError:config: 'pulley.circular_radius_m' must be >= 1e-06, "
         "got 5e-324\n"),
        ("gripper", "verify", [("pulley.circular_radius_m", 5e-324)], 1,
         "ERR:ValidationError:config: 'pulley.circular_radius_m' must be >= 1e-06, "
         "got 5e-324\n"),
        # R * theta overflows to inf, which the law refuses without a warning
        ("spring_counter", "verify", [("pulley.circular_radius_m", 1e308)], 1,
         "ERR:DomainError:displacement must be finite\n"),
        # finite but huge summaries: a friction band that dwarfs the spring
        ("gripper", "sweep", [("friction.offset_n", 1e290)], 2,
         "ERR:NumericalError:sweep summary is not finite or exceeds 1e+15: "
         "op_force_const=3.55271e-15 N ratio_peak=8.29876e+288 ratio_point=2.11618e+291\n"),
        ("gripper", "sweep", [("spring", CONSTANT_LAW), ("friction.offset_n", 0.01)], 2,
         "ERR:NumericalError:sweep summary is not finite or exceeds 1e+15: "
         "op_force_const=0 N ratio_peak=1e+198 ratio_point=0\n"),
        ("gripper", "sweep", HUGE_BALANCE, 2,
         "ERR:NumericalError:sweep forces are not finite or exceed 1e+15: "
         "spring=1e+300 N counter=1e+300 N banded=0 N\n"),
        ("gripper", "sweep", WIDE_BAND, 2,
         "ERR:NumericalError:sweep forces are not finite or exceed 1e+15: "
         "spring=1e+14 N counter=1e+14 N banded=1e+16 N\n"),
        # finite but huge lengths: a law's domain and a stage's travel are bounded
        ("gripper", "synthesize", [("spring", HUGE_DOMAIN)], 1,
         "ERR:ValidationError:x_max must be <= 1e+06, got 1e+300\n"),
        ("gripper", "sweep", [("spring", HUGE_DOMAIN)], 1,
         "ERR:ValidationError:x_max must be <= 1e+06, got 1e+300\n"),
        ("gripper", "grasp", HUGE_STAGE, 1,
         "ERR:ValidationError:stage_travel must be <= 1e+06, got 1e+300\n"),
        # theta_max is 1.2e-11 rad: every theta would be written as 0.000000
        ("gripper", "synthesize", [("pulley.circular_radius_m", 1e10)], 1,
         "ERR:ValidationError:profile thetas must be strictly increasing at 6 decimals "
         "of a degree: samples 0 and 1 are written as 0.000000 and 0.000000\n"),
        # the gap x is the grasp plan's, or the sweep's --gap-mm: not a config key
        *[("gripper", command, [("gap_x_m", 0.0)], 1,
           "ERR:ValidationError:config: unknown key 'gap_x_m'\n")
          for command in ("synthesize", "verify", "sweep", "grasp")],
    ],
    ids=[
        "inverted_window", "huge_r_min", "subnormal_radius_sweep", "subnormal_radius_verify",
        "huge_radius_verify", "huge_friction_offset", "tiny_constant_force",
        "huge_balanced_forces", "huge_friction_band",
        "huge_domain_synthesize", "huge_domain_sweep", "huge_stage_grasp",
        "huge_radius_synthesize", "gap_key_synthesize", "gap_key_verify", "gap_key_sweep",
        "gap_key_grasp",
    ],
)
def test_refusal_is_one_error_line_and_no_file(tmp_path, name, command, edits, code, err):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(edited(name, edits)))
    profile = shipped_profile(tmp_path, name)
    out = tmp_path / "out.csv"
    before = sorted(tmp_path.iterdir())
    proc = run_module(*argv_for(command, config, profile, out, None), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)
    assert sorted(tmp_path.iterdir()) == before


def test_a_grasp_to_a_huge_force_is_one_error_line_and_no_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(edited("gripper", HUGE_GRASP)))
    before = sorted(tmp_path.iterdir())
    proc = run_module(*argv_for("grasp", config, None, tmp_path / "out.csv", 1e298),
                      cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "ERR:NumericalError:grasp forces are not finite or exceed 1e+15: "
        "grip=1e+298 N actuator=1e+298 N amplification=1\n"
    )
    assert sorted(tmp_path.iterdir()) == before


# ASCII text, then a lone surrogate that stderr writes as the six bytes \udcff, then
# four-byte characters: the 300-byte cut of an ERR:NumericalError: line falls between
# two of them, that of an ERR:ValidationError: line, one byte longer, inside one
LONG_MESSAGE = "m" * 102 + "\udcff" + "\U0001F600" * 9_897


@pytest.mark.parametrize("error", [ValidationError, NumericalError])
def test_a_long_message_is_one_error_line_of_300_bytes(tmp_path, monkeypatch, capsys, error):
    def refuse(cfg):
        raise error(LONG_MESSAGE)

    monkeypatch.setattr(cli, "synthesize_from_config", refuse)
    out = tmp_path / "profile.csv"
    assert main(["synthesize", "--config", str(CONFIGS / "gripper.json"),
                 "--out", str(out)]) == error.exit_code
    stdout, stderr = capsys.readouterr()
    # the bytes stderr writes, which escape a lone surrogate
    line = stderr.encode(errors="backslashreplace")
    whole = f"ERR:{error.__name__}:{LONG_MESSAGE}\n".encode(errors="backslashreplace")
    assert stdout == "" and line.count(b"\n") == 1 and line.endswith(b"\n")
    # cut on a character boundary, to at most 300 bytes with the LF
    assert whole.startswith(line[:-1]) and line.decode()
    assert 300 - 3 <= len(line) <= 300
    assert not out.exists()


# -- the property ------------------------------------------------------------------


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(BASE)))
    edits = draw(st.lists(
        st.tuples(st.sampled_from(LEAVES[name]), st.sampled_from(SPECIAL)),
        min_size=1, max_size=2,
    ))
    return name, edits


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(deadline=None, max_examples=250, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    case=cases(),
    command=st.sampled_from(COMMANDS),
    flag=st.one_of(st.none(), st.sampled_from(SPECIAL)),
)
@example(case=("truncated_pulley", [("pulley.r_min_m", 0.05)]), command="verify", flag=None)
@example(case=("truncated_pulley", [("pulley.r_min_m", 1e308)]), command="verify", flag=None)
@example(case=("gripper", [("pulley.circular_radius_m", 5e-324)]), command="sweep", flag=None)
@example(case=("gripper", [("pulley.circular_radius_m", 5e-324)]), command="verify", flag=None)
@example(case=("spring_counter", [("pulley.circular_radius_m", 1e308)]), command="verify",
         flag=None)
@example(case=("gripper", [("friction.offset_n", 1e290)]), command="sweep", flag=None)
@example(case=("gripper", [("spring", CONSTANT_LAW), ("friction.offset_n", 0.01)]),
         command="sweep", flag=None)
@example(case=("gripper", [("spring", HUGE_DOMAIN)]), command="synthesize", flag=None)
@example(case=("gripper", [("spring", HUGE_DOMAIN)]), command="sweep", flag=None)
@example(case=("gripper", HUGE_STAGE), command="grasp", flag=None)
@example(case=("gripper", HUGE_BALANCE), command="sweep", flag=None)
@example(case=("gripper", HUGE_GRASP), command="grasp", flag=1e298)
@example(case=("gripper", [("pulley.circular_radius_m", 1e10)]), command="synthesize", flag=None)
def test_every_run_succeeds_cleanly_or_is_one_error_line(workdir, case, command, flag):
    name, edits = case
    profile = shipped_profile(workdir, name)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out.file"
        config.write_text(json.dumps(edited(name, edits)))
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv_for(command, config, profile, out, flag))
        assert_contract(code, stdout.getvalue(), stderr.getvalue(), out)
