"""Golden outputs: every subcommand on every shipped config, byte for byte.

Each entry pins the exit code, the sha256 of stdout and the sha256 of the
output file (None when the subcommand writes none) for one subcommand run
on one ``configs/*.json``. A change to any of these bytes must be
deliberate: update the entry and explain the change in CHANGES.md.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from floatconv.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "gripper": {
        "synthesize": (
            0,
            "678ef8ac73a6be5c20d14f788ac83d1b2022c0252e8d9c10b5f5e7108b757588",
            "882b34b6989a0b90f401896f3c18801dda5f95a41b17d31afb5a26540f637ff1",
        ),
        "verify": (
            0,
            "45671a45e8c9acd2dcd1ca962ee0831dd860459f99bd5e7bbeb1b672f2311d9e",
            None,
        ),
        "sweep": (
            0,
            "72d5e5cad8c21f7b43524aaf141f809fd58ffd927d6389c753c4b57cf9292a4c",
            "b023d63169d81916052dae3dc402cdf31049e2443c6d0dff7a7bf4578c165609",
        ),
        "export-svg": (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "4204a04b4a53e8d1f57356c899da49d03800cf3a4475a3b5c55f4ee1895555fa",
        ),
        "grasp": (
            0,
            "75399473105546464b757f35bc70f907a1976fb38e55881845e2abc954151767",
            "bda34150725bd2080853c70bc6ddd7136dae03098226ca055bc57d4d6050bfa1",
        ),
    },
    # the paper's magnet; grasp exits 1, as the config has no gripper section
    "ib_magnet": {
        "synthesize": (
            0,
            "280c11bd707f663f1b64f6f174c5ff96006153f42e7d21332fe936422825bfba",
            "269db7989ddc2d2b404dc7bbbfbb98f9e1183d81376adc1fb51cd965c90614dd",
        ),
        "verify": (
            0,
            "63e8977b77e43ebdc7f7645403662e11734c986bf278c4caf19ba95bdf15e095",
            None,
        ),
        "sweep": (
            0,
            "c4b8855800058b3126a34f5836c2f5b52a7f04e6f74af2067de8cb4cefdd9396",
            "e24e9a4d57af6de22b244f33fc97947320d2f93a8a45bbec128bbac62f532f37",
        ),
        "export-svg": (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "3f24ceb0e7c69187b646e582e708b6242e33d98e266b5c60e905d7976af4bbad",
        ),
        "grasp": (
            1,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            None,
        ),
    },
    "spring_counter": {
        "synthesize": (
            0,
            "79bda304e2d03c10a4d190029862b0fb49524bf6125a802a9b5efbe366485647",
            "c8059c292dbd1871f7eb51098c64bee472fd067558480a1fbe2f03ddbc784469",
        ),
        "verify": (
            0,
            "0c96c68fe05103ca76f359d487beb2ae4a5530ae8d2e6792c8e054b86534f5f9",
            None,
        ),
        "sweep": (
            0,
            "621bfa6c4f92dad31246bd53e5e87811745575be203c191b8954d508c285d0bc",
            "0f80f78fe2bd914141f04a0f2e1f532cfbd8e255dc4b56e73f2b05198dbb7d68",
        ),
        "export-svg": (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "8a3944e7e5c4aa703ad3f04d9c3555e505987a702002b36dad82a2114aadd760",
        ),
        "grasp": (
            1,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            None,
        ),
    },
    "truncated_pulley": {
        "synthesize": (
            0,
            "4909ca91a46f85d4b50b890844463ce5feb9f15eda2e73e3c69e885a796961aa",
            "e53cf984dfd79aa42762148ba2e1869d047d990251aae7efc7ba2055178556a1",
        ),
        # verify checks the clamped radii against the truncation bounds
        # and reports clamped_to_deg; it used to compare them with the
        # unclamped law and exit 2
        "verify": (
            0,
            "13d0ce91d706487a79401162f07ccb9ad2b8730d09ec8ab0ebe930c194b593e9",
            None,
        ),
        "sweep": (
            0,
            "4bbd2691b377e9fbaec0b7b833b99796081d3d8cfc07b85cc685e622b55994ba",
            "af4500c9ab85ba9a318addf97391dacf81be934fb8e6625944c7699ab70d22ad",
        ),
        "export-svg": (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5bdcf0d1d7a6316a2acc5cfd5aab75be789a833eeda020aa21a254150b315f60",
        ),
        "grasp": (
            1,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            None,
        ),
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, out: Path | None):
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    produced = _sha(out.read_bytes()) if out is not None and out.exists() else None
    return code, _sha(buf.getvalue().encode()), produced


def pipeline(config: Path, work: Path) -> dict:
    """Map each subcommand to its (argv, output path or None) on one config.

    Insertion order is a valid run order: verify and export-svg read the
    profile that synthesize writes.
    """
    cfg = str(config)
    csv, svg = work / "profile.csv", work / "profile.svg"
    sweep, trace = work / "sweep.csv", work / "trace.csv"
    return {
        "synthesize": (["synthesize", "--config", cfg, "--out", str(csv)], csv),
        "verify": (["verify", "--config", cfg, "--profile", str(csv)], None),
        "sweep": (["sweep", "--config", cfg, "--out", str(sweep)], sweep),
        "export-svg": (["export-svg", "--profile", str(csv), "--out", str(svg)], svg),
        "grasp": (
            ["grasp", "--config", cfg, "--target-force-n", "10", "--out", str(trace)],
            trace,
        ),
    }


def run_pipeline(config: Path, work: Path) -> dict:
    """Run every subcommand on one config; map subcommand to its hashes."""
    return {sub: run(argv, out) for sub, (argv, out) in pipeline(config, work).items()}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_shipped_config_outputs_are_golden(tmp_path, capsys, name):
    got = run_pipeline(CONFIGS / f"{name}.json", tmp_path)
    capsys.readouterr()
    assert got == GOLDEN[name]
