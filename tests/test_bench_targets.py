"""The benchmark's tracing targets name functions the package still has."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module, owner, attr", [t[:3] for t in TARGETS], ids=[f"{t[0]}.{t[2]}" for t in TARGETS]
)
def test_tracing_target_resolves(module, owner, attr):
    mod = importlib.import_module(f"floatconv.{module}")
    holder = mod if owner is None else getattr(mod, owner)
    assert callable(getattr(holder, attr))
