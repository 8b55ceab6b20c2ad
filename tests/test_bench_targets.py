"""The benchmark's tracing targets name functions the package still has, and
the grasp calls the span counts of the benchmark rely on."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import floatconv
from floatconv import (
    CounterElement,
    FloatingConverter,
    ForceCharacteristic,
    GripperModel,
    plan_grasp,
    simulate_grasp,
    synthesize_weight_counter,
)

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


# bench/workloads.py expects one converter.force_components span per
# gripping tick (one for a fault on the first tick), and bench/tracing.py
# counts trace rows with len(trace.rows).


def _grasp_model(latch=True, cap=2.0):
    spring = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    profile = synthesize_weight_counter(spring, 0.02, 10.0)
    conv = FloatingConverter(spring, profile, CounterElement.weight(10.0))
    return GripperModel(conv, 0.1, 0.004, latch, cap, 0.05)


def _count_force_components(monkeypatch):
    calls = []
    original = FloatingConverter.force_components

    def counted(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(FloatingConverter, "force_components", counted)
    return calls


def test_grasp_evaluates_the_converter_once_per_gripping_tick(monkeypatch):
    model = _grasp_model()
    plan = plan_grasp(model, 9.0)
    calls = _count_force_components(monkeypatch)
    trace = simulate_grasp(plan)
    counts = dict(trace.phase_counts)
    assert counts["gripping"] == 23   # ceil(0.09 m / 0.004 m)
    assert len(calls) == counts["gripping"]
    assert counts["positioning"] == 13   # tick 0 and 12 stage steps
    assert len(trace.rows) == len(trace.jaw) == 13 + 23 + 1


@pytest.mark.parametrize("fault", ["BackdriveFault", "ActuatorStall"])
def test_grasp_fault_on_the_first_tick_evaluates_the_converter_once(monkeypatch, fault):
    model = _grasp_model(latch=False) if fault == "BackdriveFault" else _grasp_model(cap=0.1)
    plan = plan_grasp(model, 9.0)
    calls = _count_force_components(monkeypatch)
    with pytest.raises(getattr(floatconv, fault), match=r"^tick 13: "):
        simulate_grasp(plan)
    assert len(calls) == 1
