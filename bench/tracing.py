"""Span tracing of floatconv's public functions, patched from outside.

Only the traced run installs the patches; untraced runs execute the
package exactly as shipped. A span records (name, start_ns, end_ns,
parent span index, op id). Self time is a span's duration minus the
durations of its direct children, accumulated per name while the run
goes, so the spans themselves are kept for one pass only and written out
at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter_ns

# (module, owner, attribute, end-to-end metric the layer should move):
# owner is a class name inside the module, or None for a module-level
# function. Every module of the package that holds the same function
# object (from-imports in cli, config and the package root) is patched too.
_SYNTH = "synthesize_s on design; sweep_s on scan"
_FORCE = "grasp_s on grasp; verify_s on design"
_CONVERTER = "sweep_s, analyze_s on scan"
_PROFILE_IO = "synthesize_s, export_svg_s, verify_s on design"
_PER_CALL = "sweep_s, batch_s on scan"
TARGETS = (
    ("characteristics", "ForceCharacteristic", "force_at", "grasp_s on grasp"),
    ("characteristics", "ForceCharacteristic", "stored_energy", "verify_s, batch_s on design"),
    ("pulley", None, "synthesize_weight_counter", _SYNTH),
    ("pulley", None, "synthesize_spring_counter", _SYNTH),
    ("pulley", "PulleyProfile", "truncated", _SYNTH),
    ("pulley", "PulleyProfile", "realized_force", _FORCE),
    ("pulley", "PulleyProfile", "payout", _FORCE),
    ("pulley", "PulleyProfile", "balance_residual", _FORCE),
    ("converter", "FloatingConverter", "force_components", "grasp_s on grasp"),
    ("converter", "FloatingConverter", "operating_force", _CONVERTER),
    ("converter", "FloatingConverter", "sweep", _CONVERTER),
    ("converter", "FloatingConverter", "energy_ledger", _CONVERTER),
    ("converter", "FloatingConverter", "equilibrium_displacement", _CONVERTER),
    ("gripper", None, "plan_grasp", "grasp_s on grasp"),
    ("gripper", None, "simulate_grasp", "grasp_s on grasp"),
    ("export", None, "profile_to_csv", _PROFILE_IO),
    ("export", None, "profile_to_svg", _PROFILE_IO),
    ("export", None, "read_profile_csv", _PROFILE_IO),
    ("export", None, "trace_to_csv", "grasp_s on grasp"),
    ("export", None, "sweep_to_csv", "sweep_s on scan"),
    ("config", None, "parse_config", _PER_CALL),
    ("config", None, "synthesize_from_config", _PER_CALL),
    ("cli", None, "main", _PER_CALL),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, _, attr, _ in TARGETS)
MOVES = {f"{mod}.{attr}": moves for mod, _, attr, moves in TARGETS}
# counters fed from return values rather than spans
COUNTERS = ("gripper.trace_rows", "export.bytes_out")


class Tracer:
    """Collects spans and per-name (calls, self_ns) while patches are installed."""

    def __init__(self):
        self.op_id = -1
        self._stack: list[list[int]] = []  # [span index, child_ns]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Start a new pass: clear spans, call counts, self times and counters."""
        self.spans: list[tuple | None] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, counter: str, measure):
        def add(result):
            self.counters[counter] += measure(result)

        return add

    def install(self):
        """Patch every target at every binding site inside the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sys.modules.items() if n == "floatconv" or n.startswith("floatconv.")
        ]
        for mod_name, owner, attr, _ in TARGETS:
            module = sys.modules[f"floatconv.{mod_name}"]
            name = f"{mod_name}.{attr}"
            on_result = None
            if name == "gripper.simulate_grasp":
                on_result = self._count("gripper.trace_rows", lambda trace: len(trace.rows))
            elif name.startswith("export.") and attr != "read_profile_csv":
                on_result = self._count("export.bytes_out", lambda text: len(text.encode()))
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._set(cls, attr, original, self._wrap(name, original, on_result))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, on_result)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, original, wrapper)

    def _set(self, holder, key, original, wrapper):
        self._patches.append((holder, key, original))
        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()


def write_spans(path, spans, record: dict):
    """Write the run record and one pass's spans as gzipped JSON lines."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"record": record}) + "\n")
        for name, start, end, parent, op in spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")
