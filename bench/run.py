"""floatconv benchmark: one workload, one process, a closed loop with one client.

    python3 bench/run.py --workload design|grasp|scan|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. A run writes its seeded inputs to a temporary directory, runs one
warm-up pass whose outputs are checked against the oracles in
workloads.py, then repeats the pass until --seconds have elapsed. Every
pass hashes each operation's exit code, stdout, stderr and output files;
a hash that differs from the warm-up pass fails that operation.

--trace 0 reports the end-to-end metrics (untraced passes only). The
gated times, batch_s and setup_s, are in reference seconds (see
REF_LOOP_S); the wall-clock values are printed beside them.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics: calls and self time per public function, measured
from outside by tracing.py, plus the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The run record and
one traced pass's spans are written to .bench_out/.
"""

from __future__ import annotations

import os

# single-threaded numpy, set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import MOVES, SPAN_NAMES, Tracer, write_spans
from workloads import GENERATORS, WHY, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15
MIN_PASSES = 3
# The gated times are reported in reference seconds: each measured pass or
# probe is scaled by REF_LOOP_S / the time of reference_loop() run just
# before it, and the median is taken over those. Throughput of the shared
# 2-vCPU host drifts by up to 1.7x over minutes, which no number of passes
# averages out; the loop drifts with it. REF_LOOP_S is the loop's median on
# a 2.1 GHz Xeon vCPU (Python 3.11, numpy 2.4).
REF_LOOP_S = 0.020
_REF_XS = np.linspace(0.0, 1.0, 2049)
GROUPS = ("synthesize", "verify", "export_svg", "sweep", "grasp", "analyze")

# Layers whose self time goes into BENCHMARK.json's per_layer list: the
# ones every workload calls. The rest are printed in the layer table only,
# since a layer a workload never calls would report a constant 0 ms.
LAYER_TIMES = (
    "characteristics.force_at",
    "pulley.synthesize_weight_counter",
    "pulley.synthesize_spring_counter",
    "pulley.realized_force",
    "pulley.payout",
    "config.parse_config",
    "config.synthesize_from_config",
    "cli.main",
)
MODULES = ("characteristics", "pulley", "export", "config", "cli")

PROBE = """
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import floatconv.cli
t2 = time.perf_counter()
assert floatconv.cli.__file__.startswith(sys.argv[1])
print(t1 - t0, t2 - t0)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def reference_loop() -> float:
    """Seconds for a fixed mix like floatconv's own: interpreted arithmetic,
    numpy calls on scalars and numpy calls on 2049-point arrays."""
    start = perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += (i * 0.5) % 7.0
    for i in range(800):
        x = np.clip(np.asarray(i * 1.25e-3, dtype=float), 0.0, 1.0)
        if np.all(np.isfinite(x)):
            acc += float(np.interp(x, _REF_XS, _REF_XS))
    for _ in range(80):
        acc += float(np.interp(_REF_XS, _REF_XS, _REF_XS).sum())
    return perf_counter() - start


def probe_setup() -> tuple[list[float], list[float], list[float]]:
    """Fresh interpreters, one at a time, timed inside the child; a reference
    loop runs in this process before each."""
    numpy_s, setup_s, refs = [], [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_loop())
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        numpy_only, with_package = proc.stdout.split()
        numpy_s.append(float(numpy_only))
        setup_s.append(float(with_package))
    return numpy_s, setup_s, refs


def digest(out) -> str:
    h = hashlib.sha256()
    h.update(f"{out.code}\0{out.stdout}\0{out.stderr}\0".encode())
    for path in sorted(out.files):
        data = out.files[path]
        h.update(path.encode() + (b"\0missing\0" if data is None else b"\0" + data))
    value = out.value
    if hasattr(value, "radii"):   # a pulley profile
        h.update(value.radii)
    elif hasattr(value, "op_force_ideal"):   # a sweep table, hashed without copies
        for name in value.__dataclass_fields__:
            h.update(getattr(value, name))
    elif value is not None:
        h.update(repr(value).encode())
    return h.hexdigest()


class Runner:
    def __init__(self, ops, fc):
        self.ops = ops
        self.fc = fc
        self.reference: list[str] | None = None
        self.verdicts: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        self.nondeterministic: set[str] = set()

    def _execute(self, op, ctx):
        if op.argv is not None:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = self.fc.cli.main(op.argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = -1
            return Outcome(code, stdout.getvalue(), stderr.getvalue())
        try:
            return Outcome(0, value=op.call(ctx))
        except self.fc.FloatConvError as exc:
            return Outcome(exc.exit_code, stderr=f"ERR:{type(exc).__name__}:{exc}\n")
        except Exception:
            return Outcome(-1, stderr=traceback.format_exc())

    def run_pass(self, tracer=None) -> tuple[float, dict]:
        """One timed pass; returns (wall seconds, seconds per group)."""
        for op in self.ops:
            for path in op.outputs:
                path.unlink(missing_ok=True)
        gc.collect()   # every pass starts from the same heap state
        ctx: dict = {}
        outcomes, groups = [], dict.fromkeys(GROUPS, 0.0)
        start = perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
            t = perf_counter()
            outcomes.append(self._execute(op, ctx))
            if op.group in groups:
                groups[op.group] += perf_counter() - t
        wall = perf_counter() - start
        self._account(outcomes)
        return wall, groups

    def _account(self, outcomes):
        hashes = []
        for op, out in zip(self.ops, outcomes):
            out.files = {
                str(p): (p.read_bytes() if p.exists() else None) for p in op.outputs
            }
            hashes.append(digest(out))
        if self.reference is None:
            self.reference = hashes
            for op, out in zip(self.ops, outcomes):
                try:
                    verdict = op.check(out)
                except Exception as exc:   # malformed output: the op failed
                    verdict = f"oracle could not read the output: {exc!r}"
                self.verdicts.append(verdict)
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if hashes[i] != self.reference[i]:
                self.nondeterministic.add(op.name)
                self.failed += 1
            elif self.verdicts[i] is not None:
                self.failed += 1


def expected_spans(ops) -> dict:
    total: dict = {}
    for op in ops:
        for name, n in op.spans.items():
            total[name] = total.get(name, 0) + n
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(GENERATORS)}, or all: each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "floatconv" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no floatconv source tree (src/floatconv, configs/) under {ROOT}")
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           check=False).returncode
            for w in GENERATORS
        ]
        sys.exit(max(codes))
    sys.path.insert(0, str(SRC))
    import floatconv as fc
    import floatconv.cli  # noqa: F401

    if args.workload not in GENERATORS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(GENERATORS)}")
    if not Path(fc.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"floatconv imported from {fc.__file__}, not from {SRC}")

    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "client": "closed loop, 1 client, 1 process, single-threaded numpy",
    }
    print(f"# floatconv bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {record['python']} numpy {record['numpy']} nproc {record['nproc']} "
          f"loadavg {' '.join(f'{x:.2f}' for x in record['loadavg_start'])}")
    print(f"# why: {record['why']}")

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT))
    try:
        ops = GENERATORS[args.workload](random.Random(args.seed), work, ROOT)
        runner = Runner(ops, fc)
        runner.run_pass()   # warm-up: fills the reference hashes and oracle verdicts
        if args.trace:
            metrics, correct = traced_run(args, runner, record)
        else:
            metrics, correct = untraced_run(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for op, verdict in zip(ops, runner.verdicts):
        if verdict is not None:
            print(f"FAIL {op.name}: {verdict}")
    for name in sorted(runner.nondeterministic):
        print(f"FAIL {name}: output differs between passes")
    per_pass_failed = sum(v is not None for v in runner.verdicts)
    print(f"ops per pass {len(ops)}, failing {per_pass_failed}; attempted {runner.attempted}, "
          f"failed {runner.failed}, fail_ratio {runner.failed / runner.attempted:.6f}")
    correct = correct and not runner.nondeterministic
    record.update(metrics=metrics, correct=correct,
                  verdicts={op.name: v for op, v in zip(ops, runner.verdicts)})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def timed_passes(args, runner, step):
    """Call step() until --seconds have elapsed and at least MIN_PASSES ran."""
    start, n = perf_counter(), 0
    while n < MIN_PASSES or perf_counter() - start < args.seconds:
        step()
        n += 1


def untraced_run(args, runner):
    numpy_s, setup_s, setup_refs = probe_setup()
    walls, refs, groups = [], [], {g: [] for g in GROUPS}

    def step():
        refs.append(reference_loop())
        wall, per_group = runner.run_pass()
        walls.append(wall)
        for g, v in per_group.items():
            groups[g].append(v)

    timed_passes(args, runner, step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def show(name, values, unit="s"):
        q1, med, q3 = quartiles(values)
        print(f"metric {name} {med:.6f} {unit} (q1 {q1:.6f} q3 {q3:.6f} n {len(values)})")
        return med

    print("# wall-clock times:")
    show("setup_wall_s", setup_s)
    show("numpy_floor_s", numpy_s)
    show("batch_wall_s", walls)
    for g in GROUPS:
        if any(groups[g]):
            show(f"{g}_s", groups[g])
    show("reference_loop_s", setup_refs + refs)
    pass_ratio = 1.0 - runner.failed / runner.attempted
    print(f"# gated, in reference seconds (each wall time x {REF_LOOP_S} s / the "
          f"reference loop run before it):")
    setup = show("setup_s", [t * REF_LOOP_S / r for t, r in zip(setup_s, setup_refs)])
    batch = show("batch_s", [t * REF_LOOP_S / r for t, r in zip(walls, refs)])
    print(f"metric fail_ratio {runner.failed / runner.attempted:.6f} 1")
    print(f"metric pass_ratio {pass_ratio:.6f} 1")
    print(f"metric peak_rss_mb {rss_mb:.3f} MB")
    metrics = {
        "setup_s": (setup, "s"),
        "batch_s": (batch, "s"),
        "pass_ratio": (pass_ratio, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, True


def traced_run(args, runner, record):
    tracer = Tracer()
    expected = expected_spans(runner.ops)
    plain, traced, self_ms, calls, counters, kept = [], [], [], [], [], None
    correct = True

    def step():
        nonlocal kept, correct
        plain.append(runner.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            wall, _ = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        self_ms.append({n: ns / 1e6 for n, ns in tracer.self_ns.items()})
        calls.append(dict(tracer.calls))
        counters.append(dict(tracer.counters))
        if kept is None:
            kept = tracer.spans
        missed = {n: want for n, want in expected.items() if tracer.calls[n] != want}
        if missed and correct:   # report the first pass that misses
            for name, want in missed.items():
                print(f"SELF-CHECK {name}: {tracer.calls[name]} spans, expected {want}")
        correct = correct and not missed

    timed_passes(args, runner, step)
    if any(c != calls[0] for c in calls) or any(c != counters[0] for c in counters):
        print("SELF-CHECK call counts differ between traced passes")
        correct = False
    write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz", kept, record)

    metrics = {}
    print(f"{'layer':44s} {'calls/pass':>11s} {'self_ms':>10s} {'q1':>10s} {'q3':>10s}  should move")
    for name in SPAN_NAMES:
        q1, med, q3 = quartiles(p[name] for p in self_ms)
        print(f"{name:44s} {calls[0][name]:11d} {med:10.3f} {q1:10.3f} {q3:10.3f}  {MOVES[name]}")
        metrics[f"{name}.calls"] = (calls[0][name], "count")
        if name in LAYER_TIMES:
            metrics[f"{name}.self_ms"] = (med, "ms")
    for module in MODULES:
        per_pass = [sum(v for n, v in p.items() if n.startswith(module + ".")) for p in self_ms]
        med = statistics.median(per_pass)
        print(f"{module + '.*':44s} {'':11s} {med:10.3f}")
        metrics[f"{module}.self_ms"] = (med, "ms")
    metrics["gripper.trace_rows"] = (counters[0]["gripper.trace_rows"], "count")
    metrics["export.bytes_out"] = (counters[0]["export.bytes_out"], "bytes")

    overhead = [t - p for t, p in zip(traced, plain)]
    unaccounted = [t - sum(p.values()) / 1e3 for t, p in zip(traced, self_ms)]
    for name, values in (("untraced batch_s", plain), ("trace.batch_s", traced),
                         ("trace.overhead_s", overhead), ("trace.unaccounted_s", unaccounted)):
        q1, med, q3 = quartiles(values)
        print(f"metric {name} {med:.6f} s (q1 {q1:.6f} q3 {q3:.6f} n {len(values)})")
    share = 1.0 - statistics.median(unaccounted) / statistics.median(traced)
    accounted = statistics.median(unaccounted) <= max(abs(statistics.median(overhead)),
                                                      0.01 * statistics.median(traced))
    print(f"self times cover {100 * share:.2f}% of traced batch_s; the rest is within "
          f"the tracing overhead (or 1% of the pass): {'yes' if accounted else 'no'}")
    metrics["trace.batch_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics, correct


if __name__ == "__main__":
    main()
