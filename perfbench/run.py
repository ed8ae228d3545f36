#!/usr/bin/env python3
"""Benchmark for coeffbounds: one workload per process, every report checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dominance-wide --seed 1 --seconds 30 --trace 0

The workload's commands run through ``coeffbounds.cli.main`` one after
another in this process (a closed loop with one client: the CLI is a
single-threaded batch program), with reports captured in memory. A cold
pass runs first and is not timed; warm passes follow for ``--seconds``.
Times are reported in reference seconds (see ``calibration.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics, writing the
spans and aggregates to ``perfbench/out/``. The last stdout line is the
result object; the line before it holds provenance and gate details.
See ``perfbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DIGESTS = HERE / "digests.json"

#: One BLAS/OpenMP thread: the CLI is single-threaded and numpy's only matrix
#: product here is tiny, so extra threads would only add noise on shared cores.
BLAS_THREADS = 1
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from calibration import calibrate
before = calibrate()
start = time.perf_counter()
import coeffbounds.cli as cli
cli.build_parser()
seconds = time.perf_counter() - start
print(seconds, before, calibrate())
"""
MIN_PASSES = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_tail": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}


@dataclass
class Outcome:
    command: workloads.Command
    code: int
    text: str
    seconds: float  # wall
    scaled: float  # reference seconds (see calibration.py)
    cpu: float


@dataclass
class Measurement:
    """Warm pass times of one run, in reference seconds unless named wall."""

    gate: gate.Gate
    plain: list = field(default_factory=list)  # untraced passes
    plain_wall: list = field(default_factory=list)
    plain_cpu: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    traced_factors: list = field(default_factory=list)  # reference / wall, per traced pass
    tracer: tracing.Tracer | None = None


def run_pass(cli, commands) -> list:
    """Run each command once through ``cli.main``, reports captured in memory.

    Every command is bracketed by calibration loops, so its time can be
    given in reference seconds.
    """
    outcomes = []
    before = calibration.calibrate()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            cpu = time.process_time()
            start = time.perf_counter()
            code = cli.main(list(cmd.argv))
            seconds = time.perf_counter() - start
            cpu = time.process_time() - cpu
        after = calibration.calibrate()
        scaled = calibration.scaled(seconds, before, after)
        outcomes.append(Outcome(cmd, code, out.getvalue(), seconds, scaled, cpu))
        before = after
    return outcomes


def measure(workload, seconds: float, trace: bool, cli) -> Measurement:
    """A cold pass, then warm passes until the next one would overrun ``seconds``.

    Untraced runs take at least MIN_PASSES warm passes. Traced runs
    alternate traced and untraced passes, starting traced, and take at least
    one of each; their untraced passes give the tracing overhead.
    """
    m = Measurement(gate=gate.Gate(), tracer=tracing.Tracer() if trace else None)
    gc.collect()
    m.gate.check_pass(run_pass(cli, workload.commands))
    walls = []
    start = time.perf_counter()
    while True:
        traced_turn = trace and len(m.traced) <= len(m.plain)
        gc.collect()
        if traced_turn:
            m.tracer.pass_id = len(m.traced)
            mark = m.tracer.mark()
            with m.tracer.installed():
                outcomes = run_pass(cli, workload.commands)
        else:
            outcomes = run_pass(cli, workload.commands)
        wall = sum(o.seconds for o in outcomes)
        walls.append(wall)
        pass_seconds = sum(o.scaled for o in outcomes)
        if traced_turn:
            m.tracer.rescale_since(mark, pass_seconds / wall)
            m.traced_factors.append(pass_seconds / wall)
            m.traced.append(pass_seconds)
        else:
            m.plain.append(pass_seconds)
            m.plain_wall.append(wall)
            m.plain_cpu.append(sum(o.cpu for o in outcomes))
        m.gate.check_pass(outcomes)
        ready = bool(m.plain and m.traced) if trace else len(m.plain) >= MIN_PASSES
        elapsed = time.perf_counter() - start
        if ready and elapsed + statistics.median(walls) > seconds:
            return m


def tail(times) -> tuple:
    """(pass time, percentile) at the highest percentile with ten passes beyond it.

    Never below the median: with fewer than twenty passes no percentile
    above the median has ten passes beyond it, and the median is used.
    """
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    median = statistics.median(ordered)
    if rank < 1 or ordered[rank - 1] <= median:
        return median, 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end_metrics(m: Measurement, workload, setup_s: float) -> dict:
    wall = statistics.median(m.plain)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "wall_s_tail": tail(m.plain)[0],
        "trials_per_s": workload.trials / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": (m.gate.attempted - m.gate.failed) / m.gate.attempted,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def _nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: Traced names reported as `.calls` and `.busy_s`, and as `.busy_s` only.
#: Counts and times are per traced pass; times are in reference seconds.
_CALLS_AND_BUSY = (
    "sweeps.trial_seed", "caratheodory.random_herglotz", "caratheodory.HerglotzAtoms.init",
    "sweeps.batch_cauchy", "caratheodory.min_real_part", "series.evaluate", "series.mul",
    "series.real_power", "bounds.f_from_p", "schemes.build_hk", "sweeps.sweep",
)
_BUSY_ONLY = (
    "sweeps.batch_series", "sweeps.batch_power_quotient", "sweeps.batch_gammas",
    "sweeps.witness", "bounds.small_alpha_bound", "bounds.verify_membership",
    "schemes.gamma_identity_residuals", "reports.render",
)


def per_layer_metrics(m: Measurement) -> dict:
    t, passes = m.tracer, len(m.traced)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in _CALLS_AND_BUSY:
        put(f"{name}.calls", t.calls[name] / passes, "count")
        put(f"{name}.busy_s", t.busy[name] / passes, "s")
    for name in _BUSY_ONLY:
        put(f"{name}.busy_s", t.busy[name] / passes, "s")
    put("sweeps.sweep.self_s", t.self_time["sweeps.sweep"] / passes, "s")
    held = t.counters["sweeps.violations.held"]
    listed = t.counters["sweeps.violations.listed"]
    put("sweeps.violations.held", held / passes, "count")
    put("sweeps.violations.listed_ratio", listed / held if held else 1.0, "ratio")
    put("gc.collections", t.counters["gc.collections"] / passes, "count")
    put("gc.pause_s", t.counters["gc.pause_s"] / passes, "s")
    point_ms = [
        (end - start) * 1e3 * m.traced_factors[pass_id]
        for _, name, start, end, _, pass_id in t.spans
        if name == "sweeps.sweep"
    ]
    put("sweeps.point_p50_ms", _nearest_rank(point_ms, 0.5), "ms")
    put("sweeps.point_p90_ms", _nearest_rank(point_ms, 0.9), "ms")
    put("harness.points", t.counters["harness.points"] / passes, "count")
    put("reports.bytes", t.counters["reports.bytes"] / passes, "B")
    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", t.layer_self(layer) / passes, "s")
    put("process.cpu_s", statistics.median(m.plain_cpu), "s")
    put("trace.overhead_ratio", statistics.median(m.traced) / statistics.median(m.plain), "ratio")
    return out


def measure_setup(src: str) -> float:
    """Median time a fresh interpreter takes to import the CLI and build its parser.

    Timed inside the child, so interpreter start-up and exit, which no
    change to the package can move, stay out of the figure; reference
    seconds, bracketed by calibration loops in the child.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                               capture_output=True, text=True, timeout=60)
        times.append(calibration.scaled(*(float(x) for x in child.stdout.split())))
    return statistics.median(times)


def git_rev(root: Path) -> str:
    """The commit checked out, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def recorded_digests(workload) -> dict:
    try:
        table = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {}
    return table.get(workload.name, {}).get(str(workload.seed), {})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coeffbounds" / "cli.py").is_file():
        print(f"perfbench: no coeffbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Before numpy is imported, so its thread pools see the cap; children inherit it.
    os.environ.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    setup_s = None if args.trace else measure_setup(src)

    import numpy
    from coeffbounds import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported coeffbounds from {cli.__file__}, not this checkout", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, OUT_DIR / "inputs")
    workload.write_inputs()
    m = measure(workload, args.seconds, bool(args.trace), cli)

    provenance = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_rev": git_rev(ROOT),
        "workload": workload.name,
        "seed": workload.seed,
        "argv": [list(c.argv) for c in workload.commands],
        "run_seconds": args.seconds,
        "passes": {"cold": 1, "untraced": len(m.plain), "traced": len(m.traced)},
    }
    tail_seconds, tail_pct = tail(m.plain)
    details = {
        "provenance": provenance,
        "pass_seconds": {"untraced": m.plain, "traced": m.traced, "untraced_wall": m.plain_wall},
        "wall_s_tail": {"percentile": tail_pct, "samples": len(m.plain), "value": tail_seconds},
        "digests": m.gate.digests,
        "digest_vs_seed": m.gate.digest_changes(recorded_digests(workload)),
        "gate_problems": m.gate.problems,
    }
    if args.trace:
        metrics = per_layer_metrics(m)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
        trace_path.write_text(json.dumps({**details, "metrics": metrics, **m.tracer.to_document()}))
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(m, workload, setup_s)
    print(json.dumps(details))
    print(json.dumps({
        "correct": m.gate.failed == 0,
        "attempted": m.gate.attempted,
        "failed": m.gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
