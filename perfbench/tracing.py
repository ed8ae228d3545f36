"""Layer tracing from outside the package.

A :class:`Tracer` replaces the package's public callables at the sites the
package calls them from (``cli.run_random_suite``, ``sweeps.random_herglotz``,
``harness.series_min_real_part``, ``TruncatedSeries.evaluate``, ...) with
timing wrappers, and puts the originals back on exit. Coarse calls (a CLI
command, a harness suite, one sweep point, a witness rebuild, a report
render) are recorded as spans; per-trial and per-sample calls only as
counts and summed busy time, so the trace stays small.

Self time of a call is its busy time minus the time covered by the wrapped
calls nested inside it; a layer's self time is the sum over its names.
``_rational`` and ``backends`` are per-operation dunders, too hot to wrap:
their cost shows in the self time of the layers that call them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from collections import defaultdict

LAYERS = ("cli", "harness", "sweeps", "caratheodory", "series", "bounds", "schemes", "reports")


def _count_harness_result(tracer, result):
    """Grid points a harness call produced a result for, and violations listed."""
    if isinstance(result, dict):  # run_expand
        tracer.counters["harness.points"] += 1
    elif isinstance(result, tuple):  # run_bounds_table -> (columns, rows)
        tracer.counters["harness.points"] += len({(r["n"], r["alpha"], r["beta"]) for r in result[1]})
    else:  # a list of SuiteReport
        tracer.counters["harness.points"] += len(result)
        tracer.counters["sweeps.violations.listed"] += sum(
            e.case.startswith("violation in trial") for r in result for e in r.entries
        )


def _count_bytes(tracer, text):
    tracer.counters["reports.bytes"] += len(text.encode("utf-8"))


def _count_violations(tracer, outcome):
    tracer.counters["sweeps.violations.held"] += len(outcome.violations)


def _sites(m):
    """(owner, attribute, traced name, records spans, result observer)."""
    cli, harness, sweeps = m["cli"], m["harness"], m["sweeps"]
    atoms = m["caratheodory"].HerglotzAtoms
    series = m["series"].TruncatedSeries
    bounds = m["bounds"]
    yield cli, "main", "cli.main", True, None
    for attr in ("run_bounds_table", "run_extremal_suite", "run_random_suite",
                 "run_nehari_suite", "run_hk_audit", "run_expand"):
        yield cli, attr, f"harness.{attr}", True, _count_harness_result
    for attr in ("csv_text", "json_text", "suite_csv", "suite_json", "table_csv", "table_json"):
        yield cli, attr, "reports.render", True, _count_bytes
    for attr in ("dominance_sweep", "nehari_sweep"):
        yield sweeps, attr, "sweeps.sweep", True, _count_violations
    for attr in ("dominance_witness", "nehari_witness"):
        yield sweeps, attr, "sweeps.witness", True, None
    for attr in ("trial_seed", "batch_series", "batch_power_quotient", "batch_cauchy", "batch_gammas"):
        yield sweeps, attr, f"sweeps.{attr}", False, None
    yield sweeps, "random_herglotz", "caratheodory.random_herglotz", False, None
    yield atoms, "__init__", "caratheodory.HerglotzAtoms.init", False, None
    yield atoms, "series", "caratheodory.HerglotzAtoms.series", False, None
    yield harness, "series_min_real_part", "caratheodory.min_real_part", False, None
    yield bounds, "min_real_part", "caratheodory.min_real_part", False, None
    for attr in ("iterated_transform", "shift_to_beta"):
        yield bounds, attr, f"caratheodory.{attr}", False, None
    yield series, "evaluate", "series.evaluate", False, None
    yield series, "__mul__", "series.mul", False, None
    yield series, "real_power", "series.real_power", False, None
    for attr in ("f_from_p", "small_alpha_bound", "verify_membership", "sharp_bound",
                 "extremal_p", "bound_report", "growth_estimate"):
        yield harness, attr, f"bounds.{attr}", False, None
    yield bounds, "small_alpha_bound", "bounds.small_alpha_bound", False, None
    for attr in ("build_hk", "gamma_identity_residuals", "check_gamma_identity",
                 "compare_even_constants"):
        yield harness, attr, f"schemes.{attr}", False, None


class Tracer:
    """Spans, per-name aggregates and GC pauses over the traced passes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans: list = []  # (id, name, start, end, parent id, pass id)
        self.missing: set = set()  # sites absent from the package
        self.pass_id = None
        self._frames: list = []  # [seconds covered by children, enclosing span id]
        self._next_span = 0
        self._undo: list = []
        self._gc_start = None

    def _wrap(self, name, fn, span, observe):
        frames = self._frames
        calls, busy, self_time = self.calls, self.busy, self.self_time
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_span = frames[-1][1] if frames else None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = parent_span
            frame = [0.0, span_id]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                if frames:
                    frames[-1][0] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if span:
                    tracer.spans.append((span_id, name, start, end, parent_span, tracer.pass_id))
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def _on_gc(self, phase, info):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            self.counters["gc.collections"] += 1
            self.counters["gc.pause_s"] += now - self._gc_start
            self._gc_start = None

    def install(self):
        from coeffbounds import bounds, caratheodory, cli, harness, series, sweeps

        modules = dict(cli=cli, harness=harness, sweeps=sweeps, caratheodory=caratheodory,
                       series=series, bounds=bounds)
        for owner, attr, name, span, observe in _sites(modules):
            original = vars(owner).get(attr)
            if original is None:
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original, span, observe))
            self._undo.append(functools.partial(setattr, owner, attr, original))
        runners = getattr(cli, "_SUITE_RUNNERS", {})
        for key, original in list(runners.items()):
            runners[key] = self._wrap(f"harness.{original.__name__}", original, True, _count_harness_result)
            self._undo.append(functools.partial(runners.__setitem__, key, original))
        gc.callbacks.append(self._on_gc)
        self._undo.append(functools.partial(gc.callbacks.remove, self._on_gc))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def mark(self):
        """Copies of the accumulated times, for :meth:`rescale_since`."""
        return dict(self.busy), dict(self.self_time), self.counters["gc.pause_s"]

    def rescale_since(self, mark, factor: float):
        """Multiply the times accumulated since ``mark`` by ``factor``."""
        busy, self_time, pause = mark
        for now, then in ((self.busy, busy), (self.self_time, self_time)):
            for name in now:
                before = then.get(name, 0.0)
                now[name] = before + (now[name] - before) * factor
        self.counters["gc.pause_s"] = pause + (self.counters["gc.pause_s"] - pause) * factor

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)

    def to_document(self) -> dict:
        return {
            "aggregates": {
                name: {"calls": self.calls[name], "busy_s": self.busy[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "layer_self_s": {layer: self.layer_self(layer) for layer in LAYERS},
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["id", "name", "start", "end", "parent", "pass"],
            "spans": self.spans,
            "missing_sites": sorted(self.missing),
        }
