"""Run one workload: timed set-up, measured passes, answer checks.

Load model: a closed loop with one client in one process.  Each request
goes through the synchronous ``QueryService.run`` and the next is sent
when it returns.  Latency is timed around the service call (plus the
write, for an update), and answers are checked outside that window.

:func:`measure` gives the end-to-end metrics, :func:`trace` the
per-layer ones.  Per-layer times and counts are means per request, so
that the layers add up to the request.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict

from repro import Instance, Relation
from repro.safety import clear_caches as clear_safety_caches

from benchmarks.pipeline.layers import ERROR, TracedPipeline, clear_process_caches
from benchmarks.pipeline.spans import SpanRecorder, self_times, write_spans
from benchmarks.pipeline.workloads import Item, Workload

__all__ = ["END_TO_END", "PER_LAYER", "OP_LABELS", "measure", "trace"]

#: The end-to-end run is split into this many segments, each starting
#: with set-ups: one, or more while they take under ``SETUP_SAMPLE_S``.
#: The median over all of them is reported.  Set-ups are thus sampled at
#: several moments of the run, and a cheap one, which a short stall can
#: double, is sampled many times.
SEGMENTS = 5
SETUP_SAMPLE_S = 0.2

#: Timing windows of the end-to-end run, in seconds of wall time.  On a
#: shared machine, other tenants slow everything down in bursts of a few
#: seconds (by up to 1.7x on the machine the bounds were set on).  Pass
#: time and throughput are read from the best window, which such a
#: burst does not reach, so they measure the code, not its neighbours.
WINDOW_S = 1.0

END_TO_END = {
    "pass_p50_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Operator labels every workload's plans contain; other labels are in
#: the trace file only, since a metric must exist on every workload.
OP_LABELS = ("scan", "map", "hash-join", "anti-join", "union")

_PHASES = ("standardize", "safety", "enf", "compile", "simplify")
#: Span name -> per-layer metric of its mean self time.
_SELF_SPANS = {
    "core.parse": "core.parse_ms",
    **{f"translate.{p}": f"translate.{p}_ms" for p in _PHASES},
    "caches.stats": "caches.stats_ms",
    "data.fingerprint": "data.fingerprint_ms",
    "rewrite.optimize": "rewrite.optimize_ms",
    "planner.build": "planner.build_ms",
    "execute.drain": "execute.drain_ms",
}

PER_LAYER = {
    "core.parse_ms": "ms",
    "translate.total_ms": "ms",
    **{f"translate.{p}_ms": "ms" for p in _PHASES},
    "translate.steps": "count",
    "translate.plan_ops": "count",
    "service.self_ms": "ms",
    "service.plan_cache_hit_ratio": "ratio",
    "caches.stats_ms": "ms",
    "caches.stats_hit_ratio": "ratio",
    "data.fingerprint_ms": "ms",
    "rewrite.optimize_ms": "ms",
    "rewrite.steps": "count",
    "rewrite.changed_ratio": "ratio",
    "rewrite.fallbacks": "count",
    "planner.build_ms": "ms",
    "execute.drain_ms": "ms",
    "execute.rows": "count",
    "execute.batches": "count",
    "execute.comparisons": "count",
    "execute.function_calls": "count",
    "execute.kernel_ratio": "ratio",
    "execute.fallback_batches": "count",
    **{f"op.{label}.{kind}": unit for label in OP_LABELS
       for kind, unit in (("self_ms", "ms"), ("rows", "count"))},
    "req.p50_ms": "ms",
    "req.p90_ms": "ms",
    "req.p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


class Session:
    """A workload's service, its current instance, and answer tallies."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def set_up(self) -> float:
        """Build the instance and service and serve one warm-up pass, as
        at a fresh server start; returns the seconds it took."""
        clear_process_caches()
        start = time.perf_counter()
        self.instance, self.service = self.workload.build()
        self.version = 0
        served = [(item, self.serve(item)[0])
                  for item in self.workload.warmup_items()]
        elapsed = time.perf_counter() - start
        for item, report in served:
            self.check(item, report)
        return elapsed

    def begin_pass(self, traced: TracedPipeline | None = None) -> None:
        if self.workload.cold:
            clear_safety_caches()
            self.service = self.workload.new_service(self.instance)
            if traced is not None:
                traced.forget_plans()

    def serve(self, item: Item):
        """``(report, seconds)``: one request, timed."""
        if item.write is None:
            start = time.perf_counter()
            report = self.service.run(item.request)
            return report, time.perf_counter() - start
        name, arity, rows = item.write
        start = time.perf_counter()
        self.instance = self.instance.with_relation(name, Relation(arity, rows))
        self.service.set_instance(self.instance)
        report = self.service.run(item.request)
        elapsed = time.perf_counter() - start
        self.version += 1
        return report, elapsed

    def check(self, item: Item, report) -> bool:
        self.attempted += 1
        if self.workload.check(item, report, self.instance, self.version):
            return True
        self.fail(f"{item.request.describe()}: {report.status} "
                  f"{report.error or 'wrong answer'}")
        return False

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def run_pass(self, index: int) -> tuple[list[float], list[float]]:
        """Serve pass ``index``; ``(latencies, update latencies)``."""
        latencies, updates = [], []
        items = self.workload.pass_items(index)
        self.begin_pass()
        for item in items:
            report, elapsed = self.serve(item)
            self.check(item, report)
            latencies.append(elapsed)
            if item.write is not None:
                updates.append(elapsed)
        return latencies, updates


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload: Workload, seconds: float, quick: bool = False):
    """End-to-end metrics: :data:`SEGMENTS` segments spread over
    ``seconds``, each set-ups then whole passes until its share of the
    time has passed (one set-up and one pass with ``quick``).  Returns
    ``(session, metrics, extras)``."""
    session = Session(workload)
    segments = 1 if quick else SEGMENTS
    setups: list[float] = []
    windows: dict[int, list[list[float]]] = defaultdict(list)
    updates: list[float] = []
    passes = 0
    last_window = max(0, int(seconds / WINDOW_S) - 1)
    start = time.perf_counter()
    for segment in range(segments):
        sample = [session.set_up()]
        while not quick and sum(sample) < SETUP_SAMPLE_S:
            sample.append(session.set_up())
        setups += sample
        end = start + seconds * (segment + 1) / segments
        while True:
            served, written = session.run_pass(passes)
            passes += 1
            now = time.perf_counter()
            # the pass that crosses the end joins the last full window
            window = min(int((now - start) / WINDOW_S), last_window)
            windows[window].append(served)
            updates += written
            if quick or now >= end:
                break
    in_window = [[t for served in w for t in served] for w in windows.values()]
    latencies = [t for w in in_window for t in w]
    metrics = {
        "pass_p50_ms": min(statistics.median(map(sum, w))
                           for w in windows.values()) * 1e3,
        "throughput_rps": max(len(w) / sum(w) for w in in_window),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    extras = {
        "passes": passes,
        "requests": len(latencies),
        "windows": len(windows),
        "p50_ms": min(map(statistics.median, in_window)) * 1e3,
        "p90_ms": _quantile(latencies, 90) * 1e3,
        "p99_ms": _quantile(latencies, 99) * 1e3,
        "error_rate": session.failed / session.attempted,
        "setup_runs_s": setups,
    }
    if updates:
        extras["update_p50_ms"] = statistics.median(updates) * 1e3
    return session, metrics, extras


def trace(workload: Workload, quick: bool = False, spans_path=None):
    """Per-layer metrics: ``trace_passes`` untraced passes, then as many
    traced ones, each request re-served layer by layer and compared with
    ``QueryService.run``.  Returns ``(session, metrics, extras)``."""
    session = Session(workload)
    session.set_up()
    passes = 1 if quick else workload.trace_passes
    untraced_latencies: list[float] = []
    untraced_passes: list[float] = []
    for index in range(passes):
        served, _ = session.run_pass(index)
        untraced_latencies += served
        untraced_passes.append(sum(served))

    rec = SpanRecorder()
    relations = {name: session.instance.relation(name)
                 for name in session.instance.names}
    traced = TracedPipeline(rec, Instance(relations), workload.interp,
                            workload.batch_repr)
    service_self: list[float] = []
    cache_hits = cache_lookups = 0
    pass_of_request: dict[int, int] = {}
    # Fresh pass indices: an update pass must not repeat content the
    # untraced passes wrote.
    for index in range(passes, 2 * passes):
        items = workload.pass_items(index)
        session.begin_pass(traced)
        for item in items:
            rec.request_id += 1
            pass_of_request[rec.request_id] = index
            with rec.span("request"):
                if item.write is not None:
                    traced.write(*item.write)
                answer = traced.run(item.request)
            report, _ = session.serve(item)
            session.check(item, report)
            served = report.result if report.ok else report.status
            if answer == ERROR or served != answer:
                session.fail(f"{item.request.describe()}: traced layers "
                             f"disagree with QueryService.run")
            t = report.timings
            service_self.append(t["total_s"] - t.get("parse_s", 0.0)
                                - t.get("translate_s", 0.0)
                                - t.get("execute_s", 0.0))
            if report.cache is not None:
                cache_lookups += 1
                cache_hits += report.cache == "hit"
    if spans_path is not None:
        write_spans(rec.spans, spans_path)

    selfs = self_times(rec.spans)
    self_ns: dict[str, int] = defaultdict(int)
    translate_ns = 0
    traced_passes: dict[int, int] = defaultdict(int)
    root_ns = root_self_ns = 0
    for span in rec.spans:
        self_ns[span.name] += selfs[span.span_id]
        if span.name == "translate":
            translate_ns += span.end_ns - span.start_ns
        elif span.name == "request":
            duration = span.end_ns - span.start_ns
            traced_passes[pass_of_request[span.request_id]] += duration
            root_ns += duration
            root_self_ns += selfs[span.span_id]

    n = rec.request_id
    totals = traced.totals
    ms = 1e-6 / n   # ns summed over the run -> ms per request

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {metric: self_ns[name] * ms for name, metric in _SELF_SPANS.items()}
    metrics.update({
        "translate.total_ms": translate_ns * ms,
        "translate.steps": totals["translate_steps"] / n,
        "translate.plan_ops": totals["plan_ops"] / n,
        "service.self_ms": statistics.fmean(service_self) * 1e3,
        "service.plan_cache_hit_ratio": ratio(cache_hits, cache_lookups),
        "caches.stats_hit_ratio": ratio(totals["stats_hits"],
                                        totals["stats_lookups"]),
        "rewrite.steps": totals["rewrite_steps"] / n,
        "rewrite.changed_ratio": ratio(totals["rewrite_changed"],
                                       totals["optimize_calls"]),
        "rewrite.fallbacks": totals["rewrite_fallbacks"] / n,
        "execute.rows": totals["rows"] / n,
        "execute.batches": totals["batches"] / n,
        "execute.comparisons": totals["comparisons"] / n,
        "execute.function_calls": totals["function_calls"] / n,
        "execute.kernel_ratio": ratio(
            totals["kernel_batches"],
            totals["kernel_batches"] + totals["fallback_batches"]),
        "execute.fallback_batches": totals["fallback_batches"] / n,
        "req.p50_ms": statistics.median(untraced_latencies) * 1e3,
        "req.p90_ms": _quantile(untraced_latencies, 90) * 1e3,
        "req.p99_ms": _quantile(untraced_latencies, 99) * 1e3,
        "trace.overhead_ratio": ratio(
            statistics.median(traced_passes.values()) * 1e-9,
            statistics.median(untraced_passes)),
        "trace.coverage_ratio": ratio(root_ns - root_self_ns, root_ns),
    })
    for label in OP_LABELS:
        metrics[f"op.{label}.self_ms"] = traced.op_self_s[label] * 1e3 / n
        metrics[f"op.{label}.rows"] = traced.op_rows[label] / n
    extras = {
        "passes": passes,
        "requests": n,
        "op_self_ms": {label: s * 1e3 / n
                       for label, s in sorted(traced.op_self_s.items())},
        "op_rows": {label: r / n for label, r in sorted(traced.op_rows.items())},
        "error_rate": session.failed / session.attempted,
    }
    return session, metrics, extras
