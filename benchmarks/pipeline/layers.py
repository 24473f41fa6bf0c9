"""The traced request path: every engine internal the benchmark calls.

The end-to-end run goes through :class:`repro.service.QueryService`
only.  The traced run re-serves each request here, one call per layer,
each inside a span of the benchmark's own :class:`SpanRecorder`:

    core.parse -> translate (+ its phase spans) -> caches.stats ->
    rewrite.optimize -> planner.build -> execute.drain

mirroring what ``QueryService.run`` and ``repro.engine.executor.execute``
do, with a per-operator :class:`~repro.obs.ExecutionProfile`.  Every
import of a non-API internal (``optimize_plan``, ``build_physical_plan``,
``stats_for``, ...) lives in this module, so a refactor of those
internals breaks the benchmark in one place.
"""

from __future__ import annotations

from collections import Counter

from repro import ExecutionProfile, Instance, Relation, SpanTracer, parse_query, translate_query
from repro.engine.batches import resolve_batch_repr
from repro.engine.caches import clear_engine_caches, engine_cache_info, stats_for
from repro.engine.executor import plan_catalog
from repro.engine.operators import OpCounters
from repro.engine.planner import build_physical_plan
from repro.engine.rewrite import optimize_plan
from repro.errors import EvaluationError, NotEmAllowedError, ReproError
from repro.safety import clear_caches as clear_safety_caches
from repro.service import ServiceRequest
from repro.translate import bind_parameters, parameterized_query, translate_parameterized

from benchmarks.pipeline.spans import SpanRecorder
from benchmarks.pipeline.workloads import REFUSED

__all__ = ["TracedPipeline", "clear_process_caches", "ERROR"]

#: Outcome of a request the pipeline failed on (not a refusal).
ERROR = "error"


def clear_process_caches() -> None:
    """Drop every process-wide memo (safety verdicts, statistics, term
    closures, columnar layouts), as at a fresh server start."""
    clear_safety_caches()
    clear_engine_caches()


class TracedPipeline:
    """Serves requests layer by layer, recording spans and counters.

    ``totals`` accumulates counts over every request served; ``op_self_s``
    and ``op_rows`` accumulate :meth:`ExecutionProfile.by_class` per
    operator label.  Translations are memoized per request text, like
    the service's statement memo and plan cache; :meth:`forget_plans`
    empties the memo.
    """

    def __init__(self, recorder: SpanRecorder, instance: Instance,
                 interpretation, batch_repr: str | None = None):
        self.rec = recorder
        self.interp = interpretation
        self.batch_repr = resolve_batch_repr(batch_repr)[0]
        self.totals: Counter = Counter()
        self.op_self_s: Counter = Counter()
        self.op_rows: Counter = Counter()
        self._plans: dict = {}
        self.set_instance(instance)

    def forget_plans(self) -> None:
        self._plans.clear()

    def set_instance(self, instance: Instance) -> None:
        with self.rec.span("data.fingerprint"):
            instance.fingerprint()
        self.instance = instance

    def write(self, name: str, arity: int, rows: tuple) -> None:
        """Replace one relation, as an update request does."""
        with self.rec.span("data.write"):
            instance = self.instance.with_relation(name, Relation(arity, rows))
        self.set_instance(instance)

    def run(self, request: ServiceRequest):
        """The answer :class:`Relation`, :data:`REFUSED` or :data:`ERROR`."""
        if request.query is not None:
            key = ("q", request.query)
        else:
            key = ("p", request.params, request.head, request.body)
        outcome = self._plans.get(key)
        if outcome is None:
            outcome = self._plans[key] = self._translate(request)
        if isinstance(outcome, str):
            return outcome
        plan = outcome.plan
        if request.query is None:
            plan = bind_parameters(plan, request.rows)
        return self._execute(plan, outcome.schema)

    def _translate(self, request: ServiceRequest):
        rec = self.rec
        tracer = SpanTracer()
        try:
            if request.query is not None:
                with rec.span("core.parse"):
                    query = parse_query(request.query)
                with rec.span("translate") as span:
                    try:
                        outcome = translate_query(query, tracer=tracer)
                    finally:
                        # translate_query times its phases itself; lay
                        # them end to end from the span's start.
                        cursor = span.start_ns
                        for phase in (tracer.roots[0].children
                                      if tracer.roots else ()):
                            end = cursor + int(phase.elapsed_s * 1e9)
                            rec.add_child(f"translate.{phase.name}", cursor, end)
                            cursor = end
            else:
                with rec.span("core.parse"):
                    query = parameterized_query(request.params, request.head,
                                                request.body)
                with rec.span("translate"):
                    outcome = translate_parameterized(query)
        except NotEmAllowedError:
            return REFUSED
        except ReproError:
            return ERROR
        self.totals["translate_steps"] += len(outcome.trace)
        self.totals["plan_ops"] += outcome.plan_size
        return outcome

    def _execute(self, plan, schema):
        rec, totals = self.rec, self.totals
        instance, interp = self.instance, self.interp
        interp.reset_counts()
        counters = OpCounters()
        catalog = plan_catalog(plan, instance, schema)
        before = engine_cache_info()["stats"]
        with rec.span("caches.stats"):
            stats = stats_for(instance)
        after = engine_cache_info()["stats"]
        totals["stats_hits"] += after["hits"] - before["hits"]
        totals["stats_lookups"] += (after["hits"] + after["misses"]
                                    - before["hits"] - before["misses"])
        shared = None
        with rec.span("rewrite.optimize"):
            try:
                optimized = optimize_plan(plan, stats, catalog, schema=schema)
            except EvaluationError:
                optimized = None    # the executor runs the plan as translated
        totals["optimize_calls"] += 1
        if optimized is None:
            totals["rewrite_fallbacks"] += 1
        else:
            totals["rewrite_steps"] += len(optimized.steps)
            totals["rewrite_changed"] += optimized.plan != plan
            plan, shared = optimized.plan, optimized.shared or None
        profile = ExecutionProfile()
        with rec.span("planner.build"):
            physical = build_physical_plan(plan, instance, interp, schema,
                                           counters, profile, shared=shared,
                                           batch_repr=self.batch_repr)
        with rec.span("execute.drain"):
            rows: set[tuple] = set()
            while (batch := physical.next_batch()) is not None:
                rows.update(batch)
            answer = Relation(physical.arity, rows)
        totals["rows"] += counters.total_rows()
        totals["batches"] += counters.batches
        totals["comparisons"] += counters.comparisons
        totals["function_calls"] += interp.call_count()
        totals["kernel_batches"] += counters.kernel_batches
        totals["fallback_batches"] += counters.fallback_batches
        for label, agg in profile.by_class().items():
            self.op_self_s[label] += agg["self_elapsed_s"]
            self.op_rows[label] += agg["rows_out"]
        return answer
