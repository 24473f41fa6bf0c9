"""Plan execution and run reports.

Execution is a three-stage pipeline: the cost-based logical rewrite
pass (:mod:`repro.engine.rewrite`, on by default, gated by
``optimize``/``REPRO_OPTIMIZE``), physical planning
(:mod:`repro.engine.planner`), then batch-at-a-time evaluation.  With
the pass disabled the translated plan goes to the planner untouched —
exactly the pre-optimizer behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.algebra.ast import AlgebraExpr, Rel, walk_algebra
from repro.analysis.typeinfer import infer_plan_types
from repro.core.schema import DatabaseSchema
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.data.relation import Relation
from repro.engine.batches import resolve_batch_repr
from repro.engine.caches import stats_for
from repro.engine.operators import OpCounters
from repro.engine.planner import build_physical_plan
from repro.engine.rewrite import (
    RewriteStep,
    optimize_enabled,
    optimize_plan,
)
from repro.errors import EvaluationError, PlanInvariantError
from repro.obs.profile import ExecutionProfile

__all__ = ["RunReport", "execute", "plan_catalog"]


@dataclass
class RunReport:
    """Result and measurements of one plan execution."""

    result: Relation
    elapsed_seconds: float
    counters: OpCounters
    function_calls: int
    profile: ExecutionProfile | None = None
    #: Rewrites the optimizer applied (empty when disabled or a no-op).
    rewrites: tuple[RewriteStep, ...] = ()
    #: Time spent in the logical rewrite pass (0.0 when disabled).
    optimize_seconds: float = 0.0
    #: Why the optimizer fell back to the translated plan ("" = no
    #: fallback happened).
    optimizer_error: str = ""
    #: The rewrites the failed optimizer run had applied before the
    #: error — the trail that used to be silently discarded.
    failed_rewrites: tuple[RewriteStep, ...] = ()
    #: The batch representation the engine actually ran with:
    #: "tuple" or "column".
    batch_repr: str = "tuple"
    #: Why a requested column representation fell back to tuple batches
    #: ("" = no fallback happened) — the coded CB001 diagnostic when
    #: NumPy is unavailable.  When set, ``batch_repr`` is "tuple".
    batch_repr_error: str = ""

    @property
    def intermediate_rows(self) -> int:
        """Total rows produced by all operators (the E6 cost measure)."""
        return self.counters.total_rows()

    def summary(self) -> str:
        per_op = ", ".join(
            f"{name}={count}" for name, count in sorted(self.counters.rows.items())
        )
        text = (f"{len(self.result)} result rows in {self.elapsed_seconds * 1e3:.2f} ms; "
                f"intermediates: {per_op} ({self.counters.batches} batches); "
                f"function calls: {self.function_calls}")
        if self.rewrites:
            text += (f"; {len(self.rewrites)} rewrite(s) in "
                     f"{self.optimize_seconds * 1e3:.2f} ms")
        if self.optimizer_error:
            text += (f"; optimizer fell back after "
                     f"{len(self.failed_rewrites)} rewrite(s): "
                     f"{self.optimizer_error}")
        if self.batch_repr != "tuple":
            kernels = self.counters.kernel_batches
            fallbacks = self.counters.fallback_batches
            text += (f"; batch repr: {self.batch_repr} "
                     f"({kernels} kernel / {fallbacks} fallback batches)")
        if self.batch_repr_error:
            text += (f"; column batches fell back to tuple: "
                     f"{self.batch_repr_error.splitlines()[0]}")
        return text


def plan_catalog(expr: AlgebraExpr, instance: Instance,
                 schema: DatabaseSchema | None = None) -> dict[str, int]:
    """Relation-arity catalog for ``expr``: the schema's declarations
    when available, else the arities of the instance relations the plan
    actually scans."""
    if schema is not None:
        return {decl.name: decl.arity for decl in schema.relations}
    catalog: dict[str, int] = {}
    for node in walk_algebra(expr):
        if isinstance(node, Rel) and instance.has_relation(node.name):
            catalog[node.name] = instance.relation(node.name).arity
    return catalog


def execute(expr: AlgebraExpr, instance: Instance,
            interpretation: Interpretation,
            schema: DatabaseSchema | None = None,
            profile: ExecutionProfile | None = None,
            batch_size: int | None = None,
            optimize: bool | None = None,
            batch_repr: str | None = None) -> RunReport:
    """Optimize, plan, and run ``expr``, returning the result with
    measurements.

    Scalar-function applications are counted through the
    interpretation's own counters (reset at entry), so the report
    reflects this execution only.  ``batch_size`` is forwarded to the
    planner (``None`` resolves ``REPRO_BATCH_SIZE``, else 1024); the
    result is assembled batch-at-a-time from ``next_batch()``.

    ``optimize`` gates the cost-based rewrite pass: ``None`` defers to
    the ``REPRO_OPTIMIZE`` environment variable (default on).  The pass
    consults cached instance statistics (:func:`stats_for`) and falls
    back to the unoptimized plan if the plan references relations it
    cannot type (plan *invariant* violations still propagate — a
    rewrite producing a malformed plan is a bug, not a fallback).  The
    applied rewrite steps and the time spent rewriting are reported.

    With ``profile`` (an :class:`~repro.obs.profile.ExecutionProfile`),
    every physical operator additionally records per-node rows, calls,
    and elapsed time (total and self), and the profile's
    ``estimated_rows`` are filled from cached instance statistics — the
    data behind ``EXPLAIN ANALYZE`` (:mod:`repro.obs.explain`).
    Without it the execution path is untouched.

    ``batch_repr`` selects the batch representation (``None`` defers
    to ``REPRO_BATCH_REPR``, default ``tuple``).  Requesting ``column``
    without NumPy is a *fallback*, not an error: the engine runs on
    tuple batches and the report records the coded diagnostic in
    ``batch_repr_error``, so a missing optional dependency costs speed,
    never the answer.  An unknown name raises eagerly.
    """
    resolved_repr, repr_reason = resolve_batch_repr(batch_repr)
    interpretation.reset_counts()
    counters = OpCounters()
    plan = expr
    catalog = plan_catalog(expr, instance, schema)
    rewrites: tuple[RewriteStep, ...] = ()
    shared: frozenset | None = None
    optimize_elapsed = 0.0
    optimizer_error = ""
    failed_rewrites: tuple[RewriteStep, ...] = ()
    if optimize_enabled(optimize):
        start = time.perf_counter()
        try:
            outcome = optimize_plan(plan, stats_for(instance), catalog,
                                    schema=schema)
        except PlanInvariantError:
            raise
        except EvaluationError as err:
            # un-typable plan: run it as translated, but keep the
            # evidence — the error and the rewrites applied so far.
            outcome = None
            optimizer_error = f"{type(err).__name__}: {err}"
            failed_rewrites = tuple(getattr(err, "rewrite_steps", ()))
        optimize_elapsed = time.perf_counter() - start
        if outcome is not None:
            plan = outcome.plan
            rewrites = outcome.steps
            shared = outcome.shared or None
    plan_types = None
    if profile is not None:
        try:
            plan_types = infer_plan_types(plan, catalog, schema)
        except EvaluationError:
            plan_types = None  # un-typable plan: profile without facts
    physical = build_physical_plan(plan, instance, interpretation, schema,
                                   counters, profile, batch_size=batch_size,
                                   shared=shared, plan_types=plan_types,
                                   batch_repr=resolved_repr)
    start = time.perf_counter()
    rows: set[tuple] = set()
    while (batch := physical.next_batch()) is not None:
        rows.update(batch)
    elapsed = time.perf_counter() - start
    if profile is not None:
        profile.elapsed_s = elapsed
        profile.result_rows = len(rows)
        profile.function_calls = interpretation.call_count()
        profile.annotate_estimates(stats_for(instance))
    return RunReport(
        result=Relation(physical.arity, rows),
        elapsed_seconds=elapsed,
        counters=counters,
        function_calls=interpretation.call_count(),
        profile=profile,
        rewrites=rewrites,
        optimize_seconds=optimize_elapsed,
        optimizer_error=optimizer_error,
        failed_rewrites=failed_rewrites,
        batch_repr=resolved_repr,
        batch_repr_error=repr_reason,
    )
