"""Physical execution engine: operators, planner, executor, optimizer.

The engine exists for the performance experiments (E6/E9): the paper's
argument that [GT91]-style plans beat active-domain plans is a claim
about execution, and these operators make it measurable.
Correctness is anchored to :func:`repro.algebra.evaluate` — the engine
must return identical relations on every plan (tested).

Between translation and planning sits the cost-based logical rewrite
pass (:mod:`repro.engine.rewrite`; on by default, ``REPRO_OPTIMIZE=0``
disables), fed by cached per-instance statistics and term closures
(:mod:`repro.engine.caches`).

The batch representation operators exchange is pluggable
(:mod:`repro.engine.batches`): plain tuple lists (default) or
NumPy-backed column batches with vectorized per-operator kernels
(``batch_repr="column"`` / ``REPRO_BATCH_REPR``), falling back to
tuple batches with a coded diagnostic when NumPy is unavailable.
"""

from repro.engine.batches import (
    BATCH_REPRS,
    COLUMNAR_UNAVAILABLE,
    DEFAULT_BATCH_REPR,
    ColumnBatch,
    columnar_available,
    columnar_unavailable_reason,
    default_batch_repr,
    resolve_batch_repr,
)
from repro.engine.caches import (
    clear_engine_caches,
    closure_for,
    engine_cache_info,
    stats_for,
)
from repro.engine.executor import RunReport, execute, plan_catalog
from repro.engine.operators import (
    DEFAULT_BATCH_SIZE,
    OpCounters,
    ProfiledOp,
    default_batch_size,
)
from repro.engine.planner import build_physical_plan
from repro.engine.rewrite import (
    OptimizationResult,
    RewriteStep,
    choose_build_sides,
    optimize_enabled,
    optimize_plan,
    shared_subplans,
    simplify,
)
from repro.engine.stats import (
    ENUMERATE_FANOUT,
    InstanceStats,
    TableStats,
    collect_stats,
    estimate_cardinality,
)

__all__ = [
    "execute", "RunReport", "OpCounters", "ProfiledOp",
    "DEFAULT_BATCH_SIZE", "default_batch_size",
    "BATCH_REPRS", "DEFAULT_BATCH_REPR", "COLUMNAR_UNAVAILABLE",
    "ColumnBatch", "columnar_available", "columnar_unavailable_reason",
    "default_batch_repr", "resolve_batch_repr",
    "build_physical_plan", "plan_catalog",
    "collect_stats", "TableStats", "InstanceStats",
    "estimate_cardinality", "choose_build_sides", "ENUMERATE_FANOUT",
    "optimize_plan", "optimize_enabled", "OptimizationResult",
    "RewriteStep", "shared_subplans", "simplify",
    "stats_for", "closure_for", "clear_engine_caches", "engine_cache_info",
]
