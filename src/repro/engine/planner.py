"""Physical planning: algebra expressions to operator trees.

The planner makes the two decisions a minimal executor needs:

* **join algorithm** — a join whose conditions include at least one
  plain column-to-column equality becomes a :class:`HashJoinOp` keyed on
  all such pairs, with the remaining conditions applied as residual
  filters; anything else falls back to :class:`NestedLoopJoinOp`;
* **build side** — the right input is always the build side, matching
  how the translator emits plans (context on the left, base relation on
  the right; the context is usually the larger stream).  The cost-based
  rewrite pass (:mod:`repro.engine.rewrite`) swaps inputs *above* this
  layer when statistics disagree.

Plans are rebuilt per execution (operators are single-use iterators).
Two cross-cutting optimizations surface here:

* ``AdomK`` closures come from the cross-query cache
  (:func:`repro.engine.caches.closure_for`) — the [AB88] baseline emits
  the same closure many times per plan and across requests;
* the optimizer's ``shared`` set marks structurally repeated subplans;
  each is built once behind a
  :class:`~repro.engine.operators.SharedSubplan` and every occurrence
  reads the materialization through its own
  :class:`~repro.engine.operators.MaterializeOp`.
"""

from __future__ import annotations

from repro.algebra.ast import (
    AdomK,
    Enumerate,
    Params,
    AlgebraExpr,
    AntiJoin,
    Col,
    Condition,
    Diff,
    Join,
    Lit,
    Product,
    Project,
    Rel,
    Select,
    Union,
)
from repro.core.schema import DatabaseSchema
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine.caches import closure_for
from repro.engine.operators import (
    AdomOp,
    AntiJoinOp,
    DiffOp,
    EnumerateOp,
    FilterOp,
    HashJoinOp,
    LiteralOp,
    MapOp,
    MaterializeOp,
    NestedLoopJoinOp,
    OpCounters,
    PhysicalOp,
    ProfiledOp,
    ScanOp,
    SharedSubplan,
    UnionOp,
)
from repro.engine.batches import resolve_batch_repr
from repro.engine.operators import default_batch_size
from repro.errors import EvaluationError
from repro.obs.profile import ExecutionProfile, algebra_label

__all__ = ["build_physical_plan"]


def _split_join_conditions(conds: frozenset[Condition], left_arity: int
                           ) -> tuple[tuple[tuple[int, int], ...], frozenset[Condition]]:
    """Partition into hashable equi-pairs (left col, right col) and residual."""
    pairs: list[tuple[int, int]] = []
    residual: set[Condition] = set()
    for cond in conds:
        if (cond.op == "=" and isinstance(cond.left, Col)
                and isinstance(cond.right, Col)):
            a, b = cond.left.index, cond.right.index
            if a > b:
                a, b = b, a
            if a <= left_arity < b:
                pairs.append((a, b - left_arity))
                continue
        residual.add(cond)
    return tuple(pairs), frozenset(residual)


def build_physical_plan(expr: AlgebraExpr, instance: Instance,
                        interpretation: Interpretation,
                        schema: DatabaseSchema | None = None,
                        counters: OpCounters | None = None,
                        profile: ExecutionProfile | None = None,
                        batch_size: int | None = None,
                        shared: frozenset | None = None,
                        plan_types=None,
                        batch_repr: str | None = None) -> PhysicalOp:
    """Compile an algebra expression into an executable operator tree.

    ``batch_size`` sets the rows-per-batch of every source operator in
    the tree; ``None`` resolves :func:`default_batch_size` once per plan
    (the ``REPRO_BATCH_SIZE`` environment variable, else 1024).

    ``batch_repr`` picks the batch representation every operator in the
    tree exchanges (``"tuple"`` or ``"column"``); ``None`` resolves
    :func:`~repro.engine.batches.default_batch_repr` once per plan (the
    ``REPRO_BATCH_REPR`` environment variable, else tuple).  Requesting
    ``column`` without NumPy silently resolves to ``tuple`` here — the
    executor resolves first and reports the coded fallback on its
    :class:`~repro.engine.executor.RunReport`.

    ``shared`` (from :func:`repro.engine.rewrite.shared_subplans`) lists
    structurally repeated subplans: the first occurrence is built
    normally and materialized behind a ``SharedSubplan``; every
    occurrence — including the first — reads the cached rows through
    its own ``MaterializeOp``, so a subplan appearing N times is
    evaluated once.

    With ``profile`` set, every operator is wrapped in a
    :class:`~repro.engine.operators.ProfiledOp` recording rows, calls,
    and elapsed time per node into the profile — including its
    children's elapsed time separately, so ``EXPLAIN ANALYZE`` can show
    per-node self time; without it, the tree is built exactly as before
    (no wrappers, no overhead).

    ``plan_types`` (a :class:`~repro.analysis.typeinfer.PlanTypes` for
    ``expr``) stamps each profiled operator with the inferred column
    facts of its originating algebra node — the ``::`` lines of
    ``EXPLAIN ANALYZE``.  Ignored without ``profile``.
    """
    if counters is None:
        counters = OpCounters()
    resolved_batch_size = (default_batch_size() if batch_size is None
                           else batch_size)
    if resolved_batch_size < 1:
        raise EvaluationError(
            f"batch_size must be a positive integer, got {resolved_batch_size}")
    resolved_batch_repr, _repr_reason = resolve_batch_repr(batch_repr)

    def wrap(op: PhysicalOp, label: str, node: AlgebraExpr,
             *children: PhysicalOp) -> PhysicalOp:
        op.batch_size = resolved_batch_size
        op.batch_repr = resolved_batch_repr
        if profile is None:
            return op
        child_stats = tuple(c.stats for c in children
                            if isinstance(c, ProfiledOp))
        child_ids = tuple(s.op_id for s in child_stats)
        _logical, detail = algebra_label(node)
        facts = ""
        if plan_types is not None:
            node_facts = plan_types.facts.get(node)
            if node_facts is not None:
                facts = node_facts.describe()
        stats = profile.register(label, detail, algebra_node=node,
                                 children=child_ids, typed_facts=facts)
        return ProfiledOp(op, stats, child_stats)

    shared_builds: dict[AlgebraExpr, SharedSubplan] = {}

    def go(node: AlgebraExpr) -> PhysicalOp:
        if shared and node in shared:
            cached = shared_builds.get(node)
            if cached is None:
                inner = build(node)
                cached = shared_builds[node] = SharedSubplan(inner)
                return wrap(MaterializeOp(cached, counters),
                            "materialize", node, inner)
            return wrap(MaterializeOp(cached, counters),
                        "materialize", node)
        return build(node)

    def build(node: AlgebraExpr) -> PhysicalOp:
        if isinstance(node, Rel):
            return wrap(ScanOp(instance.relation(node.name), counters),
                        "scan", node)
        if isinstance(node, Lit):
            return wrap(LiteralOp(node.arity, node.rows, counters),
                        "literal", node)
        if isinstance(node, Params):
            raise EvaluationError(
                "plan contains an unbound parameter relation; call "
                "bind_parameters(plan, rows) before executing")
        if isinstance(node, AdomK):
            if schema is None:
                raise EvaluationError("AdomK requires a schema")
            closed = closure_for(instance, node.level, node.extras,
                                 interpretation, schema)
            return wrap(AdomOp(frozenset(closed), counters), "adom", node)
        if isinstance(node, Project):
            child = go(node.child)
            return wrap(MapOp(node.exprs, child, interpretation),
                        "map", node, child)
        if isinstance(node, Select):
            child = go(node.child)
            return wrap(FilterOp(node.conds, child, interpretation),
                        "filter", node, child)
        if isinstance(node, Enumerate):
            child = go(node.child)
            return wrap(
                EnumerateOp(interpretation.enumerator(node.enumerator),
                            node.inputs, node.out_count, child,
                            interpretation),
                "enumerate", node, child)
        if isinstance(node, Join):
            left = go(node.left)
            right = go(node.right)
            pairs, residual = _split_join_conditions(node.conds, left.arity)
            if pairs:
                return wrap(HashJoinOp(pairs, residual, left, right,
                                       interpretation),
                            "hash-join", node, left, right)
            return wrap(NestedLoopJoinOp(node.conds, left, right,
                                         interpretation),
                        "nl-join", node, left, right)
        if isinstance(node, Product):
            left, right = go(node.left), go(node.right)
            return wrap(NestedLoopJoinOp(frozenset(), left, right,
                                         interpretation),
                        "nl-join", node, left, right)
        if isinstance(node, Union):
            left, right = go(node.left), go(node.right)
            return wrap(UnionOp(left, right), "union", node, left, right)
        if isinstance(node, AntiJoin):
            left, right = go(node.left), go(node.right)
            pairs, residual = _split_join_conditions(node.conds, left.arity)
            return wrap(AntiJoinOp(pairs, residual, left, right,
                                   interpretation),
                        "anti-join", node, left, right)
        if isinstance(node, Diff):
            left, right = go(node.left), go(node.right)
            return wrap(DiffOp(left, right), "diff", node, left, right)
        raise TypeError(f"not an algebra expression: {node!r}")

    return go(expr)
