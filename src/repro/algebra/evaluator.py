"""Reference evaluator for the extended algebra.

Evaluates an :class:`~repro.algebra.ast.AlgebraExpr` against an
``(Instance, Interpretation)`` pair, producing a
:class:`~repro.data.relation.Relation`.  This evaluator favours clarity
over speed (set comprehensions, no indexes); the
:mod:`repro.engine` package provides the physical operators used for
performance experiments.

``EvalStats`` counts intermediate rows, which is the cost measure the
E6 baseline comparison reports — the Adom-product plans of the [AB88]
translation materialize dramatically larger intermediates than the
[GT91]-style plans the paper's algorithm emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.algebra.ast import (
    AdomK,
    AntiJoin,
    Enumerate,
    Params,
    compare_values,
    AlgebraExpr,
    CApp,
    CConst,
    Col,
    ColExpr,
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
from repro.data.domain import term_closure
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation, UNDEFINED
from repro.data.relation import Relation
from repro.errors import EvaluationError

__all__ = ["evaluate", "eval_colexpr", "EvalStats"]


@dataclass
class EvalStats:
    """Counters accumulated over one evaluation."""

    rows_produced: int = 0
    operator_rows: dict[str, int] = field(default_factory=dict)

    def record(self, operator: str, rows: int) -> None:
        self.rows_produced += rows
        self.operator_rows[operator] = self.operator_rows.get(operator, 0) + rows


def eval_colexpr(expr: ColExpr, row: tuple, interpretation: Interpretation) -> Hashable:
    """Evaluate a column expression against a row (1-based coordinates)."""
    if isinstance(expr, Col):
        if expr.index > len(row):
            raise EvaluationError(
                f"column @{expr.index} out of range for row of width {len(row)}"
            )
        return row[expr.index - 1]
    if isinstance(expr, CConst):
        return expr.value
    if isinstance(expr, CApp):
        args = [eval_colexpr(a, row, interpretation) for a in expr.args]
        if any(a is UNDEFINED for a in args):
            return UNDEFINED
        return interpretation[expr.name](*args)
    raise TypeError(f"not a column expression: {expr!r}")


def _satisfies(conds: frozenset[Condition], row: tuple,
               interpretation: Interpretation) -> bool:
    for cond in conds:
        left = eval_colexpr(cond.left, row, interpretation)
        right = eval_colexpr(cond.right, row, interpretation)
        if not compare_values(cond.op, left, right):
            return False
    return True


def evaluate(expr: AlgebraExpr, instance: Instance,
             interpretation: Interpretation,
             schema: DatabaseSchema | None = None,
             stats: EvalStats | None = None,
             profile=None) -> Relation:
    """Evaluate ``expr`` to a relation.

    ``schema`` is required only when the plan contains :class:`AdomK`
    (the active-domain closure needs the function signatures).

    ``profile`` (an :class:`~repro.obs.profile.ExecutionProfile`)
    additionally records one stats node per algebra node — rows
    produced, calls, and cumulative elapsed time — mirroring what the
    physical engine records, so the reference evaluator supports the
    same ``EXPLAIN ANALYZE`` rendering.  ``None`` (the default) leaves
    the evaluation path untouched.
    """

    def record(name: str, rel: Relation) -> Relation:
        if stats is not None:
            stats.record(name, len(rel))
        return rel

    def base(node: AlgebraExpr) -> Relation:
        if isinstance(node, Rel):
            return record("rel", instance.relation(node.name))
        if isinstance(node, Lit):
            return record("lit", Relation(node.arity, node.rows))
        if isinstance(node, Params):
            raise EvaluationError(
                "plan contains an unbound parameter relation; call "
                "bind_parameters(plan, rows) before evaluating")
        if isinstance(node, AdomK):
            if schema is None:
                raise EvaluationError("AdomK requires a schema to close under functions")
            domain = set(instance.active_domain()) | set(node.extras)
            closed = term_closure(domain, node.level, interpretation, schema)
            return record("adom", Relation.from_values(closed))
        if isinstance(node, Project):
            child = go(node.child)
            rows = set()
            for row in child:
                out = tuple(eval_colexpr(e, row, interpretation)
                            for e in node.exprs)
                # a row constructing an UNDEFINED value is dropped: no
                # domain value equals the undefined application
                if any(v is UNDEFINED for v in out):
                    continue
                rows.add(out)
            return record("project", Relation(len(node.exprs), rows))
        if isinstance(node, Select):
            child = go(node.child)
            rows = {row for row in child if _satisfies(node.conds, row, interpretation)}
            return record("select", Relation(child.arity, rows))
        if isinstance(node, Enumerate):
            child = go(node.child)
            enum = interpretation.enumerator(node.enumerator)
            rows = set()
            for row in child:
                values = [eval_colexpr(e, row, interpretation)
                          for e in node.inputs]
                if any(v is UNDEFINED for v in values):
                    continue
                for out in enum(*values):
                    rows.add(row + tuple(out))
            return record("enumerate",
                          Relation(child.arity + node.out_count, rows))
        if isinstance(node, Join):
            left = go(node.left)
            right = go(node.right)
            rows = {
                lrow + rrow
                for lrow in left
                for rrow in right
                if _satisfies(node.conds, lrow + rrow, interpretation)
            }
            return record("join", Relation(left.arity + right.arity, rows))
        if isinstance(node, Union):
            out = go(node.left).union(go(node.right))
            return record("union", out)
        if isinstance(node, Diff):
            out = go(node.left).difference(go(node.right))
            return record("diff", out)
        if isinstance(node, AntiJoin):
            # by definition, evaluating (and counting) the left input
            # twice, as the difference T15 writes does
            identity = tuple(Col(i) for i in range(1, node.arity + 1))
            return base(Diff(node.left, Project(identity, Join(
                node.conds, node.left, node.right))))
        if isinstance(node, Product):
            out = go(node.left).product(go(node.right))
            return record("product", out)
        raise TypeError(f"not an algebra expression: {node!r}")

    if profile is None:
        go = base
        return go(expr)

    import time as _time
    from repro.obs.profile import algebra_label

    # Children register themselves into the innermost open frame, so a
    # node learns its children's ids when its own evaluation returns
    # (registration is bottom-up, matching the physical planner).
    frames: list[list[int]] = [[]]

    def go(node: AlgebraExpr) -> Relation:
        frames.append([])
        start = _time.perf_counter()
        rel = base(node)
        elapsed = _time.perf_counter() - start
        children = frames.pop()
        label, detail = algebra_label(node)
        op_stats = profile.register(label, detail, algebra_node=node,
                                    children=children)
        op_stats.calls += 1
        op_stats.rows_out += len(rel)
        op_stats.elapsed_s += elapsed
        # children are fully evaluated within this node's timing window,
        # so their cumulative time is exactly this node's child share
        op_stats.child_elapsed_s += sum(
            profile.nodes[c].elapsed_s for c in children)
        frames[-1].append(op_stats.op_id)
        return rel

    return go(expr)
