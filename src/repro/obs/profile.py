"""Per-operator execution profiles.

An :class:`ExecutionProfile` is the runtime mirror of one plan: one
:class:`OperatorStats` record per operator node, holding actual rows
produced, invocation count, cumulative elapsed time, and (once
:meth:`ExecutionProfile.annotate_estimates` has run) the optimizer's
*estimated* cardinality for the originating algebra node.  Both
executors fill it:

* the physical engine (:func:`repro.engine.executor.execute` with
  ``profile=``) wraps every physical operator in a
  :class:`~repro.engine.operators.ProfiledOp`;
* the reference evaluator (:func:`repro.algebra.evaluator.evaluate`
  with ``profile=``) times each recursive node evaluation.

The per-node estimated-versus-actual comparison uses the **q-error**,
``max(est, actual) / min(est, actual)`` with both sides clamped to at
least one row — the standard, always-finite cardinality-estimation
quality measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    AntiJoin,
    Diff,
    Enumerate,
    Join,
    Lit,
    Params,
    Product,
    Project,
    Rel,
    Select,
    Union,
)

__all__ = ["OperatorStats", "ExecutionProfile", "algebra_label", "q_error"]


def algebra_label(node: AlgebraExpr) -> tuple[str, str]:
    """``(label, detail)`` for one algebra node, for profile display."""
    if isinstance(node, Rel):
        return "rel", node.name
    if isinstance(node, Lit):
        return "lit", f"arity={node.arity} rows={len(node.rows)}"
    if isinstance(node, AdomK):
        return "adom", f"level={node.level}"
    if isinstance(node, Params):
        return "params", f"arity={node.arity}"
    if isinstance(node, Project):
        return "project", "[" + ", ".join(str(e) for e in node.exprs) + "]"
    if isinstance(node, Select):
        return "select", "{" + ", ".join(sorted(str(c) for c in node.conds)) + "}"
    if isinstance(node, (Join, AntiJoin)):
        label = "join" if isinstance(node, Join) else "anti-join"
        return label, "{" + ", ".join(sorted(str(c) for c in node.conds)) + "}"
    if isinstance(node, Enumerate):
        inputs = ", ".join(str(e) for e in node.inputs)
        return "enumerate", f"{node.enumerator}({inputs})"
    if isinstance(node, Union):
        return "union", ""
    if isinstance(node, Diff):
        return "diff", ""
    if isinstance(node, Product):
        return "product", ""
    return type(node).__name__.lower(), ""


def q_error(estimated: float | None, actual: int) -> float | None:
    """Always-finite q-error: both sides clamped to >= 1 row."""
    if estimated is None:
        return None
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return est / act if est >= act else act / est


@dataclass
class OperatorStats:
    """Measurements of one operator node over one execution."""

    op_id: int
    label: str                    # operator name, e.g. "hash-join"
    detail: str                   # short one-line specifics
    children: tuple[int, ...] = ()
    #: One-line inferred column facts of the originating algebra node
    #: (see :meth:`repro.analysis.typeinfer.NodeFacts.describe`); empty
    #: when the planner had no type information.
    typed_facts: str = ""
    rows_out: int = 0
    calls: int = 0                # next_batch() invocations (incl. final None)
    elapsed_s: float = 0.0        # cumulative: includes time in children
    child_elapsed_s: float = 0.0  # portion of elapsed_s spent inside children
    estimated_rows: float | None = None
    #: Batches this node processed through its vectorized columnar
    #: kernel / through the tuple fallback.  Both zero outside column
    #: mode (and for the reference evaluator).
    kernel_batches: int = 0
    fallback_batches: int = 0

    @property
    def self_elapsed_s(self) -> float:
        """Time attributable to this node alone (``elapsed_s`` minus the
        children's share, clamped at zero against timer jitter)."""
        return max(0.0, self.elapsed_s - self.child_elapsed_s)

    @property
    def q_error(self) -> float | None:
        return q_error(self.estimated_rows, self.rows_out)


class ExecutionProfile:
    """Per-node runtime statistics of one plan execution."""

    __slots__ = ("query", "nodes", "_algebra", "elapsed_s", "result_rows",
                 "function_calls")

    def __init__(self, query: str | None = None):
        self.query = query
        self.nodes: dict[int, OperatorStats] = {}
        self._algebra: dict[int, AlgebraExpr] = {}
        self.elapsed_s: float = 0.0
        self.result_rows: int | None = None
        self.function_calls: int | None = None

    def register(self, label: str, detail: str,
                 algebra_node: AlgebraExpr | None = None,
                 children: tuple[int, ...] | list[int] = (),
                 typed_facts: str = "") -> OperatorStats:
        """Create the stats record for one operator node."""
        op_id = len(self.nodes) + 1
        stats = OperatorStats(op_id, label, detail, tuple(children),
                              typed_facts=typed_facts)
        self.nodes[op_id] = stats
        if algebra_node is not None:
            self._algebra[op_id] = algebra_node
        return stats

    @property
    def root_id(self) -> int | None:
        """The node no other node lists as a child (registration is
        bottom-up, so the root is the last such node)."""
        if not self.nodes:
            return None
        referenced = {c for s in self.nodes.values() for c in s.children}
        roots = [op_id for op_id in self.nodes if op_id not in referenced]
        return max(roots) if roots else None

    def rows_in(self, op_id: int) -> int:
        """Rows this node consumed = rows its children produced."""
        return sum(self.nodes[c].rows_out for c in self.nodes[op_id].children)

    def annotate_estimates(self, instance_stats) -> None:
        """Attach ``estimate_cardinality`` of each node's originating
        algebra expression (``instance_stats`` is an
        :class:`repro.engine.stats.InstanceStats`)."""
        from repro.engine.stats import estimate_cardinality
        for op_id, node in self._algebra.items():
            self.nodes[op_id].estimated_rows = estimate_cardinality(
                node, instance_stats)

    def total_rows(self) -> int:
        """Rows produced across all operators (the E6 cost measure)."""
        return sum(s.rows_out for s in self.nodes.values())

    def by_class(self) -> dict[str, dict]:
        """Aggregate rows/calls/time and worst q-error per operator label."""
        out: dict[str, dict] = {}
        for stats in self.nodes.values():
            agg = out.setdefault(stats.label, {
                "nodes": 0, "rows_out": 0, "calls": 0,
                "elapsed_s": 0.0, "self_elapsed_s": 0.0, "max_q_error": None,
                "kernel_batches": 0, "fallback_batches": 0,
            })
            agg["nodes"] += 1
            agg["rows_out"] += stats.rows_out
            agg["calls"] += stats.calls
            agg["elapsed_s"] += stats.elapsed_s
            agg["self_elapsed_s"] += stats.self_elapsed_s
            agg["kernel_batches"] += stats.kernel_batches
            agg["fallback_batches"] += stats.fallback_batches
            qe = stats.q_error
            if qe is not None:
                prev = agg["max_q_error"]
                agg["max_q_error"] = qe if prev is None else max(prev, qe)
        return out

    def to_dict(self) -> dict:
        """JSON-ready representation (see :mod:`repro.obs.export`)."""
        operators = []
        for stats in sorted(self.nodes.values(), key=lambda s: s.op_id):
            operators.append({
                "op_id": stats.op_id,
                "label": stats.label,
                "detail": stats.detail,
                "children": list(stats.children),
                "rows_out": stats.rows_out,
                "rows_in": self.rows_in(stats.op_id),
                "calls": stats.calls,
                "elapsed_s": stats.elapsed_s,
                "child_elapsed_s": stats.child_elapsed_s,
                "self_elapsed_s": stats.self_elapsed_s,
                "estimated_rows": stats.estimated_rows,
                "q_error": stats.q_error,
                "typed_facts": stats.typed_facts,
                "kernel_batches": stats.kernel_batches,
                "fallback_batches": stats.fallback_batches,
            })
        return {
            "query": self.query,
            "root_id": self.root_id,
            "elapsed_s": self.elapsed_s,
            "result_rows": self.result_rows,
            "function_calls": self.function_calls,
            "total_operator_rows": self.total_rows(),
            "operators": operators,
            "by_class": self.by_class(),
        }
