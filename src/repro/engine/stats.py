"""Table statistics and cardinality estimation.

The practical setting of Section 9 implies a cost-based layer above the
translation: the emitted algebra leaves freedom (join build sides,
evaluation order among equals) that a real system resolves with
statistics.  This module provides the minimal, classical machinery:

* :class:`TableStats` — row count and per-column distinct counts,
  collected by one scan;
* :func:`estimate_cardinality` — textbook selectivity arithmetic over
  an algebra expression (equality ``1/distinct``, range ``1/3``,
  equi-join ``|L|·|R| / max(d_L, d_R)``).

Estimates feed the cost-based rules of :mod:`repro.engine.rewrite`;
they are heuristics,
so the tests pin their *monotonicity* and order-of-magnitude behaviour
rather than exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    AntiJoin,
    Col,
    Condition,
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
from repro.data.instance import Instance

__all__ = ["TableStats", "InstanceStats", "collect_stats", "estimate_cardinality"]

#: Selectivity assumed for range predicates (<, <=, >, >=).
RANGE_SELECTIVITY = 1 / 3
#: Selectivity assumed for inequality predicates.
NEQ_SELECTIVITY = 0.9
#: Fallback distinct count when a column is unknown.
DEFAULT_DISTINCT = 10.0
#: Assumed tuples yielded per input row by an Enumerate operator
#: (annotation enumerators typically return a handful of inverses).
ENUMERATE_FANOUT = 4.0


@dataclass(frozen=True, slots=True)
class TableStats:
    """Statistics of one stored relation."""

    rows: int
    distinct: tuple[int, ...]  # per column

    def distinct_at(self, column: int) -> float:
        """Distinct count of a 1-based column (fallback when unknown)."""
        if 1 <= column <= len(self.distinct):
            return float(max(self.distinct[column - 1], 1))
        return DEFAULT_DISTINCT


@dataclass(frozen=True, slots=True)
class InstanceStats:
    """Statistics for every relation of an instance."""

    tables: dict

    def table(self, name: str) -> TableStats | None:
        return self.tables.get(name)


def collect_stats(instance: Instance) -> InstanceStats:
    """One pass per relation: row and per-column distinct counts."""
    tables: dict[str, TableStats] = {}
    for name in instance.names:
        rel = instance.relation(name)
        columns = [set() for _ in range(rel.arity)]
        for row in rel:
            for i, value in enumerate(row):
                columns[i].add(value)
        tables[name] = TableStats(len(rel), tuple(len(c) for c in columns))
    return InstanceStats(tables)


def _condition_selectivity(cond: Condition, distinct_of) -> float:
    """Selectivity of one condition; ``distinct_of(col)`` estimates a
    column's distinct count."""
    from repro.algebra.ast import CConst, compare_values
    if isinstance(cond.left, CConst) and isinstance(cond.right, CConst):
        # Constant vs constant is decidable at plan time: exactly 1.0
        # or 0.0, never a guess (the rewrite pass folds these away).
        return 1.0 if compare_values(cond.op, cond.left.value,
                                     cond.right.value) else 0.0
    if cond.op == "=":
        if isinstance(cond.left, Col) and isinstance(cond.right, Col):
            return 1.0 / max(distinct_of(cond.left.index),
                             distinct_of(cond.right.index))
        if isinstance(cond.left, Col) or isinstance(cond.right, Col):
            col = cond.left if isinstance(cond.left, Col) else cond.right
            return 1.0 / distinct_of(col.index)
        return 0.5
    if cond.op == "!=":
        return NEQ_SELECTIVITY
    return RANGE_SELECTIVITY


def estimate_cardinality(expr: AlgebraExpr, stats: InstanceStats) -> float:
    """Estimated output rows of ``expr`` (never below 0)."""

    def distinct_fallback(_col: int) -> float:
        return DEFAULT_DISTINCT

    def go(node: AlgebraExpr) -> float:
        if isinstance(node, Rel):
            table = stats.table(node.name)
            return float(table.rows) if table else 100.0
        if isinstance(node, Lit):
            return float(len(node.rows))
        if isinstance(node, Params):
            return 1.0
        if isinstance(node, AdomK):
            total = sum(t.rows for t in stats.tables.values())
            return float(max(total, 1)) * (2 ** node.level)
        if isinstance(node, Project):
            # set semantics: projection may deduplicate, conservatively
            # keep the child estimate
            return go(node.child)
        if isinstance(node, Select):
            rows = go(node.child)
            distinct_of = _column_distinct(node.child)
            for cond in node.conds:
                rows *= _condition_selectivity(cond, distinct_of)
            return rows
        if isinstance(node, Join):
            left, right = go(node.left), go(node.right)
            rows = left * right
            left_distinct = _column_distinct(node.left)
            arity_left = _static_arity(node.left)
            for cond in node.conds:
                if cond.op != "=":
                    rows *= (RANGE_SELECTIVITY if cond.op != "!="
                             else NEQ_SELECTIVITY)
                    continue
                if isinstance(cond.left, Col) and isinstance(cond.right, Col):
                    a, b = sorted((cond.left.index, cond.right.index))
                    if arity_left is not None and a <= arity_left < b:
                        d = max(left_distinct(a),
                                _column_distinct(node.right)(b - arity_left))
                        rows /= d
                        continue
                rows *= 0.5
            return rows
        if isinstance(node, Enumerate):
            return go(node.child) * ENUMERATE_FANOUT
        if isinstance(node, Union):
            return go(node.left) + go(node.right)
        if isinstance(node, Diff):
            return max(go(node.left) - go(node.right) * 0.5, 0.0)
        if isinstance(node, AntiJoin):
            # as for the difference it stands for, left - (left join right)
            joined = Join(node.conds, node.left, node.right)
            return max(go(node.left) - go(joined) * 0.5, 0.0)
        if isinstance(node, Product):
            return go(node.left) * go(node.right)
        raise TypeError(f"not an algebra expression: {node!r}")

    def _column_distinct(node: AlgebraExpr):
        if isinstance(node, Rel):
            table = stats.table(node.name)
            if table is not None:
                return table.distinct_at
        if isinstance(node, (Select, Diff, AntiJoin)):
            # selections/differences keep a subset of the child's values;
            # the child's distinct counts are a (close) upper bound
            child = node.child if isinstance(node, Select) else node.left
            return _column_distinct(child)
        if isinstance(node, Project):
            child_distinct = _column_distinct(node.child)

            def via_projection(column: int) -> float:
                if 1 <= column <= len(node.exprs):
                    expr = node.exprs[column - 1]
                    if isinstance(expr, Col):
                        return child_distinct(expr.index)
                return DEFAULT_DISTINCT

            return via_projection
        if isinstance(node, (Join, Product)):
            left_arity = _static_arity(node.left)
            if left_arity is not None:
                left_distinct = _column_distinct(node.left)
                right_distinct = _column_distinct(node.right)

                def via_join(column: int) -> float:
                    if column <= left_arity:
                        return left_distinct(column)
                    return right_distinct(column - left_arity)

                return via_join
        return distinct_fallback

    def _static_arity(node: AlgebraExpr) -> int | None:
        if isinstance(node, Rel):
            table = stats.table(node.name)
            if table is not None:
                return len(table.distinct)
            return None
        if isinstance(node, Lit):
            return node.arity
        if isinstance(node, Params):
            return node.arity
        if isinstance(node, AdomK):
            return 1
        if isinstance(node, Project):
            return len(node.exprs)
        if isinstance(node, Select):
            return _static_arity(node.child)
        if isinstance(node, Enumerate):
            child = _static_arity(node.child)
            return None if child is None else child + node.out_count
        if isinstance(node, (Join, Product)):
            left = _static_arity(node.left)
            right = _static_arity(node.right)
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node, (Union, Diff, AntiJoin)):
            return _static_arity(node.left)
        return None

    return max(go(expr), 0.0)
