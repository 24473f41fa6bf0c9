"""Algebraic plan simplification.

The translator emits structurally regular plans (a projection over a
chain of joins and selections per RANF conjunction); this pass cleans
the common redundancies so the plans in EXPERIMENTS.md read like the
paper's hand-written ones:

* cascade projections (``project(A, project(B, e))`` composes);
* merge cascading selections;
* turn a selection over a product into a join;
* drop identity projections and empty selection sets;
* turn T15's generalized difference ``e - project([@1..@n],
  join(c, e, X))`` into ``AntiJoin(n, c, e, X)``, the only place the
  anti-join node is created.

Every rewrite preserves the evaluated relation exactly (tested against
the reference evaluator on random instances).
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.ast import (
    AlgebraExpr,
    AntiJoin,
    Enumerate,
    CApp,
    CConst,
    Col,
    ColExpr,
    Diff,
    Join,
    Lit,
    Product,
    Project,
    Select,
    Union,
    arity_of,
)

__all__ = ["simplify"]


def _is_true_relation(expr: AlgebraExpr) -> bool:
    """The arity-0 one-row literal: the neutral element of product/join."""
    return isinstance(expr, Lit) and expr.arity == 0 and expr.rows == frozenset({()})


def _substitute_cols(expr: ColExpr, replacements: tuple[ColExpr, ...]) -> ColExpr:
    """Replace ``@i`` by ``replacements[i-1]`` recursively."""
    if isinstance(expr, Col):
        return replacements[expr.index - 1]
    if isinstance(expr, CConst):
        return expr
    if isinstance(expr, CApp):
        return CApp(expr.name, tuple(_substitute_cols(a, replacements) for a in expr.args))
    raise TypeError(f"not a column expression: {expr!r}")


def _rewrite_once(expr: AlgebraExpr, catalog: Mapping[str, int]) -> AlgebraExpr:
    if isinstance(expr, Project):
        child = _rewrite_once(expr.child, catalog)
        # cascade projections: outer expressions are over the inner outputs
        if isinstance(child, Project):
            composed = tuple(_substitute_cols(e, child.exprs) for e in expr.exprs)
            return _rewrite_once(Project(composed, child.child), catalog)
        # identity projection
        child_arity = arity_of(child, catalog)
        identity = tuple(Col(i) for i in range(1, child_arity + 1))
        if expr.exprs == identity:
            return child
        return Project(expr.exprs, child)
    if isinstance(expr, Select):
        child = _rewrite_once(expr.child, catalog)
        if not expr.conds:
            return child
        if isinstance(child, Select):
            return _rewrite_once(Select(child.conds | expr.conds, child.child), catalog)
        if isinstance(child, Product):
            return _rewrite_once(Join(expr.conds, child.left, child.right), catalog)
        if isinstance(child, Join):
            return _rewrite_once(Join(child.conds | expr.conds, child.left, child.right),
                                 catalog)
        return Select(expr.conds, child)
    if isinstance(expr, Join):
        left = _rewrite_once(expr.left, catalog)
        right = _rewrite_once(expr.right, catalog)
        if _is_true_relation(left):
            out: AlgebraExpr = right
            if expr.conds:
                out = Select(expr.conds, out)
            return _rewrite_once(out, catalog)
        if _is_true_relation(right):
            out = left
            if expr.conds:
                out = Select(expr.conds, out)
            return _rewrite_once(out, catalog)
        if not expr.conds:
            return Product(left, right)
        return Join(expr.conds, left, right)
    if isinstance(expr, Union):
        return Union(_rewrite_once(expr.left, catalog), _rewrite_once(expr.right, catalog))
    if isinstance(expr, Diff):
        left = _rewrite_once(expr.left, catalog)
        right = _rewrite_once(expr.right, catalog)
        if (isinstance(right, Project) and isinstance(right.child, Join)
                and right.child.left == left
                and right.exprs == tuple(Col(i) for i in
                                         range(1, len(right.exprs) + 1))):
            return AntiJoin(len(right.exprs), right.child.conds, left,
                            right.child.right)
        return Diff(left, right)
    if isinstance(expr, AntiJoin):
        return AntiJoin(expr.arity, expr.conds,
                        _rewrite_once(expr.left, catalog),
                        _rewrite_once(expr.right, catalog))
    if isinstance(expr, Enumerate):
        return Enumerate(expr.enumerator, expr.inputs,
                         expr.out_count, _rewrite_once(expr.child, catalog))
    if isinstance(expr, Product):
        left = _rewrite_once(expr.left, catalog)
        right = _rewrite_once(expr.right, catalog)
        if _is_true_relation(left):
            return right
        if _is_true_relation(right):
            return left
        return Product(left, right)
    return expr


def simplify(expr: AlgebraExpr, catalog: Mapping[str, int],
             max_rounds: int = 8, verify: bool = False) -> AlgebraExpr:
    """Apply the rewrites to a fixed point (bounded by ``max_rounds``).

    With ``verify=True`` the plan sanitizer
    (:mod:`repro.analysis.sanitizer`) re-checks the plan after every
    rewrite round and raises
    :class:`~repro.errors.PlanInvariantError` naming the round that
    corrupted it — each rewrite must preserve arity, not just the
    fixed point.
    """
    if verify:
        # Imported lazily: the sanitizer depends on this package.
        from repro.analysis.sanitizer import check_plan
        expected = len(expr.exprs) if isinstance(expr, Project) else None
        check_plan(expr, catalog, phase="simplify input",
                   expected_arity=expected)
    else:
        check_plan = None
        expected = None
    current = expr
    for round_no in range(max_rounds):
        rewritten = _rewrite_once(current, catalog)
        if check_plan is not None:
            check_plan(rewritten, catalog,
                       phase=f"simplifier round {round_no + 1}",
                       expected_arity=expected)
        if rewritten == current:
            return current
        current = rewritten
    return current
