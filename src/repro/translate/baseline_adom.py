"""The [AB88]-style active-domain baseline translation.

[AB88] translates *range-restricted* calculus queries into the algebra
by making every variable range over (a function-closure of) the active
domain.  The paper's own illustration of the cost: it turns

    { x, y, z | R(x, y, z) & ~S(y, z) }

into ``project([@1,@2,@3], join({@2==@4, @3==@5}, R, (Adom x Adom) - S))``
whereas the [GT91]-style algorithm produces
``R - project([@1,@2,@3], join({@2==@4, @3==@5}, R, S))`` — no active
domain construction, dramatically smaller intermediates.  Experiment E6
measures exactly this gap.

This baseline is deliberately naive but *complete relative to the
universe*: every variable column is drawn from ``Adom^k`` and filtered,
so it answers any query whose semantics is taken over
``term_k(adom(q, I))`` — which for em-allowed queries coincides with
the true answer (Theorem 6.6).  That makes it a second, independent
oracle for the main translation in the test suite.
"""

from __future__ import annotations

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    Col,
    Condition,
    Diff,
    Join,
    Product,
    Project,
    Rel,
)
from repro.core.formulas import (
    And,
    Compare,
    Equals,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    RelAtom,
    free_variables,
)
from repro.core.queries import CalculusQuery
from repro.errors import TranslationError
from repro.semantics.levels import edi_level_query
from repro.translate.compiler import TRUE_CONTEXT_PLAN, _term_colexpr

__all__ = ["translate_query_adom"]


def _adom_power(names: list[str], adom: AdomK) -> tuple[AlgebraExpr, tuple[str, ...]]:
    """``Adom x ... x Adom``, one column per name."""
    if not names:
        return TRUE_CONTEXT_PLAN, ()
    plan: AlgebraExpr = adom
    for _ in names[1:]:
        plan = Product(plan, adom)
    return plan, tuple(names)


def _align(plan: AlgebraExpr, cols: tuple[str, ...],
           target: tuple[str, ...], adom: AdomK) -> AlgebraExpr:
    """Reorder/extend ``plan`` to the ``target`` column list, padding
    missing variables with Adom columns."""
    missing = [v for v in target if v not in cols]
    padded_cols = cols
    for v in missing:
        plan = Product(plan, adom)
        padded_cols = padded_cols + (v,)
    if padded_cols == target:
        return plan
    positions = {name: i + 1 for i, name in enumerate(padded_cols)}
    return Project(tuple(Col(positions[v]) for v in target), plan)


def _compile(formula: Formula, adom: AdomK) -> tuple[AlgebraExpr, tuple[str, ...]]:
    """Plan over columns = sorted free variables of ``formula``."""
    target = tuple(sorted(free_variables(formula)))

    if isinstance(formula, RelAtom):
        base, cols = _adom_power(list(target), adom)
        plan: AlgebraExpr = Join(frozenset(), base, Rel(formula.name)) \
            if target else Rel(formula.name)
        offset = len(target)
        positions = {name: i + 1 for i, name in enumerate(cols)}
        conds = set()
        for j, t in enumerate(formula.terms, start=1):
            conds.add(Condition(Col(offset + j), "=", _term_colexpr(t, positions)))
        if target:
            plan = Join(frozenset(conds), base, Rel(formula.name))
            plan = Project(tuple(Col(i + 1) for i in range(len(target))), plan)
        else:
            # ground atom: boolean via empty projection
            plan = Project((), Rel(formula.name)) if not formula.terms else plan
            if formula.terms:
                plan = Project((), Join(frozenset(
                    Condition(Col(j), "=", _term_colexpr(t, {}))
                    for j, t in enumerate(formula.terms, start=1)
                ), TRUE_CONTEXT_PLAN, Rel(formula.name)))
        return plan, target

    if isinstance(formula, (Equals, Compare)):
        base, cols = _adom_power(list(target), adom)
        positions = {name: i + 1 for i, name in enumerate(cols)}
        op = formula.op if isinstance(formula, Compare) else "="
        cond = Condition(_term_colexpr(formula.left, positions), op,
                         _term_colexpr(formula.right, positions))
        from repro.algebra.ast import Select
        return Select(frozenset({cond}), base), target

    if isinstance(formula, Not):
        inner, cols = _compile(formula.child, adom)
        inner = _align(inner, cols, target, adom)
        universe, _cols = _adom_power(list(target), adom)
        return Diff(universe, inner), target

    if isinstance(formula, And):
        plan, cols = _compile(formula.children[0], adom)
        for child in formula.children[1:]:
            right, right_cols = _compile(child, adom)
            shared = [v for v in right_cols if v in cols]
            conds = frozenset(
                Condition(Col(cols.index(v) + 1), "=",
                          Col(len(cols) + right_cols.index(v) + 1))
                for v in shared
            )
            plan = Join(conds, plan, right)
            merged = cols + tuple(v for v in right_cols if v not in cols)
            positions: dict[str, int] = {}
            for i, v in enumerate(cols):
                positions[v] = i + 1
            for i, v in enumerate(right_cols):
                positions.setdefault(v, len(cols) + i + 1)
            plan = Project(tuple(Col(positions[v]) for v in merged), plan)
            cols = merged
        return _align(plan, cols, target, adom), target

    if isinstance(formula, Or):
        aligned: list[AlgebraExpr] = []
        for child in formula.children:
            plan, cols = _compile(child, adom)
            aligned.append(_align(plan, cols, target, adom))
        from repro.algebra.ast import Union
        out = aligned[0]
        for plan in aligned[1:]:
            out = Union(out, plan)
        return out, target

    if isinstance(formula, Exists):
        inner, cols = _compile(formula.body, adom)
        keep = tuple(v for v in cols if v not in formula.vars)
        positions = {name: i + 1 for i, name in enumerate(cols)}
        plan = Project(tuple(Col(positions[v]) for v in keep), inner)
        return _align(plan, keep, target, adom), target

    if isinstance(formula, Forall):
        rewritten = Not(Exists(formula.vars, Not(formula.body)))
        return _compile(rewritten, adom)

    raise TypeError(f"not a formula: {formula!r}")


def translate_query_adom(query: CalculusQuery,
                         level: int | None = None) -> AlgebraExpr:
    """Translate ``query`` via the active-domain baseline.

    ``level`` is the function-closure depth of the Adom relation
    (default: the query's edi level).  The answer equals the reference
    semantics of :func:`repro.semantics.evaluate_query` by construction
    — both range variables over ``term_level(adom(q, I))``.
    """
    if level is None:
        level = edi_level_query(query)
    adom = AdomK(level, frozenset(query.constants()))
    plan, cols = _compile(query.body, adom)
    if tuple(sorted(query.head_variables)) != cols:
        missing = set(query.head_variables) - set(cols)
        if missing:
            raise TranslationError(f"baseline failed to bind {sorted(missing)}")
    positions = {name: i + 1 for i, name in enumerate(cols)}
    exprs = tuple(_term_colexpr(t, positions) for t in query.head)
    return Project(exprs, plan)
