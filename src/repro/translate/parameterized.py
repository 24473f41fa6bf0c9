"""Parameterized queries: translation of *em-allowed for X* queries
(Section 9(c) of the paper).

In the embedded setting a query often has **parameters** — variables
whose values the host program supplies at run time::

    # "employees earning more than $threshold"
    { n | EMP(n, s) ... }   with parameter threshold

Such a body need not be em-allowed outright; it must be *em-allowed for
X*, the parameter set: ``bd(body) |= X -> free(body)``.  The paper notes
the translation generalizes by replacing 'em-allowed' with 'em-allowed
for X' in the transformations; here that amounts to starting the
compiler from a context that already binds the parameter columns — a
:class:`~repro.algebra.ast.Params` placeholder relation the host binds
to concrete tuples before execution.

Usage::

    pq = parameterized_query(["lo"], ["n"],
                             "exists s (EMP(n, s) & s > lo)", schema)
    result = translate_parameterized(pq)
    plan = bind_parameters(result.plan, [(1000,)])
    answer = evaluate(plan, instance, functions, schema=result.schema)

Binding several parameter tuples at once evaluates the query for the
whole batch — each answer row is prefixed with its parameter values, so
the host can correlate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.algebra.ast import (AlgebraExpr, AntiJoin, Diff, Join, Lit, Params,
                               Product, Project, Select, Union)
from repro.algebra.simplifier import simplify
from repro.core.formulas import Formula, free_variables
from repro.core.parser import parse_formula
from repro.core.queries import CalculusQuery
from repro.core.schema import DatabaseSchema
from repro.core.terms import Term, Var, variables as term_variables
from repro.errors import FormulaError, NotEmAllowedError
from repro.safety.em_allowed import em_allowed_violations
from repro.semantics.eval_calculus import query_schema
from repro.translate.compiler import CompiledContext, _compile_into, _term_colexpr
from repro.translate.enf import to_enf
from repro.translate.pipeline import TranslationResult
from repro.translate.trace import TranslationTrace

__all__ = [
    "ParameterizedQuery",
    "parameterized_query",
    "translate_parameterized",
    "bind_parameters",
]


@dataclass(frozen=True, slots=True)
class ParameterizedQuery:
    """``{ head | body }`` with run-time parameter variables.

    Invariant: ``free(body) == head variables ∪ params`` and the two
    sets of variables are disjoint.
    """

    params: tuple[str, ...]
    head: tuple[Term, ...]
    body: Formula

    def __post_init__(self) -> None:
        if not self.params:
            raise FormulaError(
                "parameterized query needs at least one parameter; "
                "use CalculusQuery otherwise")
        if len(set(self.params)) != len(self.params):
            raise FormulaError(f"duplicate parameter in {self.params}")
        head_vars: set[str] = set()
        for t in self.head:
            head_vars |= term_variables(t)
        clash = head_vars & set(self.params)
        if clash:
            raise FormulaError(
                f"variables {sorted(clash)} are both parameters and outputs")
        expected = head_vars | set(self.params)
        actual = free_variables(self.body)
        if actual != expected:
            raise FormulaError(
                f"free variables {sorted(actual)} must be exactly the head "
                f"variables plus parameters {sorted(expected)}")

    @property
    def head_variables(self) -> frozenset[str]:
        out: set[str] = set()
        for t in self.head:
            out |= term_variables(t)
        return frozenset(out)

    def as_plain_query(self) -> CalculusQuery:
        """The query with parameters promoted to outputs — its answers
        restricted to one parameter valuation give the parameterized
        answers (the reference-semantics view used by the tests)."""
        head = tuple(Var(p) for p in self.params) + self.head
        return CalculusQuery(head, self.body)

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        params = ", ".join(self.params)
        return f"{{ {head} | {self.body} }} [params: {params}]"


def parameterized_query(params: Iterable[str], head: Iterable[Term | str],
                        body: Formula | str,
                        schema: DatabaseSchema | None = None) -> ParameterizedQuery:
    """Convenience constructor accepting text or AST bodies."""
    if isinstance(body, str):
        body = parse_formula(body, schema)
    head_terms: list[Term] = []
    for entry in head:
        head_terms.append(Var(entry) if isinstance(entry, str) else entry)
    return ParameterizedQuery(tuple(params), tuple(head_terms), body)


def translate_parameterized(query: ParameterizedQuery,
                            schema: DatabaseSchema | None = None,
                            check_safety: bool = True,
                            enable_t10: bool = True) -> TranslationResult:
    """Translate an em-allowed-for-params query.

    The emitted plan's columns are the parameter variables followed by
    the head terms; the leading :class:`Params` relation must be bound
    with :func:`bind_parameters` before evaluation.
    """
    trace = TranslationTrace()
    from repro.core.formulas import standardize_apart
    body = standardize_apart(query.body)

    if check_safety:
        problems = em_allowed_violations(body, assumed_bounded=query.params)
        if problems:
            raise NotEmAllowedError(
                f"query {query} is not em-allowed for parameters "
                f"{list(query.params)}", problems)

    enf = to_enf(body, trace)
    start = CompiledContext(Params(len(query.params)), tuple(query.params))
    compiled = _compile_into(enf, start, trace, enable_t10)

    positions = {name: i + 1 for i, name in enumerate(compiled.vars)}
    out_exprs = tuple(
        _term_colexpr(Var(p), positions) for p in query.params
    ) + tuple(_term_colexpr(t, positions) for t in query.head)
    from repro.algebra.ast import Project as _Project
    plan: AlgebraExpr = _Project(out_exprs, compiled.plan)
    trace.record("head-project", "algebra", "project parameters + head terms")

    resolved = query_schema(query.as_plain_query(), schema)
    catalog = {decl.name: decl.arity for decl in resolved.relations}
    plan = simplify(plan, catalog)
    return TranslationResult(plan=plan, enf=enf, trace=trace, schema=resolved)


def bind_parameters(plan: AlgebraExpr, rows: Iterable[tuple]) -> AlgebraExpr:
    """Replace every :class:`Params` leaf with a literal relation of the
    given parameter tuples."""
    rows = frozenset(tuple(r) for r in rows)

    def go(node: AlgebraExpr) -> AlgebraExpr:
        if isinstance(node, Params):
            return Lit(node.arity, rows)
        if isinstance(node, Project):
            return Project(node.exprs, go(node.child))
        if isinstance(node, Select):
            return Select(node.conds, go(node.child))
        if isinstance(node, Join):
            return Join(node.conds, go(node.left), go(node.right))
        if isinstance(node, Union):
            return Union(go(node.left), go(node.right))
        if isinstance(node, Diff):
            return Diff(go(node.left), go(node.right))
        if isinstance(node, AntiJoin):
            return AntiJoin(node.arity, node.conds, go(node.left),
                            go(node.right))
        if isinstance(node, Product):
            return Product(go(node.left), go(node.right))
        return node

    return go(plan)
