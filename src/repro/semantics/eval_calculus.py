"""Direct evaluation of calculus queries under embedded semantics.

This is the library's *reference semantics* and the oracle every other
component is tested against.  A query is evaluated by ranging its
variables over a finite universe — by default ``term_k(adom(q, I))``
with ``k`` the query's :func:`~repro.semantics.levels.edi_level` — and
checking satisfaction of the body for every valuation.

For an em-allowed query this computes exactly the paper's semantics
(Theorem 6.6: the answer is already determined at that level); for a
non-domain-independent query the result is *relative to the universe*,
which is precisely what the EDI experiments exploit to demonstrate
domain dependence.

The evaluator is deliberately naive — exponential in the number of
variables — because its job is to be obviously correct, not fast.  The
translated algebra plans and the :mod:`repro.engine` operators are the
fast paths, and they are validated against this.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Iterable, Mapping

from repro.algebra.ast import compare_values
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
)
from repro.core.queries import CalculusQuery
from repro.core.schema import DatabaseSchema
from repro.core.terms import evaluate_term
from repro.data.domain import adom, term_closure
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation, UNDEFINED
from repro.data.relation import Relation
from repro.errors import EvaluationError
from repro.semantics.levels import edi_level_query

__all__ = ["satisfies", "evaluate_query", "query_schema", "evaluation_universe"]


def satisfies(formula: Formula, valuation: Mapping[str, Hashable],
              instance: Instance, interpretation: Interpretation,
              universe: Iterable[Hashable]) -> bool:
    """Truth of ``formula`` under ``valuation``, quantifiers ranging over
    ``universe``."""
    universe = list(universe)

    def go(f: Formula, env: dict[str, Hashable]) -> bool:
        if isinstance(f, RelAtom):
            row = tuple(evaluate_term(t, env, interpretation) for t in f.terms)
            if any(v is UNDEFINED for v in row):
                return False
            return row in instance.relation(f.name)
        if isinstance(f, Equals):
            return compare_values(
                "=",
                evaluate_term(f.left, env, interpretation),
                evaluate_term(f.right, env, interpretation))
        if isinstance(f, Compare):
            return compare_values(
                f.op,
                evaluate_term(f.left, env, interpretation),
                evaluate_term(f.right, env, interpretation))
        if isinstance(f, Not):
            return not go(f.child, env)
        if isinstance(f, And):
            return all(go(c, env) for c in f.children)
        if isinstance(f, Or):
            return any(go(c, env) for c in f.children)
        if isinstance(f, Exists):
            for values in product(universe, repeat=len(f.vars)):
                extended = dict(env)
                extended.update(zip(f.vars, values))
                if go(f.body, extended):
                    return True
            return False
        if isinstance(f, Forall):
            for values in product(universe, repeat=len(f.vars)):
                extended = dict(env)
                extended.update(zip(f.vars, values))
                if not go(f.body, extended):
                    return False
            return True
        raise TypeError(f"not a formula: {f!r}")

    return go(formula, dict(valuation))


def query_schema(query: CalculusQuery,
                 base: DatabaseSchema | None = None) -> DatabaseSchema:
    """A schema covering exactly the names the query uses.

    When ``base`` is given, its declarations win; names the query uses
    but the base lacks are added with the arities observed in the query.
    Relation arities are taken from the first atom for each name.
    """
    from repro.core.formulas import subformulas
    from repro.core.terms import Func, walk_term

    relations: dict[str, int] = {}
    functions: dict[str, int] = {}
    for sub in subformulas(query.body):
        if isinstance(sub, RelAtom):
            relations.setdefault(sub.name, sub.arity)
    terms = list(query.head)
    for sub in subformulas(query.body):
        if isinstance(sub, RelAtom):
            terms.extend(sub.terms)
        elif isinstance(sub, (Equals, Compare)):
            terms.extend((sub.left, sub.right))
    for t in terms:
        for node in walk_term(t):
            if isinstance(node, Func):
                functions.setdefault(node.name, node.arity)
    if base is not None:
        for decl in base.relations:
            relations[decl.name] = decl.arity
        for sig in base.functions:
            functions[sig.name] = sig.arity
    return DatabaseSchema.of(relations, functions)


def evaluation_universe(query: CalculusQuery, instance: Instance,
                        interpretation: Interpretation,
                        level: int | None = None,
                        schema: DatabaseSchema | None = None) -> frozenset:
    """``term_k(adom(q, I))`` for the query's functions, ``k`` defaulting
    to the query's :func:`~repro.semantics.levels.edi_level_query`."""
    if level is None:
        level = edi_level_query(query)
    schema = query_schema(query, schema)
    return term_closure(
        adom(query, instance), level, interpretation, schema,
        function_names=query.function_names(),
    )


def evaluate_query(query: CalculusQuery, instance: Instance,
                   interpretation: Interpretation,
                   level: int | None = None,
                   universe: Iterable[Hashable] | None = None,
                   schema: DatabaseSchema | None = None,
                   max_valuations: int = 2_000_000) -> Relation:
    """Answer of ``query`` on ``(instance, interpretation)``.

    ``universe`` overrides the default ``term_k(adom)`` range (the EDI
    experiments pass alternative universes explicitly).
    ``max_valuations`` guards against accidentally exponential calls —
    exceeding it raises :class:`EvaluationError` rather than hanging.
    """
    if universe is None:
        universe = evaluation_universe(query, instance, interpretation, level, schema)
    universe = sorted(universe, key=repr)

    free = sorted(query.head_variables)
    if len(universe) ** max(len(free), 1) > max_valuations:
        raise EvaluationError(
            f"direct evaluation would enumerate more than {max_valuations} "
            f"valuations ({len(universe)} values, {len(free)} free variables)"
        )

    rows: set[tuple] = set()
    for values in product(universe, repeat=len(free)):
        env = dict(zip(free, values))
        if satisfies(query.body, env, instance, interpretation, universe):
            row = tuple(
                evaluate_term(t, env, interpretation) for t in query.head
            )
            # head terms applying partial functions outside their domain
            # contribute no answer row
            if any(v is UNDEFINED for v in row):
                continue
            rows.add(row)
    return Relation(query.arity, rows)
