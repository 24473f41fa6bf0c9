"""Seeded random generation of em-allowed queries.

The property-based tests and the corpus experiments (E3, E8) need many
structurally diverse queries that are em-allowed *by construction*.
The generator builds conjunctive blocks bottom-up, tracking which
variables are bounded, then optionally combines blocks into
disjunctions, wraps sub-blocks in existential quantifiers, and attaches
negations only over already-bounded variables.

``random_em_allowed_query`` additionally *verifies* the em-allowed
criterion on the result and retries, so the guarantee does not rest on
the construction alone.  ``break_boundedness`` produces a non-em-allowed
mutant of a query (for negative tests) by dropping a bounding conjunct.
"""

from __future__ import annotations

import random

from repro.core.formulas import (
    And,
    Equals,
    Exists,
    Formula,
    Not,
    RelAtom,
    free_variables,
    make_and,
    make_exists,
    make_or,
    not_equals,
)
from repro.core.queries import CalculusQuery
from repro.core.terms import Func, Var
from repro.safety.em_allowed import em_allowed

__all__ = ["random_em_allowed_query", "random_block", "break_boundedness"]

_REL_ARITIES = {"R0": 1, "R1": 2, "R2": 2, "R3": 3, "S0": 1, "S1": 2}
_FUNCS = ["f", "g", "h"]


def random_block(rng: random.Random, var_prefix: str = "v",
                 depth: int = 2) -> tuple[Formula, list[str]]:
    """A conjunction that bounds all of its free variables.

    Returns ``(formula, bounded_variable_names)``.
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"{var_prefix}{counter[0]}"

    bounded: list[str] = []
    conjuncts: list[Formula] = []

    # 1) one or two base atoms introduce bounded variables
    for _ in range(rng.randrange(1, 3)):
        name = rng.choice(list(_REL_ARITIES))
        arity = _REL_ARITIES[name]
        terms = []
        for _ in range(arity):
            if bounded and rng.random() < 0.3:
                terms.append(Var(rng.choice(bounded)))
            else:
                v = fresh()
                bounded.append(v)
                terms.append(Var(v))
        conjuncts.append(RelAtom(name, tuple(terms)))

    # 2) constructive function equalities extend the bounded set
    for _ in range(rng.randrange(0, 3)):
        if not bounded:
            break
        src = rng.choice(bounded)
        dst = fresh()
        bounded.append(dst)
        fn = rng.choice(_FUNCS)
        atom = Equals(Func(fn, (Var(src),)), Var(dst))
        if rng.random() < 0.5:
            atom = Equals(Var(dst), Func(fn, (Var(src),)))
        conjuncts.append(atom)

    # 3) filters over bounded variables (equalities, inequalities, and
    #    Section 9(d) comparisons)
    for _ in range(rng.randrange(0, 2)):
        if len(bounded) < 2:
            break
        a, b = rng.sample(bounded, 2)
        roll = rng.random()
        if roll < 0.35:
            left: Formula = Equals(Func(rng.choice(_FUNCS), (Var(a),)), Func(
                rng.choice(_FUNCS), (Var(b),)))
        elif roll < 0.7:
            left = not_equals(Var(a), Var(b))
        else:
            from repro.core.formulas import Compare
            op = rng.choice(["<", "<=", ">", ">="])
            left = Compare(op, Var(a), Var(b))
        conjuncts.append(left)

    # 4) a negation over bounded variables
    if depth > 0 and rng.random() < 0.6 and bounded:
        sub_vars = rng.sample(bounded, min(len(bounded), rng.randrange(1, 3)))
        name = rng.choice([n for n, a in _REL_ARITIES.items()
                           if a == len(sub_vars)] or ["R0"])
        if _REL_ARITIES[name] == len(sub_vars):
            inner: Formula = RelAtom(name, tuple(Var(v) for v in sub_vars))
            if rng.random() < 0.4:
                fn = rng.choice(_FUNCS)
                inner = RelAtom(name, tuple(
                    Func(fn, (Var(v),)) if i == 0 and rng.random() < 0.7 else Var(v)
                    for i, v in enumerate(sub_vars)
                ))
            conjuncts.append(Not(inner))

    # 5) an existential sub-block
    if depth > 0 and rng.random() < 0.5:
        sub, sub_bounded = random_block(rng, var_prefix=f"{var_prefix}q", depth=depth - 1)
        if sub_bounded:
            hide = rng.sample(sub_bounded, rng.randrange(1, len(sub_bounded) + 1))
            conjuncts.append(make_exists(hide, sub))
            bounded.extend(v for v in sub_bounded if v not in hide)

    return make_and(conjuncts), bounded


def random_em_allowed_query(seed: int, max_head: int = 3,
                            max_attempts: int = 50,
                            max_total_vars: int = 5) -> CalculusQuery:
    """A random em-allowed query (verified, deterministic per seed).

    ``max_total_vars`` caps the number of distinct variables (free and
    bound): the reference evaluator the tests compare against is
    exponential in that count, so the corpus stays tractable.
    """
    from repro.core.formulas import all_variables

    rng = random.Random(seed)
    for attempt in range(max_attempts):
        body, bounded = random_block(rng, depth=2)
        if len(all_variables(body)) > max_total_vars:
            continue
        if rng.random() < 0.35 and bounded:
            # a disjunction: second block, renamed onto the same head vars
            other, other_bounded = random_block(rng, var_prefix="w", depth=1)
            head = rng.sample(bounded, min(len(bounded),
                                           rng.randrange(1, max_head + 1)))
            if len(other_bounded) >= len(head):
                from repro.core.formulas import substitute
                mapping = {
                    old: Var(new)
                    for old, new in zip(other_bounded, head)
                }
                other = substitute(other, mapping)
                rest = [v for v in other_bounded[len(head):]]
                body_a = make_exists(
                    [v for v in bounded if v not in head], body)
                extra = free_variables(other) - set(head)
                body_b = make_exists(sorted(extra), other) if extra else other
                candidate_body = make_or([body_a, body_b])
                try:
                    candidate = CalculusQuery(
                        tuple(Var(v) for v in head), candidate_body)
                except Exception:
                    continue
                if len(all_variables(candidate.body)) > max_total_vars:
                    continue
                if em_allowed(candidate.body):
                    return candidate
                continue
        if not bounded:
            continue
        head = rng.sample(bounded, min(len(bounded), rng.randrange(1, max_head + 1)))
        # sorted: free_variables is a set, whose order follows hashing
        hidden = sorted(v for v in free_variables(body) if v not in head)
        candidate_body = make_exists(hidden, body) if hidden else body
        try:
            candidate = CalculusQuery(tuple(Var(v) for v in head), candidate_body)
        except Exception:
            continue
        if em_allowed(candidate.body):
            return candidate
    raise RuntimeError(f"could not generate an em-allowed query for seed {seed}")


def break_boundedness(query: CalculusQuery) -> CalculusQuery | None:
    """A mutant with its first base relation atom removed — usually no
    longer em-allowed (returns None when the body has no conjunction to
    mutate or the mutant is degenerate)."""
    body = query.body
    if isinstance(body, Exists):
        return None
    if not isinstance(body, And):
        return None
    children = [c for c in body.children]
    for i, child in enumerate(children):
        if isinstance(child, RelAtom):
            rest = children[:i] + children[i + 1:]
            if not rest:
                return None
            try:
                new_body = make_and(rest)
                if free_variables(new_body) != free_variables(body):
                    return None
                return CalculusQuery(query.head, new_body)
            except Exception:
                return None
    return None
