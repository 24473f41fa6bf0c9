"""Property tests over random algebra plans: the simplifier, the
build-side optimizer, and the physical engine must all preserve the
reference evaluator's answer on arbitrary (well-typed) plans — not just
on plans the translator happens to emit."""

import random

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.algebra.ast import (
    CApp,
    CConst,
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
    arity_of,
)
from repro.algebra.evaluator import evaluate
from repro.engine.rewrite import simplify
from repro.data.generators import integer_universe, random_relation
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine.executor import execute
from repro.engine.rewrite import choose_build_sides
from repro.engine.stats import collect_stats

CATALOG = {"A": 1, "B": 2, "C": 2}

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _instance(seed: int) -> Instance:
    rng = random.Random(seed)
    universe = integer_universe(8)
    return Instance({
        "A": random_relation(1, 5, universe, rng),
        "B": random_relation(2, 6, universe, rng),
        "C": random_relation(2, 6, universe, rng),
    })


def _interp() -> Interpretation:
    return Interpretation({"f": lambda v: (v * 3 + 1) % 8
                           if isinstance(v, int) else 0})


def _colexpr(rng: random.Random, arity: int):
    kind = rng.randrange(3)
    if kind == 0 and arity:
        return Col(rng.randrange(1, arity + 1))
    if kind == 1:
        return CConst(rng.randrange(8))
    if arity:
        return CApp("f", (Col(rng.randrange(1, arity + 1)),))
    return CConst(rng.randrange(8))


def random_plan(seed: int, depth: int = 3):
    """A random well-typed plan over the fixed catalog."""
    rng = random.Random(seed)

    def go(d: int):
        if d == 0 or rng.random() < 0.3:
            choice = rng.randrange(4)
            if choice == 0:
                return Rel("A")
            if choice == 1:
                return Rel("B")
            if choice == 2:
                return Rel("C")
            return Lit(1, frozenset({(rng.randrange(8),), (rng.randrange(8),)}))
        child = go(d - 1)
        arity = arity_of(child, CATALOG)
        op = rng.randrange(5)
        if op == 0:
            width = rng.randrange(1, 3)
            return Project(tuple(_colexpr(rng, arity) for _ in range(width)),
                           child)
        if op == 1:
            conds = frozenset({
                Condition(_colexpr(rng, arity),
                          rng.choice(["=", "!=", "<", ">="]),
                          _colexpr(rng, arity))
            })
            return Select(conds, child)
        other = go(d - 1)
        other_arity = arity_of(other, CATALOG)
        if op == 2:
            total = arity + other_arity
            conds = frozenset({
                Condition(Col(rng.randrange(1, total + 1)), "=",
                          Col(rng.randrange(1, total + 1)))
            })
            return Join(conds, child, other)
        if op == 3 and arity == other_arity:
            return (Union if rng.random() < 0.5 else Diff)(child, other)
        return Product(child, other)

    return go(depth)


class TestSimplifierProperty:
    @_SETTINGS
    @given(st.integers(0, 10_000), st.integers(0, 50))
    def test_simplify_preserves_answers(self, plan_seed, data_seed):
        plan = random_plan(plan_seed)
        inst = _instance(data_seed)
        interp = _interp()
        before = evaluate(plan, inst, interp)
        after = evaluate(simplify(plan, CATALOG), inst, interp)
        assert before == after

    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_simplify_idempotent(self, plan_seed):
        plan = simplify(random_plan(plan_seed), CATALOG)
        assert simplify(plan, CATALOG) == plan

    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_simplify_type_preserving(self, plan_seed):
        plan = random_plan(plan_seed)
        assert arity_of(simplify(plan, CATALOG), CATALOG) == \
            arity_of(plan, CATALOG)

    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_simplify_arity_preserving_under_sanitizer(self, plan_seed):
        """Plan verification accepts every random plan before and after
        simplification, with the same expected arity; every recorded
        normalization step preserves its redex's arity and replays in
        the translation validator."""
        from repro.analysis.typeinfer import sanitize_plan
        from repro.analysis.validate import validate_rewrites
        plan = random_plan(plan_seed)
        expected = arity_of(plan, CATALOG)
        assert sanitize_plan(plan, CATALOG, expected_arity=expected) == []
        steps = []
        simplified = simplify(plan, CATALOG, steps)
        assert sanitize_plan(simplified, CATALOG,
                             expected_arity=expected) == []
        for step in steps:
            assert sanitize_plan(step.after, CATALOG, expected_arity=arity_of(
                step.before, CATALOG)) == [], step
        assert [d for d in validate_rewrites(plan, simplified, steps, (),
                                             CATALOG) if d.is_error] == []


class TestEnginePlanProperty:
    @_SETTINGS
    @given(st.integers(0, 10_000), st.integers(0, 50))
    # seeds whose optimized plans once raised false TV003 alarms: an
    # equality pushed below the join that types one of its columns
    # (9156), and a column pinned to two constants (3702)
    @example(9156, 0)
    @example(3702, 0)
    def test_engine_matches_reference_on_random_plans(self, plan_seed, data_seed):
        plan = random_plan(plan_seed)
        inst = _instance(data_seed)
        interp = _interp()
        assert execute(plan, inst, interp).result == evaluate(plan, inst, interp)

    @_SETTINGS
    @given(st.integers(0, 10_000), st.integers(0, 50),
           st.sampled_from([1, 2, 7, 64, 1024]))
    def test_batch_concatenation_equals_row_stream(self, plan_seed,
                                                   data_seed, batch_size):
        """Concatenating ``next_batch()`` output is the row stream: the
        exact sequence (order included) the row-at-a-time ``rows()``
        view produces on an identically built plan, at every batch
        size — and as a set it is the reference evaluator's answer."""
        from repro.engine.planner import build_physical_plan

        plan = random_plan(plan_seed)
        inst = _instance(data_seed)
        interp = _interp()
        # Same algebra/instance/interpretation objects on both builds,
        # so source iteration order is identical between the two trees.
        batched = build_physical_plan(plan, inst, interp,
                                      batch_size=batch_size)
        concatenated: list[tuple] = []
        while (batch := batched.next_batch()) is not None:
            assert batch, "next_batch() must never return an empty batch"
            concatenated.extend(batch)
        assert batched.next_batch() is None, \
            "an exhausted operator must stay exhausted"

        row_view = build_physical_plan(plan, inst, interp,
                                       batch_size=batch_size)
        assert concatenated == list(row_view.rows())
        assert frozenset(concatenated) == evaluate(plan, inst, interp).rows


class TestOptimizerProperty:
    @_SETTINGS
    @given(st.integers(0, 10_000), st.integers(0, 50))
    def test_build_side_choice_preserves_answers(self, plan_seed, data_seed):
        plan = random_plan(plan_seed)
        inst = _instance(data_seed)
        interp = _interp()
        stats = collect_stats(inst)
        optimized = choose_build_sides(plan, stats, CATALOG)
        assert evaluate(optimized, inst, interp) == evaluate(plan, inst, interp)
        assert arity_of(optimized, CATALOG) == arity_of(plan, CATALOG)
