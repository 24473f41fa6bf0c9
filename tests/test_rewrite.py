"""Tests for the cost-based logical rewrite pass.

Two layers: rule-level unit tests (each rewrite family observed on a
hand-built plan) and the equivalence property the whole pass must
satisfy — optimized plan ≡ unoptimized plan ≡ reference evaluator over
the gallery and a seeded random corpus, swept at batch sizes 1 and
1024.
"""

from __future__ import annotations

import pytest

from repro.algebra.ast import (
    AntiJoin,
    CConst,
    Col,
    Condition,
    Diff,
    Enumerate,
    Join,
    Lit,
    Product,
    Project,
    Rel,
    Select,
    Union,
    walk_algebra,
)
from repro.algebra.simplifier import simplify
from repro.data.generators import random_instance, standard_functions
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine import (
    OpCounters,
    build_physical_plan,
    clear_engine_caches,
    engine_cache_info,
    execute,
    optimize_enabled,
    optimize_plan,
    plan_catalog,
    shared_subplans,
    stats_for,
)
from repro.errors import EvaluationError
from repro.semantics.eval_calculus import evaluate_query, query_schema
from repro.translate.pipeline import translate_query
from repro.workloads.gallery import (
    GALLERY,
    gallery_instance,
    standard_gallery_interp,
)
from repro.workloads.random_queries import random_em_allowed_query

INTERP = Interpretation({}, {})


def _opt(expr, instance, schema=None):
    return optimize_plan(expr, stats_for(instance),
                         plan_catalog(expr, instance, schema))


def _rules(outcome) -> set[str]:
    return {step.rule for step in outcome.steps}


@pytest.fixture
def chain_instance():
    return Instance.of(
        R=[(i, i + 1) for i in range(100)],
        T=[(i, 2 * i) for i in range(20)],
        S=[(i,) for i in range(4)],
    )


class TestOptimizeEnabled:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_OPTIMIZE", raising=False)
        assert optimize_enabled() is True

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", " OFF "])
    def test_env_disables(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_OPTIMIZE", raw)
        assert optimize_enabled() is False

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "0")
        assert optimize_enabled(True) is True
        monkeypatch.delenv("REPRO_OPTIMIZE")
        assert optimize_enabled(False) is False


class TestConstantFolding:
    def test_true_condition_dropped(self):
        inst = Instance.of(R=[(1,), (2,)])
        conds = frozenset({Condition(CConst(1), "=", CConst(1)),
                           Condition(Col(1), "<", CConst(2))})
        outcome = _opt(Select(conds, Rel("R")), inst)
        assert "fold-const" in _rules(outcome)
        kept = [n for n in walk_algebra(outcome.plan)
                if isinstance(n, Select)]
        assert kept and all(
            len(s.conds) == 1 and next(iter(s.conds)).op == "<"
            for s in kept)

    def test_false_condition_empties_the_subtree(self):
        inst = Instance.of(R=[(1,), (2,)])
        conds = frozenset({Condition(CConst(1), "=", CConst(2))})
        outcome = _opt(Select(conds, Rel("R")), inst)
        assert outcome.plan == Lit(1, frozenset())

    def test_empty_literal_annihilates_joins(self):
        inst = Instance.of(R=[(1, 2)])
        plan = Join(frozenset({Condition(Col(1), "=", Col(3))}),
                    Rel("R"), Lit(1, frozenset()))
        outcome = _opt(plan, inst)
        assert outcome.plan == Lit(3, frozenset())
        assert "fold-empty" in _rules(outcome)

    def test_empty_side_of_union_is_dropped(self):
        inst = Instance.of(R=[(1,)])
        outcome = _opt(Union(Lit(1, frozenset()), Rel("R")), inst)
        assert outcome.plan == Rel("R")

    def test_folding_preserves_results(self):
        inst = Instance.of(R=[(1,), (2,), (3,)])
        conds = frozenset({Condition(CConst(3), ">", CConst(1)),
                           Condition(Col(1), ">=", CConst(2))})
        plan = Select(conds, Rel("R"))
        on = execute(plan, inst, INTERP, optimize=True)
        off = execute(plan, inst, INTERP, optimize=False)
        assert on.result == off.result
        assert len(on.result) == 2


class TestPushdown:
    def test_single_side_conditions_sink_below_join(self):
        inst = Instance.of(R=[(i,) for i in range(50)],
                           S=[(i,) for i in range(50)])
        conds = frozenset({Condition(Col(1), "=", Col(2)),
                           Condition(Col(2), "<", CConst(10))})
        plan = Join(conds, Rel("R"), Rel("S"))
        outcome = _opt(plan, inst)
        assert "pushdown-select" in _rules(outcome)
        selects = [n for n in walk_algebra(outcome.plan)
                   if isinstance(n, Select)]
        assert any(isinstance(s.child, Rel) for s in selects)
        run = execute(plan, inst, INTERP, optimize=True)
        ref = execute(plan, inst, INTERP, optimize=False)
        assert run.result == ref.result
        # the filter now runs below the join, so only 10 rows reach the
        # probe side and far fewer candidate pairs are examined
        assert run.counters.rows["filter"] == 10
        assert "filter" not in ref.counters.rows
        assert run.counters.comparisons < ref.counters.comparisons

    def test_dead_columns_pruned_below_join(self):
        inst = Instance.of(R=[(i, i + 1, i + 2) for i in range(30)],
                           S=[(i, -i) for i in range(30)])
        plan = Project((Col(1),),
                       Join(frozenset({Condition(Col(1), "=", Col(4))}),
                            Rel("R"), Rel("S")))
        outcome = _opt(plan, inst)
        assert "pushdown-project" in _rules(outcome)
        projected = [n for n in walk_algebra(outcome.plan)
                     if isinstance(n, Project) and isinstance(n.child, Rel)]
        assert projected, "expected narrowing projections on the scans"
        on = execute(plan, inst, INTERP, optimize=True)
        off = execute(plan, inst, INTERP, optimize=False)
        assert on.result == off.result

    def test_selection_distributes_through_union(self):
        inst = Instance.of(R=[(1,), (2,)], S=[(2,), (3,)])
        plan = Select(frozenset({Condition(Col(1), ">", CConst(1))}),
                      Union(Rel("R"), Rel("S")))
        outcome = _opt(plan, inst)
        assert isinstance(outcome.plan, Union)
        on = execute(plan, inst, INTERP, optimize=True)
        off = execute(plan, inst, INTERP, optimize=False)
        assert on.result == off.result

    def test_selection_pushed_below_enumerate_input(self):
        inst = Instance.of(R=[(i,) for i in range(10)])
        interp = Interpretation(
            {}, enumerators={"inv": lambda known: [(known,)]})
        plan = Enumerate("inv", (Col(1),), 1,
                         Select(frozenset(), Rel("R")))
        wrapped = Select(frozenset({Condition(Col(1), "<", CConst(3))}),
                         plan)
        outcome = _opt(wrapped, inst)
        enums = [n for n in walk_algebra(outcome.plan)
                 if isinstance(n, Enumerate)]
        assert enums and isinstance(enums[0].child, Select)
        on = execute(wrapped, inst, interp, optimize=True)
        off = execute(wrapped, inst, interp, optimize=False)
        assert on.result == off.result
        # three input rows pass the filter, so only three enumerator rows
        assert on.counters.rows["enumerate"] == 3


class TestJoinReorder:
    def _chain(self):
        c1 = Condition(Col(2), "=", Col(3))
        c2 = Condition(Col(4), "=", Col(5))
        return Project((Col(1), Col(5)),
                       Join(frozenset({c2}),
                            Join(frozenset({c1}), Rel("R"), Rel("T")),
                            Rel("S")))

    def test_reorder_starts_from_smallest_leaf(self, chain_instance):
        outcome = _opt(self._chain(), chain_instance)
        assert "join-reorder" in _rules(outcome)

    def test_reorder_reduces_intermediate_rows(self, chain_instance):
        plan = self._chain()
        on = execute(plan, chain_instance, INTERP, optimize=True)
        off = execute(plan, chain_instance, INTERP, optimize=False)
        assert on.result == off.result
        assert (on.counters.rows.get("hash-join", 0)
                < off.counters.rows.get("hash-join", 0))

    def test_identity_order_reports_no_reorder(self):
        # already smallest-first: greedy keeps the order and stays quiet
        inst = Instance.of(A=[(1, 2)], B=[(2, 3), (2, 4)],
                           C=[(3, 0), (4, 0), (5, 0)])
        c1 = Condition(Col(2), "=", Col(3))
        c2 = Condition(Col(4), "=", Col(5))
        plan = Join(frozenset({c2}),
                    Join(frozenset({c1}), Rel("A"), Rel("B")), Rel("C"))
        outcome = _opt(plan, inst)
        assert "join-reorder" not in _rules(outcome)
        on = execute(plan, inst, INTERP, optimize=True)
        off = execute(plan, inst, INTERP, optimize=False)
        assert on.result == off.result

    def test_product_regions_are_reordered_too(self):
        inst = Instance.of(A=[(i,) for i in range(20)],
                           B=[(i,) for i in range(3)],
                           C=[(i,) for i in range(2)])
        plan = Product(Product(Rel("A"), Rel("B")), Rel("C"))
        on = execute(plan, inst, INTERP, optimize=True)
        off = execute(plan, inst, INTERP, optimize=False)
        assert on.result == off.result
        assert len(on.result) == 20 * 3 * 2


class TestSharedSubplans:
    def test_repeated_subplan_detected(self):
        sub = Select(frozenset({Condition(Col(1), "<", CConst(5))}),
                     Rel("R"))
        plan = Union(Project((Col(1),), sub), Project((Col(1),), sub))
        shared = shared_subplans(plan)
        # the *maximal* repeated subtree is shared; its children are
        # covered by it and not listed separately
        assert Project((Col(1),), sub) in shared
        assert sub not in shared

    def test_scans_are_not_shared(self):
        plan = Union(Rel("R"), Rel("R"))
        assert shared_subplans(plan) == frozenset()

    def test_anti_join_context_not_counted_twice(self):
        context = Select(frozenset({Condition(Col(1), ">", CConst(0))}),
                         Rel("R"))
        anti = simplify(
            Diff(context,
                 Project((Col(1),),
                         Join(frozenset({Condition(Col(1), "=", Col(2))}),
                              context, Rel("S")))),
            {"R": 1, "S": 1})
        assert isinstance(anti, AntiJoin)
        assert shared_subplans(anti) == frozenset()

    def test_materialization_computes_once(self):
        inst = Instance.of(R=[(i,) for i in range(100)])
        sub = Select(frozenset({Condition(Col(1), "<", CConst(50))}),
                     Rel("R"))
        plan = Union(Project((Col(1),), sub), Project((Col(1),), sub))
        on = execute(plan, inst, INTERP, optimize=True)
        off = execute(plan, inst, INTERP, optimize=False)
        assert on.result == off.result
        # one filtered evaluation instead of two, re-read twice
        assert on.counters.rows["filter"] == 50
        assert off.counters.rows["filter"] == 100
        assert on.counters.rows["materialize"] == 100

    def test_shared_plan_builds_one_operator_tree(self):
        inst = Instance.of(R=[(1,), (2,)])
        sub = Select(frozenset({Condition(Col(1), ">", CConst(0))}),
                     Rel("R"))
        plan = Union(sub, sub)
        counters = OpCounters()
        op = build_physical_plan(plan, inst, INTERP, counters=counters,
                                 shared=frozenset({sub}))
        rows = set(op.rows())
        assert rows == {(1,), (2,)}
        assert counters.rows["filter"] == 2       # evaluated once
        assert counters.rows["materialize"] == 4  # read twice


class TestCrossQueryCaches:
    def test_stats_cached_by_content(self):
        clear_engine_caches()
        inst = Instance.of(R=[(1,), (2,)])
        first = stats_for(inst)
        again = stats_for(Instance.of(R=[(1,), (2,)]))
        assert first is again
        info = engine_cache_info()
        assert info["stats"]["hits"] == 1
        assert info["stats"]["misses"] == 1

    def test_different_content_misses(self):
        clear_engine_caches()
        stats_for(Instance.of(R=[(1,)]))
        stats_for(Instance.of(R=[(2,)]))
        info = engine_cache_info()
        assert info["stats"]["misses"] == 2

    def test_clear_engine_caches_drops_entries(self):
        stats_for(Instance.of(R=[(9,)]))
        clear_engine_caches()
        info = engine_cache_info()
        assert info["stats"]["entries"] == 0
        assert info["closure"]["entries"] == 0

    def test_closure_cached_across_plan_builds(self):
        from repro.translate.baseline_adom import translate_query_adom

        clear_engine_caches()
        query = parse("{ x | R(x) & ~S(x) }")
        plan = translate_query_adom(query)
        schema = query_schema(query)
        inst = Instance.of(R=[(1,), (2,)], S=[(2,)])
        interp = standard_functions(schema)
        execute(plan, inst, interp, schema=schema)
        execute(plan, inst, interp, schema=schema)
        info = engine_cache_info()
        assert info["closure"]["misses"] >= 1
        assert info["closure"]["hits"] >= 1


def parse(text: str):
    from repro.core.parser import parse_query
    return parse_query(text)


class TestOffSwitchRestoresOldPlans:
    def test_disabled_pass_reports_nothing(self):
        inst = Instance.of(R=[(1, 2)])
        plan = Project((Col(1),), Rel("R"))
        report = execute(plan, inst, INTERP, optimize=False)
        assert report.rewrites == ()
        assert report.optimize_seconds == 0.0

    def test_disabled_pass_executes_the_plan_verbatim(self, monkeypatch):
        # With the pass off, the exact translated plan reaches the
        # planner — observable through the physical operator mix, which
        # must match a direct build of the untouched plan.
        monkeypatch.setenv("REPRO_OPTIMIZE", "0")
        inst = gallery_instance()
        interp = standard_gallery_interp()
        for key, entry in GALLERY.items():
            if not entry.translatable:
                continue
            result = translate_query(parse(entry.text))
            report = execute(result.plan, inst, interp,
                             schema=result.schema)
            counters = OpCounters()
            direct = build_physical_plan(result.plan, inst, interp,
                                         result.schema, counters)
            rows = set()
            while (batch := direct.next_batch()) is not None:
                rows.update(batch)
            assert report.result.rows == frozenset(rows), key
            assert report.counters.rows == counters.rows, key
            assert report.rewrites == (), key


class TestEquivalenceProperty:
    """optimized ≡ unoptimized ≡ reference, gallery + random corpus,
    batch sizes 1 and 1024."""

    @pytest.mark.parametrize("batch_size", [1, 1024])
    @pytest.mark.parametrize(
        "key", [k for k, e in GALLERY.items() if e.translatable])
    def test_gallery_equivalence(self, key, batch_size):
        entry = GALLERY[key]
        instance = gallery_instance()
        interp = standard_gallery_interp()
        query = parse(entry.text)
        reference = evaluate_query(query, instance, interp)
        result = translate_query(query)
        on = execute(result.plan, instance, interp, schema=result.schema,
                     batch_size=batch_size, optimize=True)
        off = execute(result.plan, instance, interp, schema=result.schema,
                      batch_size=batch_size, optimize=False)
        assert on.result == reference, key
        assert off.result == reference, key

    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_random_corpus_equivalence(self, batch_size):
        checked = 0
        for seed in range(40):
            query = random_em_allowed_query(seed)
            schema = query_schema(query)
            instance = random_instance(schema, 4, list(range(8)), seed=seed)
            interp = standard_functions(schema, modulus=11)
            try:
                reference = evaluate_query(query, instance, interp)
            except EvaluationError:
                continue
            result = translate_query(query)
            on = execute(result.plan, instance, interp,
                         schema=result.schema, batch_size=batch_size,
                         optimize=True)
            off = execute(result.plan, instance, interp,
                          schema=result.schema, batch_size=batch_size,
                          optimize=False)
            assert on.result == reference, (seed, str(query))
            assert off.result == reference, (seed, str(query))
            checked += 1
        assert checked >= 30

    def test_optimizer_keeps_anti_join_operators(self):
        # the rewrite pass must preserve the structural anti-join
        # pattern, or generalized difference silently degrades
        inst = Instance.of(R=[(1,), (2,), (3,)], S=[(2,)])
        result = translate_query(parse("{ x | R(x) & ~S(x) }"))
        report = execute(result.plan, inst, INTERP, schema=result.schema)
        assert "anti-join" in report.counters.rows
        assert report.result.rows == frozenset({(1,), (3,)})


class TestOptimizerDiagnostics:
    def test_steps_are_renderable(self, chain_instance):
        c1 = Condition(Col(2), "=", Col(3))
        plan = Join(frozenset({c1}),
                    Rel("R"),
                    Join(frozenset({Condition(Col(1), "=", Col(2))}),
                         Rel("T"), Product(Rel("S"), Rel("S"))))
        outcome = _opt(plan, chain_instance)
        for step in outcome.steps:
            text = str(step)
            assert step.rule in text and ":" in text

    def test_report_carries_rewrites_and_time(self, chain_instance):
        c1 = Condition(Col(2), "=", Col(3))
        c2 = Condition(Col(4), "=", Col(5))
        plan = Project((Col(1), Col(5)),
                       Join(frozenset({c2}),
                            Join(frozenset({c1}), Rel("R"), Rel("T")),
                            Rel("S")))
        report = execute(plan, chain_instance, INTERP, optimize=True)
        assert report.rewrites
        assert report.optimize_seconds > 0.0
        assert "rewrite(s)" in report.summary()
