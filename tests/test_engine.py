"""Tests for the physical execution engine: operator correctness against
the reference algebra evaluator, join algorithm selection, counters."""

import pytest

from repro.algebra.ast import (
    AntiJoin,
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
)
from repro.algebra.evaluator import evaluate
from repro.core.parser import parse_query
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.data.relation import Relation
from repro.engine.executor import execute
from repro.engine.operators import HashJoinOp, NestedLoopJoinOp
from repro.engine.planner import build_physical_plan
from repro.translate.pipeline import translate_query
from repro.workloads.gallery import GALLERY, gallery_instance, standard_gallery_interp


@pytest.fixture
def inst():
    return Instance({
        "R": Relation(1, [(1,), (2,), (3,)]),
        "S": Relation(1, [(2,), (5,)]),
        "R2": Relation(2, [(1, 10), (2, 20), (3, 10)]),
    })


@pytest.fixture
def interp():
    return Interpretation({"f": lambda v: v * 10, "g": lambda v: v + 1})


PLANS = [
    Rel("R"),
    Project((Col(1), CApp("f", (Col(1),))), Rel("R")),
    Select(frozenset({Condition(Col(2), "=", CApp("f", (Col(1),)))}), Rel("R2")),
    Join(frozenset({Condition(Col(1), "=", Col(2))}), Rel("R"), Rel("S")),
    Join(frozenset({Condition(Col(1), "!=", Col(2))}), Rel("R"), Rel("S")),
    Union(Rel("R"), Rel("S")),
    Diff(Rel("R"), Rel("S")),
    Product(Rel("R"), Rel("S")),
    Project((), Rel("R")),
    Lit(1, frozenset({(7,)})),
    Diff(Rel("R2"), Project((Col(1), Col(2)), Join(
        frozenset({Condition(Col(2), "=", Col(3))}), Rel("R2"), Rel("S")))),
    AntiJoin(2, frozenset({Condition(Col(2), "=", Col(3))}),
             Rel("R2"), Rel("S")),
]


class TestAgreementWithReferenceEvaluator:
    @pytest.mark.parametrize("plan", PLANS)
    def test_execute_matches_evaluate(self, plan, inst, interp):
        want = evaluate(plan, inst, interp)
        report = execute(plan, inst, interp)
        assert report.result == want

    @pytest.mark.parametrize("key", [k for k, e in GALLERY.items() if e.translatable])
    def test_translated_gallery_plans(self, key):
        inst = gallery_instance()
        interp = standard_gallery_interp()
        res = translate_query(GALLERY[key].query)
        want = evaluate(res.plan, inst, interp, schema=res.schema)
        got = execute(res.plan, inst, interp, schema=res.schema).result
        assert got == want, key


class TestPlanner:
    def test_equi_join_becomes_hash_join(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "=", Col(2))}), Rel("R"), Rel("S"))
        op = build_physical_plan(plan, inst, interp)
        assert isinstance(op, HashJoinOp)

    def test_theta_join_falls_back_to_nested_loop(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "!=", Col(2))}), Rel("R"), Rel("S"))
        op = build_physical_plan(plan, inst, interp)
        assert isinstance(op, NestedLoopJoinOp)

    def test_function_condition_is_residual(self, inst, interp):
        conds = frozenset({
            Condition(Col(1), "=", Col(2)),
            Condition(Col(3), "=", CApp("f", (Col(1),))),
        })
        plan = Join(conds, Rel("R"), Rel("R2"))
        op = build_physical_plan(plan, inst, interp)
        assert isinstance(op, HashJoinOp)
        assert len(op.residual) == 1

    def test_mixed_same_side_equality_is_residual(self, inst, interp):
        # both columns on the right side: not a hash key
        conds = frozenset({Condition(Col(2), "=", Col(3))})
        plan = Join(conds, Rel("R"), Rel("R2"))
        op = build_physical_plan(plan, inst, interp)
        assert isinstance(op, NestedLoopJoinOp)


class TestCounters:
    def test_row_counters_populated(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "=", Col(2))}), Rel("R"), Rel("S"))
        report = execute(plan, inst, interp)
        assert report.counters.rows["scan"] == 5
        assert report.counters.rows["hash-join"] == 1
        assert report.intermediate_rows >= 6

    def test_function_calls_counted(self, inst, interp):
        plan = Project((CApp("f", (Col(1),)),), Rel("R"))
        report = execute(plan, inst, interp)
        assert report.function_calls == 3

    def test_summary_renders(self, inst, interp):
        report = execute(Rel("R"), inst, interp)
        text = report.summary()
        assert "result rows" in text and "scan=3" in text

    def test_counters_isolated_per_execution(self, inst, interp):
        plan = Rel("R")
        first = execute(plan, inst, interp)
        second = execute(plan, inst, interp)
        assert first.counters.rows == second.counters.rows


class TestBatchProtocol:
    """The batch protocol's contract: non-empty batches or None, batch
    size respected at sources, literals never re-chunked, counters
    bumped per batch."""

    def test_next_batch_returns_non_empty_then_none(self, inst, interp):
        op = build_physical_plan(Rel("R"), inst, interp, batch_size=2)
        first = op.next_batch()
        second = op.next_batch()
        assert first is not None and len(first) == 2
        assert second is not None and len(second) == 1
        assert op.next_batch() is None
        assert op.next_batch() is None   # exhausted stays exhausted

    def test_scan_respects_batch_size(self, inst, interp):
        op = build_physical_plan(Rel("R"), inst, interp, batch_size=1)
        sizes = []
        while (batch := op.next_batch()) is not None:
            sizes.append(len(batch))
        assert sizes == [1, 1, 1]

    def test_literal_is_one_batch_regardless_of_batch_size(self, inst, interp):
        rows = frozenset({(i,) for i in range(10)})
        op = build_physical_plan(Lit(1, rows), inst, interp, batch_size=2)
        batch = op.next_batch()
        assert batch is not None and len(batch) == 10
        assert op.next_batch() is None

    def test_bound_parameter_rows_flow_as_one_batch(self):
        from repro.translate.parameterized import (
            bind_parameters,
            parameterized_query,
            translate_parameterized,
        )
        inst = Instance.of(EMP=[(i, i * 10) for i in range(6)])
        pq = parameterized_query(["p"], ["s"], "EMP(p, s)")
        res = translate_parameterized(pq)
        plan = bind_parameters(res.plan, [(i,) for i in range(5)])
        bound = build_physical_plan(plan, inst, Interpretation({}),
                                    schema=res.schema, batch_size=2)
        # find the literal the binder produced and check it emits its
        # five bound tuples as one batch despite batch_size=2
        from repro.engine.operators import LiteralOp

        def find_literal(op):
            if isinstance(op, LiteralOp):
                return op
            for attr in ("child", "left", "right"):
                inner = getattr(op, attr, None)
                if inner is not None:
                    found = find_literal(inner)
                    if found is not None:
                        return found
            return None

        literal = find_literal(bound)
        assert literal is not None
        batch = literal.next_batch()
        assert batch is not None and len(batch) == 5
        assert literal.next_batch() is None

        report = execute(plan, inst, Interpretation({}),
                         schema=res.schema, batch_size=2)
        assert report.counters.rows["literal"] == 5
        assert len(report.result) == 5

    def test_rows_view_equals_batch_concatenation(self, inst, interp):
        plan = Union(Rel("R"), Rel("S"))
        via_batches = []
        op = build_physical_plan(plan, inst, interp, batch_size=2)
        while (batch := op.next_batch()) is not None:
            via_batches.extend(batch)
        op2 = build_physical_plan(plan, inst, interp, batch_size=2)
        assert via_batches == list(op2.rows())

    def test_batches_counted(self, inst, interp):
        report = execute(Rel("R"), inst, interp, batch_size=1)
        assert report.counters.batches == 3
        report = execute(Rel("R"), inst, interp, batch_size=1024)
        assert report.counters.batches == 1

    def test_summary_reports_batches(self, inst, interp):
        report = execute(Rel("R"), inst, interp, batch_size=1)
        text = report.summary()
        assert "3 batches" in text

    def test_invalid_batch_size_rejected(self, inst, interp):
        from repro.errors import EvaluationError
        with pytest.raises(EvaluationError):
            build_physical_plan(Rel("R"), inst, interp, batch_size=0)

    def test_env_default_batch_size(self, monkeypatch):
        from repro.engine.operators import (
            DEFAULT_BATCH_SIZE,
            default_batch_size,
        )
        from repro.errors import EvaluationError
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        assert default_batch_size() == DEFAULT_BATCH_SIZE
        monkeypatch.setenv("REPRO_BATCH_SIZE", "64")
        assert default_batch_size() == 64
        monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
        with pytest.raises(EvaluationError):
            default_batch_size()
        monkeypatch.setenv("REPRO_BATCH_SIZE", "many")
        with pytest.raises(EvaluationError):
            default_batch_size()


class TestComparisonCounter:
    """``OpCounters.total_comparisons`` counts candidate row pairs
    actually examined against a join predicate — one semantics across
    all three join operators, pinned here.

    R has 3 rows {1,2,3}, S has 2 rows {2,5}."""

    def test_nested_loop_examines_every_pair(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "!=", Col(2))}),
                    Rel("R"), Rel("S"))
        report = execute(plan, inst, interp)
        assert report.counters.total_comparisons == 3 * 2

    def test_pure_product_examines_no_pairs(self, inst, interp):
        report = execute(Product(Rel("R"), Rel("S")), inst, interp)
        assert report.counters.total_comparisons == 0

    def test_hash_join_examines_only_bucket_candidates(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "=", Col(2))}),
                    Rel("R"), Rel("S"))
        report = execute(plan, inst, interp)
        # only R's row (2,) hits a bucket; its single candidate is (2,)
        assert report.counters.total_comparisons == 1

    def test_anti_join_short_circuits_at_first_match(self, inst, interp):
        # R anti-join S on equality: each left row with a bucket hit
        # costs exactly one examination (matched immediately)
        plan = AntiJoin(1, frozenset({Condition(Col(1), "=", Col(2))}),
                        Rel("R"), Rel("S"))
        report = execute(plan, inst, interp)
        from repro.engine.operators import AntiJoinOp
        assert isinstance(
            build_physical_plan(plan, inst, interp), AntiJoinOp)
        assert report.counters.total_comparisons == 1

    def test_hash_join_never_exceeds_nested_loop(self, inst, interp):
        equi = frozenset({Condition(Col(1), "=", Col(2))})
        hj = execute(Join(equi, Rel("R"), Rel("S")), inst, interp)
        nl = execute(Join(frozenset({Condition(Col(1), "!=", Col(2))}),
                          Rel("R"), Rel("S")), inst, interp)
        assert hj.counters.total_comparisons <= nl.counters.total_comparisons


class TestAdomPlans:
    def test_baseline_plan_executes(self, interp):
        from repro.translate.baseline_adom import translate_query_adom
        from repro.semantics.eval_calculus import evaluate_query, query_schema
        inst = Instance.of(R3=[(1, 2, 3), (4, 5, 6)], S2=[(2, 3)])
        q = parse_query("{ x, y, z | R3(x, y, z) & ~S2(y, z) }")
        plan = translate_query_adom(q)
        schema = query_schema(q)
        report = execute(plan, inst, interp, schema=schema)
        assert report.result == evaluate_query(q, inst, interp)
        assert "adom" in report.counters.rows


class TestAntiJoin:
    """The simplifier turns the translator's generalized difference into
    an ``AntiJoin`` node, which the planner runs as an anti-join
    (context evaluated once)."""

    def test_pattern_detected_on_translated_difference(self):
        from repro.engine.operators import AntiJoinOp
        inst = gallery_instance()
        interp = standard_gallery_interp()
        res = translate_query(GALLERY["q2"].query)  # R3 - project(join(R3, S2))
        op = build_physical_plan(res.plan, inst, interp)
        assert isinstance(op, AntiJoinOp)

    def test_anti_join_counter_reported(self):
        inst = gallery_instance()
        interp = standard_gallery_interp()
        res = translate_query(GALLERY["q2"].query)
        report = execute(res.plan, inst, interp, schema=res.schema)
        assert "anti-join" in report.counters.rows
        # the context is scanned once, not twice
        assert report.counters.rows["scan"] == len(inst.relation("R3")) + \
            len(inst.relation("S2"))

    def test_plain_diff_not_matched(self, inst, interp):
        from repro.engine.operators import AntiJoinOp, DiffOp
        plan = Diff(Rel("R"), Rel("S"))
        op = build_physical_plan(plan, inst, interp)
        assert isinstance(op, DiffOp)

    def test_non_identity_projection_not_matched(self, inst, interp):
        from repro.engine.operators import DiffOp
        inner = Join(frozenset({Condition(Col(1), "=", Col(2))}),
                     Rel("R"), Rel("S"))
        plan = Diff(Rel("R"), Project((Col(2),), inner))
        op = build_physical_plan(plan, inst, interp)
        assert isinstance(op, DiffOp)

    @pytest.mark.parametrize("key", [k for k, e in GALLERY.items() if e.translatable])
    def test_gallery_answers_unchanged(self, key):
        inst = gallery_instance()
        interp = standard_gallery_interp()
        res = translate_query(GALLERY[key].query)
        assert execute(res.plan, inst, interp, schema=res.schema).result == \
            evaluate(res.plan, inst, interp, schema=res.schema)

    def test_theta_anti_join_falls_back_to_materialized_scan(self, inst, interp):
        from repro.engine.operators import AntiJoinOp
        # a non-equi condition: rows of R with no strictly-smaller S row
        plan = AntiJoin(1, frozenset({Condition(Col(2), "<", Col(1))}),
                        Rel("R"), Rel("S"))
        op = build_physical_plan(plan, inst, interp)
        assert isinstance(op, AntiJoinOp)
        got = execute(plan, inst, interp).result
        want = evaluate(plan, inst, interp)
        assert got == want


class TestOrdinaryValues:
    """Values the engine passes through untouched.  UNDEFINED is the
    only value with special comparison rules; ``None`` and unbounded
    Python ints are ordinary domain values."""

    def test_none_in_an_instance_is_an_ordinary_value(self, interp):
        instance = Instance({"R": Relation(1, [(1,), (None,)])})
        run = execute(Rel("R"), instance, interp)
        assert run.result.rows == frozenset({(1,), (None,)})

    def test_function_returning_none_is_an_ordinary_value(self, inst):
        # a non-partial f with f(x) = None: the condition compares two
        # equal ordinary values, so every row survives
        interp = Interpretation({"f": lambda v: None})
        plan = Select(frozenset({Condition(CApp("f", (Col(1),)), "=",
                                           CConst(None))}), Rel("R"))
        run = execute(plan, inst, interp)
        assert len(run.result) == 3
        assert run.result == evaluate(plan, inst, interp)

    def test_function_calls_count_rows_with_a_none_result(self, inst):
        interp = Interpretation({"f": lambda v: None if v == 3 else v})
        plan = Project((CApp("f", (Col(1),)),), Rel("R"))
        # batch_repr pinned: f's None result is not column-
        # representable, so a column batch would legitimately re-apply
        # f on the tuple-kernel retry and double the count under test.
        run = execute(plan, inst, interp, batch_repr="tuple")
        assert run.function_calls == 3
        assert run.result.rows == frozenset({(1,), (2,), (None,)})

    def test_int_beyond_64_bits_passes_through(self, interp):
        instance = Instance({"R": Relation(1, [(2 ** 64,)])})
        run = execute(Rel("R"), instance, interp)
        assert run.result.rows == frozenset({(2 ** 64,)})

    def test_deep_select_chain_runs(self, inst, interp):
        plan = Rel("R")
        for i in range(60):
            plan = Select(frozenset({Condition(Col(1), ">=",
                                               CConst(-(i + 1)))}), plan)
        run = execute(plan, inst, interp)
        assert run.result.rows == frozenset({(1,), (2,), (3,)})
