"""Tests for the translation validator (repro.analysis.validate) and
the seeded rewrite-mutation harness (repro.analysis.mutation).

The positive direction: every recorded optimizer run over the mutation
workload, the gallery, and a random corpus must certify with zero
false alarms.  The negative direction: crafted corruptions and the
mutation harness must each draw a TV-coded diagnostic naming the
offending rule.
"""

from pathlib import Path

import pytest

from repro.algebra.ast import (
    CConst,
    Col,
    Condition,
    Enumerate,
    Lit,
    Product,
    Project,
    Rel,
    Select,
)
from repro.analysis.mutation import (
    CATALOG,
    MutationReport,
    run_mutation_harness,
    workload_runs,
)
from repro.analysis.validate import (
    BIJECTION_BUDGET,
    _check_reorder,
    check_rewrites,
    refinement_diagnostics,
    validate_rewrites,
)
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine.executor import execute
from repro.engine.rewrite import RewriteStep
from repro.errors import RewriteValidationError

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def error_codes(diagnostics):
    return sorted({d.code for d in diagnostics if d.is_error})


class TestZeroFalseAlarms:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_workload_runs_certify_clean(self, seed):
        for original, outcome in workload_runs(seed):
            diags = validate_rewrites(original, outcome.plan, outcome.steps,
                                      outcome.shared, CATALOG)
            assert error_codes(diags) == [], (original, diags)

    def test_gallery_runs_certify_clean(self):
        from repro.engine.caches import stats_for
        from repro.engine.rewrite import optimize_plan
        from repro.translate.pipeline import translate_query
        from repro.workloads.gallery import GALLERY, gallery_instance

        instance = gallery_instance()
        for key, entry in GALLERY.items():
            if not entry.translatable:
                continue
            res = translate_query(entry.query, verify_plans=True)
            catalog = {d.name: d.arity for d in res.schema.relations}
            outcome = optimize_plan(res.plan, stats_for(instance),
                                    catalog, verify=False,
                                    schema=res.schema)
            diags = validate_rewrites(res.plan, outcome.plan, outcome.steps,
                                      outcome.shared, catalog,
                                      schema=res.schema)
            assert error_codes(diags) == [], key


class TestRunLevelObligations:
    def test_tv001_root_arity(self):
        original = Rel("R")
        plan = Project((Col(1),), Rel("R"))
        codes = error_codes(validate_rewrites(original, plan, (), (),
                                              CATALOG))
        assert "TV001" in codes

    def test_tv002_new_relation_scan(self):
        codes = error_codes(validate_rewrites(Rel("R"), Rel("U"), (), (),
                                              CATALOG))
        assert "TV002" in codes

    def test_tv003_fact_regression(self):
        original = Select(frozenset({Condition(Col(1), "=", CConst(5))}),
                          Rel("R"))
        diags = refinement_diagnostics(original, Rel("R"), CATALOG)
        assert error_codes(diags) == ["TV003"]

    def test_tv003_clean_when_refining(self):
        narrowed = Select(frozenset({Condition(Col(1), "=", CConst(5))}),
                          Rel("R"))
        assert refinement_diagnostics(Rel("R"), narrowed, CATALOG) == []

    def test_tv008_phantom_shared_subplan(self):
        ghost = Lit(3, frozenset({(-1, -2, -3)}))
        codes = error_codes(validate_rewrites(Rel("R"), Rel("R"), (),
                                              (ghost,), CATALOG))
        assert codes == ["TV008"]

    def test_identity_run_is_certified(self):
        assert validate_rewrites(Rel("R"), Rel("R"), (), (), CATALOG) == []


class TestStepObligations:
    def test_tv004_fold_const_decision_replayed(self):
        bad = RewriteStep("fold-const", "test",
                          data=(Condition(CConst(1), "=", CConst(2)), True))
        diags = validate_rewrites(Rel("R"), Rel("R"), (bad,), (), CATALOG)
        assert error_codes(diags) == ["TV004"]
        assert any(d.path == "rewrites[0]" for d in diags)

    def test_fold_const_good_decision_accepted(self):
        good = RewriteStep("fold-const", "test",
                           data=(Condition(CConst(1), "=", CConst(1)), True))
        assert validate_rewrites(Rel("R"), Rel("R"), (good,), (),
                                 CATALOG) == []

    def test_tv004_fold_empty_wrong_arity(self):
        before = Product(Lit(2, frozenset()), Rel("T"))
        bad = RewriteStep("fold-empty", "test", before=before,
                          after=Lit(4, frozenset()))
        diags = validate_rewrites(Rel("R"), Rel("R"), (bad,), (), CATALOG)
        assert error_codes(diags) == ["TV004"]

    def test_fold_empty_correct_arity_accepted(self):
        before = Product(Lit(2, frozenset()), Rel("T"))
        good = RewriteStep("fold-empty", "test", before=before,
                           after=Lit(3, frozenset()))
        assert validate_rewrites(Rel("R"), Rel("R"), (good,), (),
                                 CATALOG) == []

    def test_tv009_unknown_rule(self):
        weird = RewriteStep("transmogrify", "test")
        diags = validate_rewrites(Rel("R"), Rel("R"), (weird,), (), CATALOG)
        assert error_codes(diags) == ["TV009"]

    def test_tv009_missing_redex(self):
        hollow = RewriteStep("join-reorder", "test")  # no before/after
        diags = validate_rewrites(Rel("R"), Rel("R"), (hollow,), (),
                                  CATALOG)
        assert error_codes(diags) == ["TV009"]

    def test_check_rewrites_raises_with_diagnostics(self):
        with pytest.raises(RewriteValidationError) as exc:
            check_rewrites(Rel("R"), Project((Col(1),), Rel("R")),
                           steps=(), shared=(), catalog=CATALOG,
                           phase="unit")
        assert "unit phase" in str(exc.value)
        assert "TV001" in {d.code for d in exc.value.diagnostics}

    def test_check_rewrites_passes_silently(self):
        check_rewrites(Rel("R"), Rel("R"), steps=(), shared=(),
                       catalog=CATALOG)


def _product_chain(n: int):
    node = Rel("T")
    for _ in range(n - 1):
        node = Product(node, Rel("T"))
    return node


class TestBijectionBudget:
    def test_budget_exhaustion_returns_sentinel(self):
        # 7 identical leaves: 7! = 5040 candidate bijections, none of
        # which reconcile the differing constants -> the search must
        # give up at BIJECTION_BUDGET, not run to completion.
        assert BIJECTION_BUDGET < 5040
        before = Select(frozenset({Condition(Col(1), "=", CConst(5))}),
                        _product_chain(7))
        after = Select(frozenset({Condition(Col(1), "=", CConst(6))}),
                       _product_chain(7))
        assert _check_reorder(before, after, CATALOG) == "__budget__"

    def test_budget_surfaces_as_info_not_error(self):
        before = Select(frozenset({Condition(Col(1), "=", CConst(5))}),
                        _product_chain(7))
        after = Select(frozenset({Condition(Col(1), "=", CConst(6))}),
                       _product_chain(7))
        step = RewriteStep("join-reorder", "test", before=before,
                           after=after)
        diags = validate_rewrites(before, before, (step,), (), CATALOG)
        assert [d.code for d in diags] == ["TV010"]
        assert not any(d.is_error for d in diags)
        # info-only outcomes never abort execution
        check_rewrites(before, before, steps=(step,), shared=(),
                       catalog=CATALOG)

    def test_small_mismatch_is_still_an_error(self):
        before = Select(frozenset({Condition(Col(1), "=", CConst(5))}),
                        _product_chain(3))
        after = Select(frozenset({Condition(Col(1), "=", CConst(6))}),
                       _product_chain(3))
        problem = _check_reorder(before, after, CATALOG)
        assert problem is not None and problem != "__budget__"


class TestMutationHarness:
    def test_catch_rate_meets_target(self):
        report = run_mutation_harness(seed=0)
        assert isinstance(report, MutationReport)
        assert report.total >= 20
        assert report.catch_rate >= 0.95, report.render()
        # every caught corruption names its TV code
        assert all(r.codes for r in report.records if r.caught)
        exercised = {c for r in report.records for c in r.codes}
        assert {"TV001", "TV004", "TV005", "TV006", "TV007",
                "TV008", "TV011"} <= exercised
        # every normalization rule has an operator that corrupts it
        normalization = {"project-cascade", "project-identity",
                         "select-merge", "select-join", "unit-product",
                         "anti-join"}
        assert normalization <= {r.rule for r in report.records}
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / "mutation_harness.md").write_text(report.render())

    @pytest.mark.parametrize("seed", [1, 7])
    def test_catch_rate_stable_across_seeds(self, seed):
        report = run_mutation_harness(seed=seed)
        assert report.catch_rate >= 0.95, report.render()

    def test_replace_first_reaches_every_input(self):
        from repro.analysis.mutation import _replace_first

        plan = Product(Rel("T"), Enumerate("e", (Col(1),), 1, Rel("R")))
        out = _replace_first(plan, lambda n: n == Rel("R"),
                             lambda n: Rel("U"))
        assert out == Product(Rel("T"),
                              Enumerate("e", (Col(1),), 1, Rel("U")))


class TestExecutorFallbackEvidence:
    def test_fallback_attaches_error_and_rewrites(self):
        from repro.core.schema import DatabaseSchema, RelationSchema

        # The schema-derived catalog omits ``Hidden``, so the optimizer
        # cannot type the plan and must fall back; the physical planner
        # still runs it straight off the instance.
        instance = Instance.of(R=[(1, 2), (2, 3)], Hidden=[(1,), (2,)])
        schema = DatabaseSchema(relations=[RelationSchema("R", 2)],
                                functions=[])
        plan = Select(frozenset({Condition(Col(1), "=", CConst(1))}),
                      Rel("Hidden"))
        report = execute(plan, instance, Interpretation({}), schema=schema,
                         optimize=True)
        assert report.result.rows == {(1,)}
        assert report.optimizer_error
        assert "Hidden" in report.optimizer_error
        assert isinstance(report.failed_rewrites, tuple)
        assert report.rewrites == ()  # nothing was certified as applied
        assert "optimizer fell back after" in report.summary()

    def test_clean_run_reports_no_fallback(self):
        instance = Instance.of(R=[(1, 2), (2, 3)])
        # batch_repr pinned: under the CI no-numpy leg a requested
        # column representation reports its own (legitimate) CB001
        # fallback, which is not the optimizer evidence under test.
        report = execute(Rel("R"), instance, Interpretation({}),
                         optimize=True, batch_repr="tuple")
        assert report.optimizer_error == ""
        assert report.failed_rewrites == ()
        assert "fell back" not in report.summary()


class TestPipelineValidation:
    def _query_and_schema(self):
        from repro.core.parser import parse_query
        from repro.core.schema import DatabaseSchema, RelationSchema

        # S2 is declared (so the arity-checking sanitizer accepts a plan
        # scanning it) but the query never reads it.
        schema = DatabaseSchema(relations=[RelationSchema("R2", 2),
                                           RelationSchema("S2", 2)],
                                functions=[])
        return parse_query("{ x, y | R2(x, y) }"), schema

    def test_corrupt_simplify_caught_by_tv002(self, monkeypatch):
        import repro.translate.pipeline as pipeline

        # Same arity, declared relation: slips past the arity-checking
        # sanitizer but not past provenance validation.
        monkeypatch.setattr(pipeline, "simplify",
                            lambda plan, catalog, steps=None: Rel("S2"))
        query, schema = self._query_and_schema()
        with pytest.raises(RewriteValidationError) as exc:
            pipeline.translate_query(query, schema=schema,
                                     verify_plans=True)
        assert "TV002" in {d.code for d in exc.value.diagnostics}

    def test_validator_opt_out_flag(self, monkeypatch):
        import repro.translate.pipeline as pipeline

        monkeypatch.setattr(pipeline, "simplify",
                            lambda plan, catalog, steps=None: Rel("S2"))
        query, schema = self._query_and_schema()
        result = pipeline.translate_query(query, schema=schema,
                                          verify_plans=True,
                                          validate_rewrites=False)
        assert result.plan == Rel("S2")

    def test_honest_simplify_validates_clean(self):
        import repro.translate.pipeline as pipeline

        query, schema = self._query_and_schema()
        result = pipeline.translate_query(query, schema=schema,
                                          verify_plans=True,
                                          validate_rewrites=True)
        assert result.plan is not None
