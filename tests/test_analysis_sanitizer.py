"""Tests for the algebra plan sanitizer (repro.analysis.sanitizer) and
its wiring into the translation pipeline and simplifier."""

import pytest

from repro.algebra.ast import (
    AntiJoin,
    CApp,
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
from repro.analysis.sanitizer import (
    check_plan,
    sanitize_plan,
    set_verify_plans,
    verify_plans_enabled,
)
from repro.core.parser import parse_query
from repro.errors import PlanInvariantError
from repro.translate.pipeline import translate_query

CATALOG = {"R": 1, "S": 1, "R2": 2}


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


class TestSanitizeRules:
    def test_well_formed_plan_is_clean(self):
        plan = Project((Col(1),), Select(frozenset([Condition(Col(1), "=", Col(2))]),
                                         Rel("R2")))
        assert sanitize_plan(plan, CATALOG) == []

    def test_pl001_projection_out_of_range(self):
        plan = Project((Col(3),), Rel("R2"))
        ds = sanitize_plan(plan, CATALOG)
        assert codes(ds) == ["PL001"]
        assert "@3" in ds[0].message and "arity is 2" in ds[0].message

    def test_pl002_union_and_diff_mismatch(self):
        assert codes(sanitize_plan(Union(Rel("R"), Rel("R2")),
                                   CATALOG)) == ["PL002"]
        ds = sanitize_plan(Diff(Rel("R2"), Rel("R")), CATALOG)
        assert codes(ds) == ["PL002"]
        assert "difference" in ds[0].message
        ds = sanitize_plan(AntiJoin(1, frozenset(), Rel("R2"), Rel("R")),
                           CATALOG)
        assert codes(ds) == ["PL002"]
        assert "anti-join" in ds[0].message

    def test_pl003_select_condition_missing_column(self):
        plan = Select(frozenset([Condition(Col(1), "=", Col(5))]), Rel("R2"))
        ds = sanitize_plan(plan, CATALOG)
        assert codes(ds) == ["PL003"]

    def test_pl003_join_condition_out_of_range(self):
        plan = Join(frozenset([Condition(Col(1), "=", Col(5))]), Rel("R2"), Rel("R"))
        ds = sanitize_plan(plan, CATALOG)
        assert codes(ds) == ["PL003"]
        assert "joined arity is 3" in ds[0].message

    def test_pl004_unknown_relation(self):
        ds = sanitize_plan(Rel("Nope"), CATALOG)
        assert codes(ds) == ["PL004"]
        assert "'Nope'" in ds[0].message
        assert "R, R2, S" in ds[0].suggestion

    def test_pl006_expected_arity(self):
        ds = sanitize_plan(Rel("R2"), CATALOG, expected_arity=1)
        assert codes(ds) == ["PL006"]
        assert "arity 2, expected 1" in ds[0].message

    def test_collects_all_violations(self):
        plan = Union(Project((Col(9),), Rel("R2")), Rel("Nope"))
        assert codes(sanitize_plan(plan, CATALOG)) == ["PL001", "PL004"]

    def test_paths_locate_the_offender(self):
        plan = Union(Project((Col(9),), Rel("R2")), Rel("R"))
        ds = sanitize_plan(plan, CATALOG)
        by_code = {d.code: d for d in ds}
        assert by_code["PL001"].path == "plan.left"

    def test_function_application_columns_checked(self):
        plan = Project((CApp("f", (Col(4),)),), Rel("R2"))
        assert codes(sanitize_plan(plan, CATALOG)) == ["PL001"]

    def test_product_and_literals(self):
        plan = Product(Lit(2, frozenset({(1, 2)})), Rel("R"))
        assert sanitize_plan(plan, CATALOG, expected_arity=3) == []


class TestCheckPlan:
    def test_raises_with_phase_in_message(self):
        with pytest.raises(PlanInvariantError) as exc:
            check_plan(Project((Col(3),), Rel("R")), CATALOG, phase="compile")
        assert "after compile" in str(exc.value)
        assert exc.value.diagnostics
        assert exc.value.diagnostics[0].code == "PL001"

    def test_clean_plan_passes(self):
        check_plan(Rel("R"), CATALOG, phase="compile", expected_arity=1)

    def test_verify_flag_round_trip(self):
        previous = set_verify_plans(False)
        try:
            assert verify_plans_enabled() is False
            assert verify_plans_enabled(True) is True
            set_verify_plans(True)
            assert verify_plans_enabled() is True
            assert verify_plans_enabled(False) is False
        finally:
            set_verify_plans(previous)


def _arity_corrupting_rewrite(simplifier):
    """A seeded mutation of ``_rewrite_once``: the top-level rewrite
    silently drops the last projection column.  The plan stays
    structurally consistent — only the plan/query arity contract breaks,
    which is exactly what PL006 exists to catch.  (``_rewrite_once`` is
    self-recursive, so a depth guard confines the corruption to the
    round's final result.)"""
    original = simplifier._rewrite_once
    depth = {"n": 0}

    def corrupting(expr, catalog):
        depth["n"] += 1
        try:
            out = original(expr, catalog)
        finally:
            depth["n"] -= 1
        if depth["n"] == 0 and isinstance(out, Project) and len(out.exprs) > 1:
            return Project(out.exprs[:-1], out.child)
        return out

    return corrupting


class TestPipelineWiring:
    def test_seeded_simplifier_mutation_is_caught(self, monkeypatch):
        """Acceptance: an arity-corrupting rewrite — dropping the last
        projection column — must be caught under verify_plans=True."""
        import repro.algebra.simplifier as simplifier
        monkeypatch.setattr(simplifier, "_rewrite_once",
                            _arity_corrupting_rewrite(simplifier))
        q = parse_query("{ x, y | R2(x, y) & S(x) }")
        with pytest.raises(PlanInvariantError) as exc:
            translate_query(q, verify_plans=True)
        assert any(d.code == "PL006" for d in exc.value.diagnostics)
        assert "simplif" in str(exc.value)  # names the culprit phase

    def test_mutation_unnoticed_when_verification_off(self, monkeypatch):
        import repro.algebra.simplifier as simplifier
        monkeypatch.setattr(simplifier, "_rewrite_once",
                            _arity_corrupting_rewrite(simplifier))
        q = parse_query("{ x, y | R2(x, y) & S(x) }")
        result = translate_query(q, verify_plans=False)  # no error raised
        assert result.plan is not None

    def test_every_gallery_plan_sanitizes_clean(self):
        from repro.workloads.gallery import GALLERY
        for key, entry in GALLERY.items():
            if not entry.translatable:
                continue
            res = translate_query(entry.query, verify_plans=True)
            catalog = {d.name: d.arity for d in res.schema.relations}
            assert sanitize_plan(res.plan, catalog,
                                 expected_arity=entry.query.arity) == [], key

    def test_random_corpus_plans_sanitize_clean(self):
        from repro.workloads.random_queries import random_em_allowed_query
        for seed in range(12):
            q = random_em_allowed_query(seed)
            res = translate_query(q, verify_plans=True)
            catalog = {d.name: d.arity for d in res.schema.relations}
            assert sanitize_plan(res.plan, catalog,
                                 expected_arity=q.arity) == [], seed
