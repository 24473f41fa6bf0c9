"""Tests for the extended algebra: AST validation, evaluation,
printing, and the simplifier's semantics preservation."""

import pytest

from repro.algebra.ast import (
    AdomK,
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
    algebra_function_names,
    algebra_size,
    arity_of,
    colexpr_columns,
)
from repro.algebra.evaluator import EvalStats, evaluate
from repro.algebra.printer import explain, to_algebra_text
from repro.engine.rewrite import simplify
from repro.core.schema import DatabaseSchema
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.data.relation import Relation
from repro.errors import EvaluationError

CATALOG = {"R": 1, "S": 1, "R2": 2}


@pytest.fixture
def inst():
    return Instance({
        "R": Relation(1, [(1,), (2,), (3,)]),
        "S": Relation(1, [(2,), (5,)]),
        "R2": Relation(2, [(1, 10), (2, 20)]),
    })


@pytest.fixture
def interp():
    return Interpretation({"f": lambda v: v * 10, "g": lambda v: v + 1})


class TestAst:
    def test_col_one_based(self):
        with pytest.raises(EvaluationError):
            Col(0)

    def test_condition_op_validated(self):
        with pytest.raises(EvaluationError):
            Condition(Col(1), "<>", Col(2))

    def test_condition_ordering_ops_accepted(self):
        for op in ("<", "<=", ">", ">="):
            assert Condition(Col(1), op, Col(2)).op == op

    def test_colexpr_columns(self):
        e = CApp("f", (Col(2), CConst(1)))
        assert colexpr_columns(e) == {2}

    def test_lit_arity_check(self):
        with pytest.raises(EvaluationError):
            Lit(2, frozenset({(1,)}))

    def test_arity_of_operators(self):
        assert arity_of(Rel("R2"), CATALOG) == 2
        assert arity_of(Project((Col(1),), Rel("R2")), CATALOG) == 1
        assert arity_of(Join(frozenset(), Rel("R"), Rel("R2")), CATALOG) == 3
        assert arity_of(Product(Rel("R"), Rel("S")), CATALOG) == 2
        assert arity_of(AdomK(1, frozenset()), CATALOG) == 1
        assert arity_of(Project((), Rel("R")), CATALOG) == 0

    def test_arity_mismatch_union(self):
        with pytest.raises(EvaluationError):
            arity_of(Union(Rel("R"), Rel("R2")), CATALOG)
        # an anti-join's stored arity must be its left input's
        with pytest.raises(EvaluationError):
            arity_of(AntiJoin(1, frozenset(), Rel("R2"), Rel("R")), CATALOG)

    def test_projection_out_of_range(self):
        with pytest.raises(EvaluationError):
            arity_of(Project((Col(3),), Rel("R")), CATALOG)

    def test_join_condition_out_of_range(self):
        bad = Join(frozenset({Condition(Col(9), "=", Col(1))}), Rel("R"), Rel("S"))
        with pytest.raises(EvaluationError):
            arity_of(bad, CATALOG)

    def test_unknown_relation(self):
        with pytest.raises(EvaluationError):
            arity_of(Rel("nope"), CATALOG)

    def test_sizes_and_functions(self):
        plan = Project((CApp("f", (Col(1),)),), Select(
            frozenset({Condition(Col(1), "=", CApp("g", (Col(1),)))}), Rel("R")))
        assert algebra_size(plan) == 3
        assert algebra_function_names(plan) == {"f", "g"}


class TestEvaluation:
    def test_scan(self, inst, interp):
        assert evaluate(Rel("R"), inst, interp) == inst.relation("R")

    def test_extended_projection_applies_functions(self, inst, interp):
        plan = Project((Col(1), CApp("f", (Col(1),))), Rel("R"))
        out = evaluate(plan, inst, interp)
        assert out == Relation(2, [(1, 10), (2, 20), (3, 30)])

    def test_select_eq_and_neq(self, inst, interp):
        eq = Select(frozenset({Condition(Col(1), "=", CConst(2))}), Rel("R"))
        assert evaluate(eq, inst, interp) == Relation(1, [(2,)])
        neq = Select(frozenset({Condition(Col(1), "!=", CConst(2))}), Rel("R"))
        assert evaluate(neq, inst, interp) == Relation(1, [(1,), (3,)])

    def test_select_with_function_condition(self, inst, interp):
        # rows of R2 where col2 == f(col1)
        plan = Select(frozenset({Condition(Col(2), "=", CApp("f", (Col(1),)))}),
                      Rel("R2"))
        assert evaluate(plan, inst, interp) == Relation(2, [(1, 10), (2, 20)])

    def test_join(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "=", Col(2))}), Rel("R"), Rel("S"))
        assert evaluate(plan, inst, interp) == Relation(2, [(2, 2)])

    def test_union_diff_product(self, inst, interp):
        assert evaluate(Union(Rel("R"), Rel("S")), inst, interp) == \
            Relation(1, [(1,), (2,), (3,), (5,)])
        assert evaluate(Diff(Rel("R"), Rel("S")), inst, interp) == \
            Relation(1, [(1,), (3,)])
        assert len(evaluate(Product(Rel("R"), Rel("S")), inst, interp)) == 6

    def test_empty_projection_is_boolean(self, inst, interp):
        nonempty = evaluate(Project((), Rel("R")), inst, interp)
        assert nonempty == Relation(0, [()])
        empty = evaluate(Project((), Select(
            frozenset({Condition(Col(1), "=", CConst(99))}), Rel("R"))), inst, interp)
        assert empty == Relation(0, [])

    def test_adom_requires_schema(self, inst, interp):
        with pytest.raises(EvaluationError):
            evaluate(AdomK(0, frozenset()), inst, interp)

    def test_adom_with_closure(self, inst, interp):
        schema = DatabaseSchema.of(CATALOG, {"g": 1})
        out = evaluate(AdomK(1, frozenset({99})), inst, interp, schema=schema)
        values = {row[0] for row in out}
        assert {1, 2, 3, 5, 10, 20, 99} <= values
        assert 100 in values  # g(99)

    def test_stats_recorded(self, inst, interp):
        stats = EvalStats()
        evaluate(Join(frozenset(), Rel("R"), Rel("S")), inst, interp, stats=stats)
        assert stats.operator_rows["join"] == 6
        assert stats.rows_produced >= 6

    def test_column_out_of_range_at_runtime(self, inst, interp):
        with pytest.raises(EvaluationError):
            evaluate(Project((Col(5),), Rel("R")), inst, interp)


class TestPrinter:
    def test_paper_style_projection(self):
        plan = Project((CApp("g", (CApp("f", (Col(1),)),)),), Rel("R"))
        assert to_algebra_text(plan) == "project([g(f(@1))], R)"

    def test_join_with_conditions(self):
        plan = Join(frozenset({Condition(Col(2), "=", Col(4)),
                               Condition(Col(3), "=", Col(5))}),
                    Rel("R"), Rel("S"))
        assert to_algebra_text(plan) == "join({@2==@4, @3==@5}, R, S)"

    def test_diff_renders_minus(self):
        assert " - " in to_algebra_text(Diff(Rel("R"), Rel("S")))

    def test_explain_tree(self):
        plan = Project((Col(1),), Select(frozenset(), Rel("R")))
        text = explain(plan)
        assert "Project" in text and "Select" in text and "Rel R" in text


class TestSimplifier:
    def test_projection_cascade(self):
        plan = Project((Col(1),), Project((Col(2), Col(1)), Rel("R2")))
        out = simplify(plan, CATALOG)
        assert out == Project((Col(2),), Rel("R2"))

    def test_identity_projection_removed(self):
        plan = Project((Col(1), Col(2)), Rel("R2"))
        assert simplify(plan, CATALOG) == Rel("R2")

    def test_select_merge(self):
        c1 = Condition(Col(1), "=", CConst(1))
        c2 = Condition(Col(2), "=", CConst(2))
        plan = Select(frozenset({c1}), Select(frozenset({c2}), Rel("R2")))
        out = simplify(plan, CATALOG)
        assert out == Select(frozenset({c1, c2}), Rel("R2"))

    def test_select_over_product_becomes_join(self):
        cond = Condition(Col(1), "=", Col(2))
        plan = Select(frozenset({cond}), Product(Rel("R"), Rel("S")))
        out = simplify(plan, CATALOG)
        assert out == Join(frozenset({cond}), Rel("R"), Rel("S"))

    def test_true_literal_elimination(self):
        true = Lit(0, frozenset({()}))
        assert simplify(Product(true, Rel("R")), CATALOG) == Rel("R")
        cond = Condition(Col(1), "=", CConst(1))
        out = simplify(Join(frozenset({cond}), true, Rel("R")), CATALOG)
        assert out == Select(frozenset({cond}), Rel("R"))

    @pytest.mark.parametrize("plan", [
        Project((Col(1),), Project((Col(2), Col(1)), Rel("R2"))),
        Select(frozenset({Condition(Col(1), "=", CConst(2))}),
               Select(frozenset({Condition(Col(1), "!=", CConst(5))}), Rel("R"))),
        Select(frozenset({Condition(Col(1), "=", Col(2))}),
               Product(Rel("R"), Rel("S"))),
        Diff(Rel("R"), Project((Col(1),), Join(
            frozenset({Condition(Col(1), "=", Col(2))}), Rel("R"), Rel("S")))),
        Project((CApp("f", (Col(1),)),), Product(Lit(0, frozenset({()})), Rel("R"))),
    ])
    def test_simplify_preserves_semantics(self, plan, inst, interp):
        before = evaluate(plan, inst, interp)
        after = evaluate(simplify(plan, CATALOG), inst, interp)
        assert before == after
