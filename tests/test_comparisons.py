"""Tests for externally defined predicates (Section 9(d)): arithmetic
comparison atoms end-to-end through parsing, safety, translation,
evaluation, and the engine."""

import pytest

from repro.algebra.ast import compare_values
from repro.algebra.evaluator import evaluate
from repro.algebra.printer import to_algebra_text
from repro.core.builders import query as build_query, rels, variables
from repro.core.formulas import Compare
from repro.core.parser import parse_formula, parse_query
from repro.core.printer import to_text
from repro.core.terms import Var
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine.executor import execute
from repro.errors import FormulaError, NotEmAllowedError
from repro.safety import bd, em_allowed
from repro.semantics.eval_calculus import evaluate_query
from repro.translate.baseline_adom import translate_query_adom
from repro.translate.pipeline import translate_query


@pytest.fixture
def inst():
    return Instance.of(R=[(1,), (5,), (9,)], E=[(1, 5), (5, 9), (9, 1)])


@pytest.fixture
def interp():
    return Interpretation({"f": lambda v: v * 2 if isinstance(v, int) else 0})


class TestSyntax:
    def test_parse_all_operators(self):
        for op in ("<", "<=", ">", ">="):
            f = parse_formula(f"x {op} y")
            assert isinstance(f, Compare)
            assert f.op == op

    def test_invalid_operator_rejected(self):
        with pytest.raises(FormulaError):
            Compare("<>", Var("x"), Var("y"))

    def test_round_trip(self):
        for text in ["R(x) & x < 3", "R(x) & R(y) & f(x) >= y"]:
            f = parse_formula(text)
            assert parse_formula(to_text(f)) == f

    def test_dsl_operators(self):
        R, = rels("R")
        x, y = variables("x y")
        q = build_query([x, y], R(x) & R(y) & (x < y))
        assert q == parse_query("{ x, y | R(x) & R(y) & x < y }")

    def test_precedence_with_conjunction(self):
        f = parse_formula("x < y & R(x)")
        from repro.core.formulas import And
        assert isinstance(f, And)


class TestSemanticsOfCompare:
    def test_compare_values_table(self):
        assert compare_values("<", 1, 2)
        assert not compare_values("<", 2, 1)
        assert compare_values("<=", 2, 2)
        assert compare_values(">", 3, 2)
        assert compare_values(">=", 2, 2)

    def test_unorderable_values_fail_predicate(self):
        assert not compare_values("<", "a", 1)
        assert not compare_values(">=", "a", 1)

    def test_satisfies(self, inst, interp):
        from repro.semantics.eval_calculus import satisfies
        f = parse_formula("x < y")
        assert satisfies(f, {"x": 1, "y": 2}, inst, interp, [1, 2])
        assert not satisfies(f, {"x": 2, "y": 1}, inst, interp, [1, 2])


class TestSafety:
    def test_compare_gives_no_bounding_info(self):
        assert bd(parse_formula("x < y")) == frozenset()

    def test_comparison_alone_not_em_allowed(self):
        assert not em_allowed(parse_formula("x < 5"))

    def test_bounded_comparison_em_allowed(self):
        assert em_allowed(parse_formula("R(x) & x < 5"))

    def test_function_comparison(self):
        f = parse_formula("R(x) & R(y) & f(x) < y")
        assert em_allowed(f)

    def test_negated_comparison_still_needs_bounds(self):
        assert not em_allowed(parse_formula("~(x < 5)"))
        assert em_allowed(parse_formula("R(x) & ~(x < 5)"))

    def test_refusal_mentions_unbounded_var(self):
        with pytest.raises(NotEmAllowedError):
            translate_query(parse_query("{ x, y | R(x) & x < y }"))


class TestTranslation:
    def test_comparison_becomes_selection(self, inst, interp):
        q = parse_query("{ x | R(x) & x < 6 }")
        res = translate_query(q)
        assert "select" in to_algebra_text(res.plan)
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        assert out.rows == {(1,), (5,)}

    def test_negated_comparison_complement_op(self, inst, interp):
        q = parse_query("{ x | R(x) & ~(x < 6) }")
        res = translate_query(q)
        text = to_algebra_text(res.plan)
        assert ">=" in text
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        assert out.rows == {(9,)}

    @pytest.mark.parametrize("text,expected", [
        ("{ x | R(x) & x <= 5 }", {(1,), (5,)}),
        ("{ x | R(x) & x > 5 }", {(9,)}),
        ("{ x | R(x) & x >= 5 }", {(5,), (9,)}),
        ("{ x, y | E(x, y) & x < y }", {(1, 5), (5, 9)}),
        ("{ x | R(x) & f(x) > 9 }", {(5,), (9,)}),
    ])
    def test_answers(self, text, expected, inst, interp):
        q = parse_query(text)
        res = translate_query(q)
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        assert out.rows == expected
        # cross-check all three evaluation paths
        assert evaluate_query(q, inst, interp).rows == expected
        assert execute(res.plan, inst, interp, schema=res.schema).result.rows \
            == expected

    def test_baseline_handles_comparisons(self, inst, interp):
        from repro.semantics.eval_calculus import query_schema
        q = parse_query("{ x, y | E(x, y) & x < y }")
        plan = translate_query_adom(q)
        out = evaluate(plan, inst, interp, schema=query_schema(q))
        assert out == evaluate_query(q, inst, interp)

    def test_comparison_in_disjunction(self, inst, interp):
        q = parse_query("{ x | R(x) & (x < 2 | x > 8) }")
        res = translate_query(q)
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        assert out.rows == {(1,), (9,)}

    def test_comparison_under_quantifier(self, inst, interp):
        # neighbours strictly above x
        q = parse_query("{ x | R(x) & exists y (E(x, y) & y > x) }")
        res = translate_query(q)
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        assert out == evaluate_query(q, inst, interp)
        assert out.rows == {(1,), (5,)}


class TestUserDefinedPredicates:
    """User-defined external predicates (Section 9(d)) are encoded as
    boolean-valued scalar functions: ``p(x...) = 'true'``."""

    def test_boolean_function_predicate(self, inst):
        interp = Interpretation({
            "odd": lambda v: "yes" if isinstance(v, int) and v % 2 else "no",
        })
        q = parse_query("{ x | R(x) & odd(x) = 'yes' }")
        assert em_allowed(q.body)
        res = translate_query(q)
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        assert out.rows == {(1,), (5,), (9,)}
        assert out == evaluate_query(q, inst, interp)

    def test_predicate_gives_no_bounding(self):
        # odd(x) = 'yes' bounds nothing about x (constant on the right,
        # x under a function on the left)
        deps = bd(parse_formula("odd(x) = 'yes'"))
        assert not any("x" in d.rhs for d in deps)
