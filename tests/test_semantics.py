"""Tests for the reference semantics: satisfaction, query evaluation,
level measures, and the embedded-domain-independence falsifier."""

import pytest

from repro.core.parser import parse_formula, parse_query
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.errors import EvaluationError
from repro.semantics.domain_independence import (
    check_embedded_domain_independence,
    edi_witness,
)
from repro.semantics.eval_calculus import (
    evaluate_query,
    evaluation_universe,
    query_schema,
    satisfies,
)
from repro.semantics.levels import edi_level, edi_level_query, function_nesting


class TestSatisfies:
    def test_relation_atom(self, small_instance, small_interp):
        f = parse_formula("R(x)")
        assert satisfies(f, {"x": 1}, small_instance, small_interp, [1, 2])
        assert not satisfies(f, {"x": 99}, small_instance, small_interp, [1, 2])

    def test_equality_with_functions(self, small_instance, small_interp):
        f = parse_formula("f(x) = y")
        fx = small_interp.raw("f")(1)
        assert satisfies(f, {"x": 1, "y": fx}, small_instance, small_interp, [1])

    def test_connectives(self, small_instance, small_interp):
        f = parse_formula("R(x) & ~S(x)")
        assert satisfies(f, {"x": 3}, small_instance, small_interp, [3])
        assert not satisfies(f, {"x": 2}, small_instance, small_interp, [2])

    def test_exists_ranges_over_universe(self, small_instance, small_interp):
        f = parse_formula("exists y (R2(x, y))")
        # (1, 8) in R2 but 8 must be in the universe for exists to find it
        assert satisfies(f, {"x": 1}, small_instance, small_interp, [1, 8])
        assert not satisfies(f, {"x": 1}, small_instance, small_interp, [1, 2])

    def test_forall_over_universe(self, small_instance, small_interp):
        f = parse_formula("forall y (R(y) | S(y))")
        assert satisfies(f, {}, small_instance, small_interp, [1, 2, 3, 9])
        assert not satisfies(f, {}, small_instance, small_interp, [1, 5])


class TestLevels:
    def test_function_nesting(self):
        assert function_nesting(parse_formula("g(f(x)) = y")) == 2
        assert function_nesting(parse_formula("R(x)")) == 0

    def test_edi_level_counts_applications(self):
        assert edi_level(parse_formula("f(x) = y & g(y) = z")) == 2
        assert edi_level(parse_formula("g(f(x)) = y")) == 2
        assert edi_level(parse_formula("R(x)")) == 0

    def test_edi_level_dominates_nesting(self):
        for text in ["g(f(x)) = y", "f(x) = y & g(y) = z", "R(f(x))"]:
            f = parse_formula(text)
            assert edi_level(f) >= function_nesting(f)

    def test_query_level_counts_head(self):
        q = parse_query("{ g(f(x)) | R(x) }")
        assert edi_level_query(q) == 2  # f then g over the active domain


class TestEvaluateQuery:
    def test_simple(self, small_instance, small_interp):
        q = parse_query("{ x | R(x) & ~S(x) }")
        out = evaluate_query(q, small_instance, small_interp)
        assert out == Relation(1, [(3,)])

    def test_head_functions_applied(self, small_instance, small_interp):
        q = parse_query("{ f(x) | R(x) }")
        f = small_interp.raw("f")
        out = evaluate_query(q, small_instance, small_interp)
        assert out == Relation(1, [(f(1),), (f(2),), (f(3),)])

    def test_universe_override(self, small_instance, small_interp):
        q = parse_query("{ x | exists y (R2(x, y)) }")
        out = evaluate_query(q, small_instance, small_interp, universe=[1, 2, 3])
        assert out == Relation(1, [(3,)])  # only (3, 3) has its witness in [1,2,3]

    def test_chain_needs_level(self, small_interp):
        inst = Instance.of(R=[(1,)])
        q = parse_query("{ x, z | R(x) & exists y (f(x) = y & g(y) = z) }")
        out = evaluate_query(q, inst, small_interp)
        f, g = small_interp.raw("f"), small_interp.raw("g")
        assert out == Relation(2, [(1, g(f(1)))])

    def test_valuation_guard(self, small_interp):
        inst = Instance.of(R=[(v,) for v in range(30)])
        q = parse_query("{ a, b, c, d | R(a) & R(b) & R(c) & R(d) }")
        with pytest.raises(EvaluationError):
            evaluate_query(q, inst, small_interp, max_valuations=1000)

    def test_query_schema_inference(self):
        q = parse_query("{ x | R(x) & exists y (pair(x, y) = x & S(y)) }")
        schema = query_schema(q)
        assert schema.relation("R").arity == 1
        assert schema.function("pair").arity == 2

    def test_query_schema_base_wins(self, small_schema):
        q = parse_query("{ x | R(x) }")
        schema = query_schema(q, small_schema)
        assert schema.has_function("pair")  # inherited from base

    def test_evaluation_universe_contains_adom(self, small_instance, small_interp):
        q = parse_query("{ x | R(x) & f(x) = x }")
        uni = evaluation_universe(q, small_instance, small_interp)
        assert small_instance.active_domain() <= uni


class TestEdi:
    def test_em_allowed_queries_pass(self, small_instance, small_interp):
        for text in [
            "{ x | R(x) & exists y (f(x) = y & ~R(y)) }",
            "{ x, y | (R(x) & f(x) = y) | (S(y) & g(y) = x) }",
            "{ g(f(x)) | R(x) }",
        ]:
            report = edi_witness(parse_query(text), small_instance,
                                 small_interp, trials=3)
            assert report.independent, text

    def test_non_edi_query_witnessed(self, small_instance, small_interp):
        report = edi_witness(parse_query("{ x | f(x) = x }"),
                             small_instance, small_interp, trials=8)
        assert not report.independent
        assert report.witness

    def test_q6_witnessed(self, small_interp):
        inst = Instance.of(R=[(0,)])
        q = parse_query("{ x | x = 0 & forall u exists v (plus1(u) = v) }")
        # at level 1 the forall over an enlarged universe can flip
        report = edi_witness(q, inst, small_interp, level=1, trials=8)
        assert not report.independent

    def test_multi_instance_check(self, small_instance, small_interp):
        q = parse_query("{ x | R(x) & ~S(x) }")
        report = check_embedded_domain_independence(
            q, [small_instance, Instance.of(R=[(7,)]).with_empty("S", 1)],
            small_interp, trials=2)
        assert report.independent
