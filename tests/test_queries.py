"""Unit tests for repro.core.queries and the builders DSL."""

import pytest

from repro.core.builders import exists, forall, funcs, query, rels, variables
from repro.core.parser import parse_query
from repro.core.terms import Const
from repro.errors import FormulaError


class TestQueryInvariants:
    def test_head_vars_must_be_free(self):
        with pytest.raises(FormulaError):
            parse_query("{ x, z | R(x) }")

    def test_free_vars_must_be_in_head(self):
        with pytest.raises(FormulaError):
            parse_query("{ x | R2(x, y) }")

    def test_constant_head_entry_allowed(self):
        q = parse_query("{ x, 5 | R(x) }")
        assert q.head[1] == Const(5)
        assert q.arity == 2

    def test_function_heads(self):
        q = parse_query("{ g(f(x)) | R(x) }")
        assert q.head_variables == {"x"}
        assert q.function_names() == {"f", "g"}

    def test_metadata(self):
        q = parse_query("{ x | R(x) & x = 3 & exists y (S2(x, y) & f(y) = x) }")
        assert q.relation_names() == {"R", "S2"}
        assert q.constants() == {3}
        assert q.function_depth() == 1

    def test_standardized_keeps_semantics_shape(self):
        q = parse_query("{ x | R(x) & exists x_1 (S(x_1)) }")
        std = q.standardized()
        assert std.head == q.head
        assert std.arity == 1

    def test_str(self):
        q = parse_query("{ x | R(x) }")
        assert "R(x)" in str(q)


class TestBuilders:
    def test_dsl_builds_same_ast_as_parser(self):
        R, S = rels("R", "S")
        f, g = funcs("f", "g")
        x, y = variables("x y")
        built = query([x, y], (R(x) & (f(x) == y)) | (S(y) & (g(y) == x)))
        parsed = parse_query("{ x, y | (R(x) & f(x) = y) | (S(y) & g(y) = x) }")
        assert built == parsed

    def test_dsl_inequality(self):
        R, = rels("R")
        x, y = variables("x y")
        built = query([x, y], R(x) & R(y) & (x != y))
        parsed = parse_query("{ x, y | R(x) & R(y) & x != y }")
        assert built == parsed

    def test_dsl_quantifiers(self):
        R2, = rels("R2")
        x, y = variables("x y")
        built = query([x], exists(y, R2(x, y)))
        parsed = parse_query("{ x | exists y (R2(x, y)) }")
        assert built == parsed

    def test_dsl_forall(self):
        R, R2 = rels("R", "R2")
        x, y = variables("x y")
        built = query([x], R(x) & forall(y, ~R2(x, y) | R(y)))
        parsed = parse_query("{ x | R(x) & forall y (~R2(x, y) | R(y)) }")
        assert built == parsed

    def test_dsl_constants_coerced(self):
        R2, = rels("R2")
        x, = variables("x")
        built = query([x], R2(x, 5))
        parsed = parse_query("{ x | R2(x, 5) }")
        assert built == parsed

    def test_string_head_names(self):
        R, = rels("R")
        x, = variables("x")
        assert query(["x"], R(x)) == query([x], R(x))
