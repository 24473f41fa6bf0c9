"""Unit tests for the pushnot operator, including semantic preservation."""

import pytest

from repro.core.formulas import Exists, Forall, Not, Or
from repro.core.parser import parse_formula
from repro.safety.pushnot import pushnot, pushnot_applicable
from repro.semantics.eval_calculus import satisfies


class TestApplicability:
    def test_not_a_negation(self):
        assert not pushnot_applicable(parse_formula("R(x)"))

    def test_negated_relation_atom(self):
        assert not pushnot_applicable(parse_formula("~R(x)"))

    def test_inequality_not_pushable(self):
        assert not pushnot_applicable(parse_formula("x != y"))

    def test_double_negation_pushable(self):
        # ~(x != y) is ~~(x = y)
        assert pushnot_applicable(parse_formula("~(x != y)"))

    def test_negated_conjunction(self):
        assert pushnot_applicable(parse_formula("~(R(x) & S(x))"))

    def test_negated_disjunction(self):
        assert pushnot_applicable(parse_formula("~(R(x) | S(x))"))

    def test_negated_exists_mode_switch(self):
        f = parse_formula("~exists y (R2(x, y))")
        assert pushnot_applicable(f, through_exists=True)
        assert not pushnot_applicable(f, through_exists=False)


class TestTable:
    def test_double_negation(self):
        f = parse_formula("~(x != y)")
        assert pushnot(f) == parse_formula("x = y")

    def test_conjunction_to_disjunction(self):
        f = parse_formula("~(R(x) & S(x))")
        out = pushnot(f)
        assert isinstance(out, Or)
        assert out == parse_formula("~R(x) | ~S(x)")

    def test_disjunction_to_conjunction(self):
        f = parse_formula("~(R(x) | S(x))")
        assert pushnot(f) == parse_formula("~R(x) & ~S(x)")

    def test_forall_to_exists(self):
        f = Not(parse_formula("forall y (R2(x, y))"))
        out = pushnot(f)
        assert isinstance(out, Exists)
        assert out == parse_formula("exists y (~R2(x, y))")

    def test_exists_to_forall(self):
        f = parse_formula("~exists y (R2(x, y))")
        out = pushnot(f)
        assert isinstance(out, Forall)

    def test_raises_when_inapplicable(self):
        with pytest.raises(ValueError):
            pushnot(parse_formula("~R(x)"))


class TestSemanticPreservation:
    @pytest.mark.parametrize("text", [
        "~(R(x) & S(x))",
        "~(R(x) | S(x) | T(x))",
        "~(x != y)",
        "~exists y (R2(x, y))",
        "~(R(x) & (S(x) | x != y))",
    ])
    def test_pushnot_preserves_truth(self, text, small_instance, small_interp):
        f = parse_formula(text)
        pushed = pushnot(f)
        universe = sorted(small_instance.active_domain())
        from repro.core.formulas import free_variables
        frees = sorted(free_variables(f))
        from itertools import product
        for values in product(universe[:5], repeat=len(frees)):
            env = dict(zip(frees, values))
            assert (satisfies(f, env, small_instance, small_interp, universe)
                    == satisfies(pushed, env, small_instance, small_interp, universe))
