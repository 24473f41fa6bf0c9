"""Tests for steps 1–2 of the translation: forall elimination and ENF."""

from itertools import product

import pytest

from repro.core.formulas import And, Exists, Not, Or, free_variables
from repro.core.parser import parse_formula
from repro.semantics.eval_calculus import satisfies
from repro.translate.enf import is_enf, to_enf
from repro.translate.trace import TranslationTrace


class TestTransformations:
    def test_t1_double_negation(self):
        trace = TranslationTrace()
        out = to_enf(parse_formula("~~R(x)"), trace)
        assert out == parse_formula("R(x)")
        assert trace.count("T1") == 1

    def test_t2_t3_flatten(self):
        f = And((parse_formula("R(x)"), And((parse_formula("S(x)"),
                                             parse_formula("T(x)")))))
        out = to_enf(f)
        assert isinstance(out, And) and len(out.children) == 3

    def test_t4_merges_exists(self):
        f = parse_formula("exists x (exists y (R2(x, y)))")
        out = to_enf(f)
        assert isinstance(out, Exists) and set(out.vars) == {"x", "y"}

    def test_t5_drops_vacuous(self):
        f = Exists(("x", "z"), parse_formula("R(x)"))
        out = to_enf(f)
        assert isinstance(out, Exists) and out.vars == ("x",)

    def test_t6_forall_elimination(self):
        trace = TranslationTrace()
        out = to_enf(parse_formula("forall y (R2(x, y))"), trace)
        assert trace.count("T6") == 1
        assert isinstance(out, Not)
        assert isinstance(out.child, Exists)

    def test_t7_pushes_negated_disjunction(self):
        trace = TranslationTrace()
        out = to_enf(parse_formula("~(R(x) | S(x))"), trace)
        assert out == parse_formula("~R(x) & ~S(x)")
        assert trace.count("T7") == 1

    def test_t8_distributes_exists_over_or(self):
        trace = TranslationTrace()
        out = to_enf(parse_formula("exists x (R(x) | S(x))"), trace)
        assert isinstance(out, Or)
        assert trace.count("T8") == 1

    def test_t9_pushes_all_negative_conjunction(self):
        trace = TranslationTrace()
        out = to_enf(parse_formula("~(f(x) != y & g(x) != y)"), trace)
        assert out == parse_formula("f(x) = y | g(x) = y")
        assert trace.count("T9") == 1

    def test_negated_mixed_conjunction_kept_for_t15(self):
        # ~(R & S) stays: subtraction handles it (or T10 later)
        f = parse_formula("~(R(x) & S(x))")
        out = to_enf(f)
        assert isinstance(out, Not) and isinstance(out.child, And)

    def test_negated_exists_kept(self):
        f = parse_formula("~exists y (R2(x, y))")
        out = to_enf(f)
        assert isinstance(out, Not) and isinstance(out.child, Exists)


class TestIsEnf:
    @pytest.mark.parametrize("text,expected", [
        ("R(x) & ~S(x)", True),
        ("~(R(x) & S(x))", True),          # mixed negated conjunction is legal
        ("~(R(x) | S(x))", False),          # T7 must fire
        ("~~R(x)", False),
        ("forall y (R2(x, y))", False),
        ("exists x (R(x) | S(x))", False),  # T8 must fire
        ("x != y & R(x)", True),
        ("~exists y (R2(x, y)) & R(x)", True),
    ])
    def test_examples(self, text, expected):
        assert is_enf(parse_formula(text)) == expected

    @pytest.mark.parametrize("text", [
        "~~R(x)",
        "~(R(x) | S(x))",
        "forall y (R2(x, y))",
        "exists x (R(x) | exists y (S(y) & R2(x, y)))",
        "R(x) & forall y (~R2(x, y) | S(y))",
        "~(f(x) != y & g(x) != y) & S(x)",
        "~forall y (R2(x, y))",
        "S(x) & ~(((f(x) != y & g(x) != y) | R2(x, y)) & "
        "((h(x) != y & k(x) != y) | P(x, y)))",
    ])
    def test_to_enf_reaches_enf(self, text):
        assert is_enf(to_enf(parse_formula(text)))

    def test_to_enf_idempotent(self):
        f = to_enf(parse_formula("~(R(x) | (S(x) & forall y (T(y))))"))
        assert to_enf(f) == f


class TestSemanticPreservation:
    @pytest.mark.parametrize("text", [
        "~~R(x)",
        "~(R(x) | S(x))",
        "forall y (~R2(x, y) | S(y))",
        "exists z (R(z) | S(z)) & R(x)",
        "~(f(x) != y & g(x) != y)",
        "~forall y (R2(x, y))",
        "R(x) & ~exists y (R2(x, y) & S(y))",
    ])
    def test_enf_equivalent(self, text, small_instance, small_interp):
        f = parse_formula(text)
        enf = to_enf(f)
        universe = sorted(small_instance.active_domain())[:6]
        frees = sorted(free_variables(f))
        assert free_variables(enf) == free_variables(f)
        for values in product(universe, repeat=len(frees)):
            env = dict(zip(frees, values))
            assert (satisfies(f, env, small_instance, small_interp, universe)
                    == satisfies(enf, env, small_instance, small_interp, universe)), \
                f"ENF changed truth at {env}"
