"""Tests for the bd analysis: unit tests of each rule plus the semantic
soundness property (phi |= bd(phi), checked via universe-enlargement
stability on finite instances)."""

from itertools import product

import pytest

from repro.core.formulas import free_variables
from repro.core.parser import parse_formula
from repro.finds.closure import entails
from repro.finds.find import find
from repro.safety.bd import bd, bd_bounded, bd_naive
from repro.semantics.eval_calculus import satisfies


class TestAtomRules:
    def test_relation_atom_bounds_top_level_vars(self):
        assert bd_bounded(parse_formula("R2(x, y)")) == {"x", "y"}

    def test_function_argument_not_recoverable(self):
        # B1: R(f(x), y) bounds y but not x (no inverses)
        f = parse_formula("S2(f(x), y)")
        assert bd_bounded(f) == {"y"}

    def test_equality_constant(self):
        assert bd_bounded(parse_formula("x = 3")) == {"x"}

    def test_equality_function_direction(self):
        deps = bd(parse_formula("f(x) = y"))
        assert entails(deps, find("x", "y"))
        assert not entails(deps, find("y", "x"))

    def test_equality_variable_both_directions(self):
        deps = bd(parse_formula("x = y"))
        assert entails(deps, find("x", "y"))
        assert entails(deps, find("y", "x"))

    def test_equality_two_function_terms_gives_nothing(self):
        assert bd(parse_formula("f(x) = g(y)")) == frozenset()

    def test_self_equality_trivial(self):
        assert bd(parse_formula("x = f(x)")) == frozenset()


class TestConnectiveRules:
    def test_conjunction_unions_and_closes(self):
        deps = bd(parse_formula("R(x) & f(x) = y"))
        assert entails(deps, find("", "x y"))

    def test_disjunction_intersects(self):
        deps = bd(parse_formula("R2(x, y) | S(x)"))
        assert entails(deps, find("", "x"))
        assert not entails(deps, find("", "y"))

    def test_disjunction_common_relative_dependency(self):
        deps = bd(parse_formula("f(x) = y | g(x) = y"))
        assert entails(deps, find("x", "y"))

    def test_negated_atom_gives_nothing(self):
        assert bd(parse_formula("~R(x)")) == frozenset()

    def test_inequality_is_negative(self):
        # difference (b) from [GT91]: t1 != t2 carries no bounding info
        assert bd(parse_formula("f(x) != y")) == frozenset()

    def test_double_negation_recovers_equality(self):
        deps = bd(parse_formula("~(f(x) != y)"))
        assert entails(deps, find("x", "y"))

    def test_negated_conjunction_through_pushnot(self):
        # ~(f(x) != y & g(x) != y) == (f(x)=y | g(x)=y)
        deps = bd(parse_formula("~(f(x) != y & g(x) != y)"))
        assert entails(deps, find("x", "y"))

    def test_exists_projects(self):
        # B10: close then drop dependencies mentioning quantified vars
        deps = bd(parse_formula("exists x (R(x) & f(x) = y)"))
        assert entails(deps, find("", "y"))
        assert all("x" not in d.variables for d in deps)

    def test_forall_projects(self):
        deps = bd(parse_formula("forall z (R2(x, y) & S(z))"))
        assert entails(deps, find("", "x y"))

    def test_exists_loses_relative_dependency(self):
        # x -> y mentions x; after exists x nothing remains
        assert bd(parse_formula("exists x (f(x) = y)")) == frozenset()


class TestPaperFormulas:
    def test_flagship(self):
        f = parse_formula("R(x) & exists y (f(x) = y & ~R(y))")
        assert bd_bounded(f) == {"x"}

    def test_q5(self):
        f = parse_formula("(R(x) & f(x) = y) | (S(y) & g(y) = x)")
        assert bd_bounded(f) == {"x", "y"}

    def test_q4_negation_recovery(self):
        f = parse_formula(
            "S(x) & ~(((f(x) != y & g(x) != y) | R2(x, y)) & "
            "((h(x) != y & k(x) != y) | P(x, y)))")
        assert bd_bounded(f) == {"x", "y"}


class TestNaiveAgreement:
    @pytest.mark.parametrize("text", [
        "R(x) & f(x) = y",
        "R2(x, y) | S(x)",
        "f(x) = y | g(x) = y",
        "exists x (R(x) & f(x) = y)",
        "R(x) & exists y (f(x) = y & ~R(y))",
    ])
    def test_bd_naive_equivalent_to_bd(self, text):
        f = parse_formula(text)
        fast, slow = bd(f), bd_naive(f)
        from repro.finds.closure import equivalent_covers
        assert equivalent_covers(fast, slow)

    @pytest.mark.parametrize("text", [
        "R2(x, y) | S(x)",
        "f(x) = y | g(x) = y",
    ])
    def test_naive_is_never_smaller(self, text):
        f = parse_formula(text)
        from repro.finds.covers import cover_size
        assert cover_size(bd(f)) <= cover_size(bd_naive(f))


SOUNDNESS_FORMULAS = [
    "R(x)",
    "R2(x, y)",
    "S2(f(x), y)",
    "x = 3",
    "f(x) = y",
    "R(x) & f(x) = y",
    "R2(x, y) | S(x)",
    "R(x) & exists y (f(x) = y & ~R(y))",
    "(R(x) & f(x) = y) | (S(y) & g(y) = x)",
    "~(f(x) != y & g(x) != y)",
    "exists z (R(z) & f(z) = x)",
]


class TestSoundness:
    """phi |= bd(phi), finitely witnessed: adding fresh domain elements
    must not add new target-variable combinations for old source
    fixings.  (On a finite universe 'finite' is vacuous; stability under
    enlargement is the observable consequence.)"""

    @pytest.mark.parametrize("text", SOUNDNESS_FORMULAS)
    def test_bd_stable_under_universe_enlargement(self, text,
                                                  small_instance, small_interp):
        f = parse_formula(text)
        frees = sorted(free_variables(f))
        base = sorted(small_instance.active_domain() | {0, 3})[:6]
        extended = base + ["fresh1", "fresh2"]

        def sat(universe):
            out = set()
            for values in product(universe, repeat=len(frees)):
                env = dict(zip(frees, values))
                if satisfies(f, env, small_instance, small_interp, universe):
                    out.add(tuple(values))
            return out

        s_base = sat(base)
        s_ext = sat(extended)

        for dep in bd(f):
            lhs = sorted(dep.lhs)
            rhs = sorted(dep.rhs)
            li = [frees.index(v) for v in lhs]
            ri = [frees.index(v) for v in rhs]

            def group(rows, universe_filter):
                out: dict[tuple, set] = {}
                for row in rows:
                    key = tuple(row[i] for i in li)
                    if all(k in universe_filter for k in key):
                        out.setdefault(key, set()).add(tuple(row[i] for i in ri))
                return out

            g_base = group(s_base, set(base))
            g_ext = group(s_ext, set(base))
            for key, values in g_ext.items():
                assert values == g_base.get(key, set()), (
                    f"bd unsound for {dep} on {text}: enlarging the universe "
                    f"changed the {rhs} possibilities for {lhs}={key}"
                )
