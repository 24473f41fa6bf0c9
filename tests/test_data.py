"""Unit tests for the data substrate: relations, instances,
interpretations, active domains and term closures."""

import pytest
from hypothesis import given, strategies as st

from repro.core.parser import parse_query
from repro.core.schema import DatabaseSchema
from repro.data.domain import (
    adom,
    closure_levels,
    term_closure,
    term_closure_applications,
)
from repro.data.generators import integer_universe, random_instance, random_relation
from repro.data.instance import Instance
from repro.data.interpretation import (
    Interpretation,
    TabulatedInterpretation,
    perturbed_outside,
)
from repro.data.relation import Relation
from repro.errors import EvaluationError, SchemaError
import random


class TestRelation:
    def test_rows_deduplicate(self):
        r = Relation(1, [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_arity_enforced(self):
        with pytest.raises(EvaluationError):
            Relation(2, [(1,)])

    def test_membership_and_iteration(self):
        r = Relation(2, [(1, 2)])
        assert (1, 2) in r
        assert list(r) == [(1, 2)]

    def test_union_difference_intersection(self):
        a = Relation(1, [(1,), (2,)])
        b = Relation(1, [(2,), (3,)])
        assert a.union(b) == Relation(1, [(1,), (2,), (3,)])
        assert a.difference(b) == Relation(1, [(1,)])
        assert a.intersection(b) == Relation(1, [(2,)])

    def test_set_ops_arity_mismatch(self):
        with pytest.raises(EvaluationError):
            Relation(1, [(1,)]).union(Relation(2, [(1, 2)]))

    def test_product(self):
        a = Relation(1, [(1,), (2,)])
        b = Relation(1, [(9,)])
        assert a.product(b) == Relation(2, [(1, 9), (2, 9)])

    def test_project_positions(self):
        r = Relation(3, [(1, 2, 3), (4, 5, 6)])
        assert r.project_positions([2, 0]) == Relation(2, [(3, 1), (6, 4)])

    def test_project_out_of_range(self):
        with pytest.raises(EvaluationError):
            Relation(1, [(1,)]).project_positions([1])

    def test_arity_zero_relation(self):
        t = Relation(0, [()])
        assert len(t) == 1
        assert () in t

    def test_from_values(self):
        assert Relation.from_values([1, 2]) == Relation(1, [(1,), (2,)])

    def test_active_values(self):
        assert Relation(2, [(1, "a")]).active_values() == {1, "a"}


class TestInstance:
    def test_of_infers_arity(self):
        inst = Instance.of(R=[(1, 2)], S=[3, 4])
        assert inst.relation("R").arity == 2
        assert inst.relation("S").arity == 1  # scalars wrapped

    def test_of_empty_needs_relation(self):
        with pytest.raises(EvaluationError):
            Instance.of(R=[])

    def test_with_empty(self):
        inst = Instance.of(R=[(1,)]).with_empty("S", 2)
        assert len(inst.relation("S")) == 0

    def test_unknown_relation(self):
        with pytest.raises(EvaluationError):
            Instance.of(R=[(1,)]).relation("X")

    def test_active_domain(self):
        inst = Instance.of(R=[(1, 2)], S=[(2, 9)])
        assert inst.active_domain() == {1, 2, 9}

    def test_validate_against_schema(self):
        inst = Instance.of(R=[(1, 2)])
        schema = DatabaseSchema.of({"R": 1})
        with pytest.raises(SchemaError):
            inst.validate(schema)

    def test_total_rows(self):
        inst = Instance.of(R=[(1,), (2,)], S=[(1, 2)])
        assert inst.total_rows() == 3


class TestInterpretation:
    def test_lookup_and_apply(self):
        interp = Interpretation({"f": lambda v: v + 1})
        assert interp["f"](3) == 4
        assert interp.apply("f", 5) == 6

    def test_missing_function(self):
        interp = Interpretation({})
        with pytest.raises(EvaluationError):
            interp["f"]

    def test_call_counting(self):
        interp = Interpretation({"f": lambda v: v})
        interp.apply("f", 1)
        interp.apply("f", 2)
        assert interp.call_count("f") == 2
        assert interp.call_count() == 2
        interp.reset_counts()
        assert interp.call_count() == 0

    def test_validate_against_schema(self):
        schema = DatabaseSchema.of({}, {"f": 1})
        with pytest.raises(EvaluationError):
            Interpretation({}).validate(schema)

    def test_tabulated_with_fallback(self):
        interp = TabulatedInterpretation(
            {"f": {(1,): 10}}, fallback=lambda name, args: -1)
        assert interp.apply("f", 1) == 10
        assert interp.apply("f", 99) == -1

    def test_perturbed_outside_protects_listed_args(self):
        base = Interpretation({"f": lambda v: v + 1})
        twisted = perturbed_outside(base, {(1,)}, lambda n, a: "twist")
        assert twisted.apply("f", 1) == 2
        assert twisted.apply("f", 2) == "twist"


class TestDomains:
    def test_adom_includes_query_constants(self):
        q = parse_query("{ x | R(x) & x = 42 }")
        inst = Instance.of(R=[(1,)])
        assert adom(q, inst) == {1, 42}

    def test_term_closure_level_zero_is_base(self):
        schema = DatabaseSchema.of({}, {"f": 1})
        interp = Interpretation({"f": lambda v: v + 1})
        assert term_closure([1, 2], 0, interp, schema) == {1, 2}

    def test_term_closure_grows_by_level(self):
        schema = DatabaseSchema.of({}, {"f": 1})
        interp = Interpretation({"f": lambda v: v + 1})
        levels = closure_levels([0], 3, interp, schema)
        assert [sorted(s) for s in levels] == [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]

    def test_term_closure_fixpoint_stops_early(self):
        schema = DatabaseSchema.of({}, {"f": 1})
        interp = Interpretation({"f": lambda v: v % 2})
        out = term_closure([0, 1], 10, interp, schema)
        assert out == {0, 1}

    def test_term_closure_respects_function_filter(self):
        schema = DatabaseSchema.of({}, {"f": 1, "g": 1})
        interp = Interpretation({"f": lambda v: v + 1, "g": lambda v: v + 100})
        out = term_closure([0], 1, interp, schema, function_names=["f"])
        assert out == {0, 1}

    def test_term_closure_negative_level(self):
        schema = DatabaseSchema.of({}, {"f": 1})
        interp = Interpretation({"f": lambda v: v})
        with pytest.raises(ValueError):
            term_closure([0], -1, interp, schema)

    def test_applications_cover_protection_needs(self):
        schema = DatabaseSchema.of({}, {"f": 1})
        interp = Interpretation({"f": lambda v: v + 1})
        apps = term_closure_applications([0], 2, interp, schema)
        assert ("f", (0,)) in apps
        assert ("f", (1,)) in apps


class TestGenerators:
    def test_random_relation_distinct_rows(self):
        rng = random.Random(0)
        r = random_relation(2, 50, integer_universe(10), rng)
        assert r.arity == 2
        assert len(r) == 50

    def test_random_relation_saturates(self):
        rng = random.Random(0)
        r = random_relation(1, 100, [1, 2, 3], rng)
        assert len(r) == 3

    def test_random_instance_deterministic(self):
        schema = DatabaseSchema.of({"R": 2, "S": 1})
        a = random_instance(schema, 10, integer_universe(20), seed=7)
        b = random_instance(schema, 10, integer_universe(20), seed=7)
        assert a == b

    @given(st.integers(0, 1000))
    def test_standard_functions_total_and_stable(self, value):
        from repro.data.generators import standard_functions
        schema = DatabaseSchema.of({}, {"f": 1})
        interp = standard_functions(schema, modulus=13, seed=1)
        assert interp.apply("f", value) == interp.apply("f", value)
        assert 0 <= interp.apply("f", value) < 13
