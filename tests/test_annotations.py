"""Tests for finiteness annotations — the [RBS87]/[Coh86] extension the
paper's conclusion points to: "if u, v, w range over non-negative
integers, then R(w) and u + v = w bounds all of u, v, w"."""

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.printer import to_algebra_text
from repro.core.parser import parse_query
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine.executor import execute
from repro.errors import EvaluationError, NotEmAllowedError, SchemaError
from repro.finds.annotations import (
    FunctionAnnotation,
    nonneg_sum_registry,
)
from repro.finds.closure import entails
from repro.finds.find import find
from repro.safety.bd import bd, clear_bd_cache
from repro.safety.em_allowed import em_allowed
from repro.translate.pipeline import translate_query


def _interp() -> Interpretation:
    return Interpretation(
        {"plus": lambda u, v: u + v},
        enumerators={
            "plus_decompositions": lambda w: (
                ((u, w - u) for u in range(w + 1))
                if isinstance(w, int) and w >= 0 else ()
            ),
            "plus_second_arg": lambda w, u: (
                ((w - u,),)
                if isinstance(w, int) and isinstance(u, int) and w - u >= 0
                else ()
            ),
        },
    )


@pytest.fixture
def registry():
    return nonneg_sum_registry()


@pytest.fixture
def inst():
    return Instance.of(R=[(2,), (4,)], S=[(1,), (3,)])


class TestAnnotationDeclarations:
    def test_positions_validated(self):
        with pytest.raises(SchemaError):
            FunctionAnnotation("f", 1, frozenset({0}), frozenset({5}), "e")

    def test_known_derived_disjoint(self):
        with pytest.raises(SchemaError):
            FunctionAnnotation("f", 1, frozenset({0}), frozenset({0}), "e")

    def test_must_derive_something(self):
        with pytest.raises(SchemaError):
            FunctionAnnotation("f", 1, frozenset({0, 1}), frozenset(), "e")

    def test_registry_lookup_and_hash(self, registry):
        assert len(registry.for_function("plus")) == 2
        assert registry.for_function("other") == ()
        assert hash(registry) == hash(nonneg_sum_registry())
        assert registry == nonneg_sum_registry()

    def test_str_rendering(self, registry):
        texts = [str(a) for a in registry]
        assert any("yields" in t for t in texts)


class TestAnnotatedBd:
    def test_paper_conclusion_find(self, registry):
        clear_bd_cache()
        f = parse_query("{ u, v, w | R(w) & plus(u, v) = w }").body
        deps = bd(f, registry)
        assert entails(deps, find("", "u v w"))

    def test_without_annotations_unbounded(self):
        clear_bd_cache()
        f = parse_query("{ u, v, w | R(w) & plus(u, v) = w }").body
        deps = bd(f)
        assert not entails(deps, find("", "u"))

    def test_partial_inverse_direction(self, registry):
        clear_bd_cache()
        from repro.core.parser import parse_formula
        f = parse_formula("R(w) & S(u) & plus(u, v) = w")
        deps = bd(f, registry)
        assert entails(deps, find("", "v"))


class TestAnnotatedSafety:
    def test_em_allowed_only_with_annotations(self):
        body = parse_query("{ u, v, w | R(w) & plus(u, v) = w }").body
        assert not em_allowed(body)
        assert em_allowed(body, annotations=nonneg_sum_registry())

    def test_translation_refused_without_annotations(self):
        q = parse_query("{ u, v, w | R(w) & plus(u, v) = w }")
        with pytest.raises(NotEmAllowedError):
            translate_query(q)


class TestAnnotatedTranslation:
    def test_conclusion_example_end_to_end(self, registry, inst):
        q = parse_query("{ u, v, w | R(w) & plus(u, v) = w }")
        res = translate_query(q, annotations=registry)
        assert "enumerate[plus_decompositions]" in to_algebra_text(res.plan)
        interp = _interp()
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        expected = {
            (u, w - u, w) for w in (2, 4) for u in range(w + 1)
        }
        assert out.rows == expected

    def test_trace_records_annotated_atom(self, registry, inst):
        q = parse_query("{ u, v, w | R(w) & plus(u, v) = w }")
        res = translate_query(q, annotations=registry)
        assert res.trace.count("T16*") == 1

    def test_partial_inverse_used_when_more_is_known(self, registry, inst):
        # u is bounded by S: the compiler prefers the plain modes, but
        # with both u and w bounded only the {0,1}->{2} annotation fits.
        q = parse_query("{ u, v, w | R(w) & S(u) & plus(u, v) = w }")
        res = translate_query(q, annotations=registry)
        interp = _interp()
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        expected = {
            (u, w - u, w)
            for w in (2, 4) for u in (1, 3) if w - u >= 0
        }
        assert out.rows == expected

    def test_engine_agrees(self, registry, inst):
        q = parse_query("{ u, v, w | R(w) & plus(u, v) = w }")
        res = translate_query(q, annotations=registry)
        interp = _interp()
        via_sets = evaluate(res.plan, inst, interp, schema=res.schema)
        via_engine = execute(res.plan, inst, interp, schema=res.schema).result
        assert via_sets == via_engine

    def test_missing_enumerator_is_reported(self, registry, inst):
        q = parse_query("{ u, v, w | R(w) & plus(u, v) = w }")
        res = translate_query(q, annotations=registry)
        bare = Interpretation({"plus": lambda u, v: u + v})
        with pytest.raises(EvaluationError):
            evaluate(res.plan, inst, bare, schema=res.schema)

    def test_annotated_value_feeding_negation(self, registry, inst):
        # decompositions whose first component is NOT in S
        q = parse_query("{ u, v, w | R(w) & plus(u, v) = w & ~S(u) }")
        res = translate_query(q, annotations=registry)
        interp = _interp()
        out = evaluate(res.plan, inst, interp, schema=res.schema)
        expected = {
            (u, w - u, w)
            for w in (2, 4) for u in range(w + 1) if u not in (1, 3)
        }
        assert out.rows == expected

    def test_enumerate_survives_simplifier(self, registry):
        from repro.algebra.ast import Enumerate, walk_algebra
        q = parse_query("{ u, v, w | R(w) & plus(u, v) = w }")
        res = translate_query(q, annotations=registry)
        assert any(isinstance(n, Enumerate) for n in walk_algebra(res.plan))
