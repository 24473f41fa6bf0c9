"""Cross-module integration tests: the full public-API workflow a
downstream user would run, plus error-path coverage."""

import pytest

import repro
from repro import (
    Instance,
    Interpretation,
    NotEmAllowedError,
    evaluate,
    evaluate_query,
    parse_query,
    to_algebra_text,
    translate_query,
)


class TestPublicApiWorkflow:
    def test_readme_quickstart(self):
        q = parse_query("{ x | R(x) & exists y (f(x) = y & ~R(y)) }")
        result = translate_query(q)
        inst = Instance.of(R=[(1,), (2,)])
        F = Interpretation({"f": lambda v: v + 1})
        answer = evaluate(result.plan, inst, F, schema=result.schema)
        # f(1)=2 is in R -> 1 excluded; f(2)=3 not in R -> 2 qualifies
        assert sorted(answer.rows) == [(2,)]

    def test_version_exposed(self):
        assert repro.__version__

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_composed_pipeline_with_schema(self):
        from repro.core.schema import DatabaseSchema
        schema = DatabaseSchema.of({"EMP": 2}, {"bump": 1})
        q = parse_query("{ n, b | exists s (EMP(n, s) & bump(s) = b) }", schema)
        res = translate_query(q, schema=schema)
        inst = Instance.of(EMP=[("ann", 10), ("bob", 20)])
        F = Interpretation({"bump": lambda s: s + 5 if isinstance(s, int) else 0})
        out = evaluate(res.plan, inst, F, schema=res.schema)
        assert out.rows == {("ann", 15), ("bob", 25)}

    def test_refusal_has_actionable_reasons(self):
        with pytest.raises(NotEmAllowedError) as err:
            translate_query(parse_query("{ x, y | R(x) & f(y) = x }"))
        assert any("y" in reason for reason in err.value.reasons)

    def test_reference_and_plan_agree_via_public_api(self):
        q = parse_query("{ x, y | (R(x) & f(x) = y) | (S(y) & g(y) = x) }")
        inst = Instance.of(R=[(1,), (4,)], S=[(2,)])
        F = Interpretation({"f": lambda v: v * 2, "g": lambda v: v * 3})
        res = translate_query(q)
        assert evaluate(res.plan, inst, F, schema=res.schema) == evaluate_query(q, inst, F)

    def test_plan_text_is_paper_notation(self):
        res = translate_query(parse_query("{ g(f(x)) | R(x) }"))
        assert to_algebra_text(res.plan) == "project([g(f(@1))], R)"


class TestEndToEndWalkthrough:
    """The q4 walkthrough as a single integration scenario: safety
    check, trace inspection, ablation, execution."""

    def test_q4_full_story(self):
        from repro.errors import TransformationStuckError
        from repro.workloads.gallery import (
            GALLERY,
            gallery_instance,
            standard_gallery_interp,
        )
        entry = GALLERY["q4"]
        q = entry.query

        # 1. q4 is em-allowed
        from repro.safety import em_allowed_query
        assert em_allowed_query(q)

        # 2. it refuses to translate without T10 ...
        with pytest.raises(TransformationStuckError):
            translate_query(q, enable_t10=False)

        # 3. ... translates with it, using T10 exactly once
        res = translate_query(q)
        assert res.trace.count("T10") == 1

        # 4. and the plan computes the right answer on data
        inst, F = gallery_instance(), standard_gallery_interp()
        assert evaluate(res.plan, inst, F, schema=res.schema) == evaluate_query(q, inst, F)

        # 5. the physical engine agrees too
        from repro.engine import execute
        assert execute(res.plan, inst, F, schema=res.schema).result == \
            evaluate_query(q, inst, F)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                if obj.__module__ == "repro.errors":
                    assert issubclass(obj, errors.ReproError), name

    def test_parse_error_position_context(self):
        from repro.errors import ParseError
        err = ParseError("boom", position=3, text="R(x) &&")
        assert err.position == 3
        assert "line 1, column 4" in str(err)
        assert "R(x) &&" in str(err)       # the excerpt line
        assert "   ^" in str(err)          # the caret under column 4
        assert err.span is not None and (err.span.line, err.span.column) == (1, 4)
