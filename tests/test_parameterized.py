"""Tests for parameterized queries — the Section 9(c) 'em-allowed for X'
generalization and run-time parameter binding."""

import pytest

from repro.algebra.ast import Col, Enumerate, Lit, Params, Product, walk_algebra
from repro.algebra.evaluator import evaluate
from repro.core.parser import parse_formula
from repro.core.schema import DatabaseSchema
from repro.core.terms import Var
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine.executor import execute
from repro.errors import EvaluationError, FormulaError, NotEmAllowedError
from repro.semantics.eval_calculus import evaluate_query
from repro.translate.parameterized import (
    ParameterizedQuery,
    bind_parameters,
    parameterized_query,
    translate_parameterized,
)

SCHEMA = DatabaseSchema.of({"EMP": 2, "AUDIT": 1}, {"bump": 1})


@pytest.fixture
def inst():
    return Instance.of(
        EMP=[("ann", 1000), ("bob", 2000), ("cid", 3000)],
        AUDIT=[(2500,)],
    )


@pytest.fixture
def interp():
    return Interpretation({
        "bump": lambda s: s + 500 if isinstance(s, int) else 0,
    })


class TestConstruction:
    def test_requires_parameters(self):
        with pytest.raises(FormulaError):
            ParameterizedQuery((), (Var("x"),), parse_formula("R(x)"))

    def test_free_vars_partition(self):
        with pytest.raises(FormulaError):
            parameterized_query(["lo"], ["n"], "EMP(n, s)", SCHEMA)  # s dangling

    def test_param_output_clash(self):
        with pytest.raises(FormulaError):
            parameterized_query(["n"], ["n"], "exists s (EMP(n, s))", SCHEMA)

    def test_as_plain_query_prepends_params(self):
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        plain = pq.as_plain_query()
        assert plain.head[0] == Var("lo")
        assert plain.arity == 2

    def test_str_mentions_params(self):
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        assert "params: lo" in str(pq)


class TestSafetyForParams:
    def test_em_allowed_for_params_only(self):
        # "s > lo" bounds nothing; EMP bounds n, s — fine given lo
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        assert result.plan is not None

    def test_constructive_from_parameter(self):
        # output computed FROM the parameter: em-allowed only for {p}
        pq = parameterized_query(["p"], ["b"], "bump(p) = b", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        assert result.plan is not None

    def test_not_em_allowed_even_for_params(self):
        pq = parameterized_query(["p"], ["y"], "bump(y) = p", SCHEMA)
        with pytest.raises(NotEmAllowedError):
            translate_parameterized(pq, SCHEMA)


class TestBindingAndEvaluation:
    def test_unbound_params_refuse_evaluation(self, inst, interp):
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        assert any(isinstance(n, Params) for n in walk_algebra(result.plan))
        with pytest.raises(EvaluationError):
            evaluate(result.plan, inst, interp, schema=result.schema)
        with pytest.raises(EvaluationError):
            execute(result.plan, inst, interp, schema=result.schema)

    def test_bound_single_parameter(self, inst, interp):
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        plan = bind_parameters(result.plan, [(1500,)])
        assert not any(isinstance(n, Params) for n in walk_algebra(plan))
        out = evaluate(plan, inst, interp, schema=result.schema)
        assert out.rows == {(1500, "bob"), (1500, "cid")}

    def test_batch_binding(self, inst, interp):
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        plan = bind_parameters(result.plan, [(1500,), (2500,)])
        out = evaluate(plan, inst, interp, schema=result.schema)
        assert out.rows == {
            (1500, "bob"), (1500, "cid"), (2500, "cid"),
        }

    def test_function_of_parameter(self, inst, interp):
        pq = parameterized_query(["p"], ["b"], "bump(p) = b", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        plan = bind_parameters(result.plan, [(100,), (200,)])
        out = evaluate(plan, inst, interp, schema=result.schema)
        assert out.rows == {(100, 600), (200, 700)}

    def test_parameter_feeding_negation(self, inst, interp):
        # names whose bumped salary is NOT audited, with the audit
        # threshold value supplied as a parameter-joined atom
        pq = parameterized_query(
            ["cap"], ["n"],
            "exists s (EMP(n, s) & s < cap & ~AUDIT(bump(s)))", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        plan = bind_parameters(result.plan, [(10_000,)])
        out = evaluate(plan, inst, interp, schema=result.schema)
        # bump(2000)=2500 is audited -> bob excluded
        assert out.rows == {(10_000, "ann"), (10_000, "cid")}

    def test_agrees_with_reference_semantics(self, inst, interp):
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        # reference: evaluate the plain query (params promoted to
        # outputs) over a universe containing the parameter value,
        # then restrict
        value = 1500
        plan = bind_parameters(result.plan, [(value,)])
        got = evaluate(plan, inst, interp, schema=result.schema)
        plain = pq.as_plain_query()
        universe = sorted(inst.active_domain() | {value}, key=repr)
        want = {
            row for row in
            evaluate_query(plain, inst, interp, universe=universe).rows
            if row[0] == value
        }
        assert got.rows == want

    def test_engine_agrees(self, inst, interp):
        pq = parameterized_query(["lo"], ["n"],
                                 "exists s (EMP(n, s) & s > lo)", SCHEMA)
        result = translate_parameterized(pq, SCHEMA)
        plan = bind_parameters(result.plan, [(999,), (2000,)])
        via_sets = evaluate(plan, inst, interp, schema=result.schema)
        via_engine = execute(plan, inst, interp, schema=result.schema).result
        assert via_sets == via_engine

    def test_binds_below_enumerate_and_product(self):
        bound = Lit(1, frozenset({(3,)}))
        assert bind_parameters(Enumerate("e", (Col(1),), 1, Params(1)),
                               [(3,)]) == Enumerate("e", (Col(1),), 1, bound)
        assert bind_parameters(Product(Params(1), Params(1)), [(3,)]) == \
            Product(bound, bound)
