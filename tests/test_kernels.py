"""Tests for the generated tuple kernels (:mod:`repro.engine.compile`).

Every kernel kind (filter, map, hash-join and nested-loop residuals,
anti-join, enumerate) is run through the executor at batch sizes 1, 7
and 1024 under both batch representations and held to the reference
algebra evaluator.  Function-call counts, error behaviour and the
shape-keyed kernel cache are checked directly, and the gallery's
call and row counters are pinned at 300 rows per relation.
"""

import pytest

from repro.algebra.ast import (
    AntiJoin,
    CApp,
    CConst,
    Col,
    Condition,
    Enumerate,
    Join,
    Project,
    Rel,
    Select,
)
from repro.algebra.evaluator import evaluate
from repro.data.instance import Instance
from repro.data.interpretation import UNDEFINED, Interpretation
from repro.data.relation import Relation
from repro.engine.caches import clear_engine_caches, engine_cache_info
from repro.engine.compile import compile_kernel
from repro.engine.executor import execute
from repro.errors import EvaluationError
from repro.translate.pipeline import translate_query
from repro.workloads.gallery import GALLERY, standard_gallery_interp

BATCH_SIZES = (1, 7, 1024)
REPRS = ("tuple", "column")

#: A string constant that would break the kernel if spliced into it.
AWKWARD = "it's \"quoted\"\nand } odd"


def _isqrt(v):
    if isinstance(v, int) and v >= 0:
        root = int(v ** 0.5)
        if root * root == v:
            return root
    return UNDEFINED


def _half(v):
    if isinstance(v, int) and v % 2 == 0:
        return v // 2
    return UNDEFINED


def _interp() -> Interpretation:
    return Interpretation(
        {"isqrt": _isqrt, "half": _half, "inc": lambda v: v + 1,
         "size": lambda v: len(v) if isinstance(v, str) else v},
        enumerators={"upto": lambda n: [(i,) for i in range(n)]
                     if isinstance(n, int) else []})


def _instance() -> Instance:
    return Instance({
        # str, int and float values side by side
        "M": Relation(1, [(1,), (2,), (2.5,), (-3,), ("a",), ("b",),
                          (AWKWARD,)]),
        "M2": Relation(2, [(1, "a"), (2, 2.5), (2.5, 2), ("b", "a"),
                           (4, 1), ("a", 3)]),
        "N": Relation(1, [(0,), (1,), (4,), (9,), (16,), (7,), (64,)]),
        "N2": Relation(2, [(0, 0), (4, 1), (16, 2), (9, 3), (64, 4),
                           (7, 7), (36, 1)]),
    })


def _app(name, *args):
    return CApp(name, tuple(args))


def _where(relation: str, *conds: Condition) -> Select:
    return Select(frozenset(conds), Rel(relation))


NESTED = _app("half", _app("isqrt", Col(1)))

CASES = {
    # orderings and equalities across str, int and float
    "order-int": _where("M", Condition(Col(1), "<", CConst(2))),
    "order-str": _where("M", Condition(Col(1), ">=", CConst("a"))),
    "order-float": _where("M", Condition(CConst(2.0), "<=", Col(1))),
    "eq-float": _where("M", Condition(Col(1), "=", CConst(2.5))),
    "neq-str": _where("M", Condition(Col(1), "!=", CConst("a"))),
    "cols-mixed": _where("M2", Condition(Col(1), ">", Col(2)),
                         Condition(Col(2), "!=", CConst(3))),
    "hash-residual": Join(frozenset({Condition(Col(1), "=", Col(3)),
                                     Condition(Col(2), "<", Col(4))}),
                          Rel("M2"), Rel("M2")),
    "nl-join": Join(frozenset({Condition(Col(1), "<", Col(2))}),
                    Rel("M"), Rel("M")),
    "anti-residual": AntiJoin(2, frozenset({Condition(Col(1), "=", Col(3)),
                                            Condition(Col(2), ">=", Col(4))}),
                              Rel("M2"), Rel("M2")),
    "anti-theta": AntiJoin(1, frozenset({Condition(Col(1), "<", Col(2))}),
                           Rel("M"), Rel("M")),
    # nested partial functions under =, != and <
    "partial-eq": _where("N2", Condition(NESTED, "=", Col(2))),
    "partial-neq": _where("N2", Condition(NESTED, "!=", Col(2))),
    "partial-lt": _where("N2", Condition(NESTED, "<", Col(2))),
    "partial-both": _where("N2", Condition(NESTED, "!=",
                                           _app("half", Col(2)))),
    "partial-project": Project((Col(1), NESTED), Rel("N")),
    "partial-join": Join(frozenset({Condition(Col(1), "=", Col(3)),
                                    Condition(_app("isqrt", Col(2)), "<",
                                              _app("half", Col(4)))}),
                         Rel("N2"), Rel("N2")),
    "partial-anti": AntiJoin(1, frozenset({Condition(_app("isqrt", Col(1)),
                                                     "=", Col(2))}),
                             Rel("N"), Rel("N")),
    "repeated": Project((_app("inc", Col(1)), _app("inc", Col(1))),
                        Rel("N")),
    "constant-head": Project((CConst(AWKWARD), Col(1)), Rel("N")),
    "awkward-constant": _where("M", Condition(Col(1), "=", CConst(AWKWARD))),
    "enumerate": Enumerate("upto", (_app("isqrt", Col(1)),), 1, Rel("N")),
}


@pytest.mark.parametrize("batch_repr", REPRS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("key", sorted(CASES))
def test_kernels_match_reference(key, batch_size, batch_repr):
    plan, instance, interp = CASES[key], _instance(), _interp()
    want = evaluate(plan, instance, interp)
    run = execute(plan, instance, interp, batch_size=batch_size,
                  batch_repr=batch_repr, optimize=False)
    assert run.result == want


class TestFunctionCalls:
    @pytest.mark.parametrize("batch_repr", REPRS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_repeated_application_counts_each_call(self, batch_size,
                                                    batch_repr):
        run = execute(CASES["repeated"], _instance(), _interp(),
                      batch_size=batch_size, batch_repr=batch_repr,
                      optimize=False)
        assert run.function_calls == 2 * 7

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_undefined_argument_skips_the_outer_call(self, batch_size):
        # isqrt runs on every row; half only on the 6 perfect squares
        run = execute(CASES["partial-project"], _instance(), _interp(),
                      batch_size=batch_size, batch_repr="tuple",
                      optimize=False)
        assert run.function_calls == 7 + 6
        assert run.result.rows == frozenset({(0, 0), (4, 1), (16, 2),
                                             (64, 4)})

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_conditions_short_circuit_in_sorted_order(self, batch_size):
        # "@1>9" sorts before "inc(@1)==17": inc runs on 2 rows only
        plan = _where("N", Condition(Col(1), ">", CConst(9)),
                      Condition(_app("inc", Col(1)), "=", CConst(17)))
        run = execute(plan, _instance(), _interp(), batch_size=batch_size,
                      batch_repr="tuple", optimize=False)
        assert run.function_calls == 2
        assert run.result.rows == frozenset({(16,)})

    def test_residual_calls_counted_per_candidate(self):
        # the hash join on @1 = @3 pairs each N2 row with itself only
        run = execute(CASES["partial-join"], _instance(), _interp(),
                      batch_repr="tuple", optimize=False)
        assert run.counters.comparisons == 7
        assert run.function_calls == 7 + 7

    @pytest.mark.parametrize("batch_repr", REPRS)
    def test_raising_host_function_propagates_and_is_counted(self,
                                                             batch_repr):
        def boom(v):
            raise ZeroDivisionError("no")

        interp = Interpretation({"boom": boom})
        instance = Instance({"R": Relation(1, [(1,)])})
        plan = Project((_app("boom", Col(1)),), Rel("R"))
        with pytest.raises(ZeroDivisionError):
            evaluate(plan, instance, interp)
        interp.reset_counts()
        with pytest.raises(ZeroDivisionError):
            execute(plan, instance, interp, batch_repr=batch_repr,
                    optimize=False)
        assert interp.call_count("boom") == 1


class TestColumnOutOfRange:
    PLANS = {
        "filter": _where("R", Condition(Col(3), "=", CConst(1))),
        "map": Project((Col(1), Col(3)), Rel("R")),
        "residual": Join(frozenset({Condition(Col(1), "=", Col(2)),
                                    Condition(Col(5), "<", CConst(1))}),
                         Rel("R"), Rel("R")),
    }

    @pytest.mark.parametrize("batch_repr", REPRS)
    @pytest.mark.parametrize("key", sorted(PLANS))
    def test_raises_the_evaluators_error_on_a_row(self, key, batch_repr):
        plan = self.PLANS[key]
        instance = Instance({"R": Relation(1, [(1,), (2,)])})
        with pytest.raises(EvaluationError) as reference:
            evaluate(plan, instance, _interp())
        with pytest.raises(EvaluationError) as engine:
            execute(plan, instance, _interp(), batch_repr=batch_repr,
                    optimize=False)
        assert str(engine.value) == str(reference.value)

    @pytest.mark.parametrize("batch_repr", REPRS)
    @pytest.mark.parametrize("key", sorted(PLANS))
    def test_silent_on_empty_input(self, key, batch_repr):
        instance = Instance({"R": Relation(1, [])})
        run = execute(self.PLANS[key], instance, _interp(),
                      batch_repr=batch_repr, optimize=False)
        assert len(run.result) == 0

    def test_silent_when_no_row_reaches_the_column(self):
        # "@1==99" sorts first and fails on every row
        plan = _where("R", Condition(Col(1), "=", CConst(99)),
                      Condition(Col(3), "=", CConst(1)))
        instance = Instance({"R": Relation(1, [(1,), (2,)])})
        run = execute(plan, instance, _interp(), batch_repr="tuple",
                      optimize=False)
        assert len(run.result) == 0


def _code_constants(code):
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_constants(const)
        else:
            yield const


class TestKernelCache:
    def test_constants_and_functions_never_reach_the_source(self):
        conds = frozenset({Condition(_app("size", Col(1)), "=",
                                     CConst(AWKWARD))})
        kernel = compile_kernel("filter", conds, _interp())
        constants = set(_code_constants(kernel.__code__))
        assert AWKWARD not in constants and "size" not in constants
        assert kernel([(AWKWARD,), ("x",)]) == []

    def test_one_factory_per_shape(self):
        clear_engine_caches()
        interp = _interp()
        first = compile_kernel(
            "filter", frozenset({Condition(_app("inc", Col(1)), "<",
                                       CConst(3))}), interp)
        second = compile_kernel(
            "filter", frozenset({Condition(_app("half", Col(1)), "<",
                                       CConst("z"))}), interp)
        info = engine_cache_info()["kernel"]
        assert (info["misses"], info["hits"], info["entries"]) == (1, 1, 1)
        assert first([(1,), (2,), (5,)]) == [(1,)]
        assert second([(4,), (2,), (3,)]) == []    # int < str is false
        assert interp.call_count("inc") == 3
        assert interp.call_count("half") == 3

    def test_clear_engine_caches_drops_kernels(self):
        compile_kernel("map", (Col(1),), _interp())
        clear_engine_caches()
        info = engine_cache_info()["kernel"]
        assert info == {"entries": 0, "hits": 0, "misses": 0}


def _scaled_gallery(n: int, universe: int = 4096) -> Instance:
    """The gallery's relations at ``n`` rows each (affine fills)."""
    def unary(s, o):
        return Relation(1, {((i * s + o) % universe,) for i in range(n)})

    def binary(s1, o1, s2, o2):
        return Relation(2, {((i * s1 + o1) % universe,
                             (i * s2 + o2) % universe) for i in range(n)})

    def ternary(s1, s2, s3):
        return Relation(3, {((i * s1) % universe, (i * s2 + 1) % universe,
                             (i * s3 + 2) % universe) for i in range(n)})

    return Instance({"R": unary(3, 1), "S": unary(5, 2), "T": unary(7, 3),
                     "R2": binary(3, 0, 11, 8), "S2": binary(3, 0, 11, 8),
                     "P": binary(7, 2, 17, 5), "R3": ternary(3, 5, 7),
                     "W": ternary(11, 5, 13)})


#: (function calls, intermediate rows) per gallery query at 300 rows
#: per relation on tuple batches, optimized and as translated; measured
#: on the closure-compiled engine the kernels replaced.
GALLERY_COUNTS = {
    "q1": ((600, 320), (600, 320)),
    "q2": ((0, 900), (0, 900)),
    "q3": ((300, 1290), (300, 1290)),
    "q4": ((1200, 6600), (1200, 6600)),
    "q5": ((600, 1800), (600, 1800)),
    "ex74": ((0, 322800), (0, 399900)),
    "ex_neg_exists": ((0, 1500), (0, 1500)),
    "ex_forall": ((0, 1500), (0, 1500)),
    "ex_const": ((1, 308), (1, 308)),
}


def test_gallery_counters_pinned():
    assert set(GALLERY_COUNTS) == {key for key, entry in GALLERY.items()
                                   if entry.translatable}
    instance = _scaled_gallery(300)
    interp = standard_gallery_interp()
    for key, pinned in GALLERY_COUNTS.items():
        res = translate_query(GALLERY[key].query)
        for optimize, want in zip((True, False), pinned):
            run = execute(res.plan, instance, interp, schema=res.schema,
                          optimize=optimize, batch_repr="tuple")
            got = (run.function_calls, run.intermediate_rows)
            assert got == want, (key, optimize)
