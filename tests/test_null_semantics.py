"""UNDEFINED semantics pinned on the reference evaluator and the engine.

The calculus fixes one rule (``compare_values``): a comparison with an
UNDEFINED operand is *false* for ``=`` and every ordering and *true*
for ``!=``; a constructed row containing UNDEFINED is dropped.  This is
not SQL's three-valued NULL logic (``NULL = NULL`` is unknown,
``NULL <> x`` is unknown, and ``EXCEPT``/``NOT EXISTS`` treat NULLs as
*equal* for duplicate elimination).  Every test here builds a plan
whose answer depends on exactly one place where the two rules part,
and asserts that

* the algebra reference evaluator (:func:`repro.algebra.evaluator.evaluate`) and
* the batch executor (:func:`repro.engine.executor.execute`), under both
  batch representations at batch sizes 1, 7 and 1024,

return the identical, hand-computed relation.
"""

from __future__ import annotations

import pytest

from repro.algebra.ast import (
    AntiJoin,
    CApp,
    CConst,
    Col,
    Condition,
    Diff,
    Join,
    Lit,
    Project,
    Rel,
    Select,
)
from repro.algebra.evaluator import evaluate
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation, partial_function
from repro.data.relation import Relation
from repro.engine.executor import execute

#: f is partial: UNDEFINED on even arguments, identity + 10 on odd.
#: g is partial the other way round, so f and g never agree on where
#: they are defined — Diff/anti-join tests exploit that asymmetry.
def _interp() -> Interpretation:
    return Interpretation({
        "f": partial_function(lambda v: None if v % 2 == 0 else v + 10),
        "g": partial_function(lambda v: None if v % 2 == 1 else v + 10),
        "ident": lambda v: v,
    }, name="nulls")


def _instance() -> Instance:
    return Instance({
        "R": Relation(1, [(1,), (2,), (3,), (4,)]),
        "S": Relation(1, [(11,), (12,), (14,)]),
        "MIX": Relation(1, [(1,), (3,), ("a",)]),
    })


def _agree(plan, expected_rows, optimize=None):
    """Reference evaluator and executor must both return ``expected_rows``."""
    instance = _instance()

    reference = evaluate(plan, instance, _interp())
    assert set(reference.rows) == set(expected_rows), \
        f"reference disagrees with hand computation: {sorted(reference.rows, key=repr)}"

    for batch_repr in ("tuple", "column"):
        for batch_size in (1, 7, 1024):
            run = execute(plan, instance, _interp(), optimize=optimize,
                          batch_repr=batch_repr, batch_size=batch_size)
            assert run.result == reference, \
                f"executor diverged ({batch_repr}, {batch_size} rows per " \
                f"batch): {sorted(run.result.rows, key=repr)}"


def _f(col: int) -> CApp:
    return CApp("f", (Col(col),))


def _g(col: int) -> CApp:
    return CApp("g", (Col(col),))


class TestComparisonMatrix:
    """All six operators against an UNDEFINED operand.

    ``f`` is undefined on R's even rows {2, 4}; defined rows map to
    {11, 13}.  The comparison target 13 = f(3) makes every operator's
    defined-case answer non-trivial too.
    """

    CASES = [
        # op, expected surviving rows of R
        ("=",  {(3,)}),                 # f(3) = 13 only; UNDEFINED = x is false
        ("!=", {(1,), (2,), (4,)}),     # UNDEFINED != x is TRUE (2 and 4 survive)
        ("<",  {(1,)}),                 # f(1) = 11 < 13; UNDEFINED orders false
        ("<=", {(1,), (3,)}),
        (">",  set()),
        (">=", {(3,)}),
    ]

    @pytest.mark.parametrize("op,expected", CASES,
                             ids=[op for op, _ in CASES])
    def test_operator_with_undefined_operand(self, op, expected):
        plan = Select(frozenset({Condition(_f(1), op, CConst(13))}),
                      Rel("R"))
        _agree(plan, expected)

    @pytest.mark.parametrize("op,expected", [
        ("=", set()),                   # UNDEFINED = UNDEFINED is still false
        ("!=", {(1,), (2,), (3,), (4,)}),  # and != is still true
    ])
    def test_undefined_on_both_sides(self, op, expected):
        # f is undefined on evens, g on odds — f(x) vs g(x) always has
        # at least one UNDEFINED side, so the answer is pure null rule.
        plan = Select(frozenset({Condition(_f(1), op, _g(1))}), Rel("R"))
        _agree(plan, expected)

    def test_mixed_type_ordering_is_false_not_an_error(self):
        # MIX holds ints and a string: Python raises TypeError on
        # int < str, but the calculus says false — and SQL would
        # happily order across types.
        plan = Select(frozenset({Condition(Col(1), "<", CConst(2))}),
                      Rel("MIX"))
        _agree(plan, {(1,)})


class TestJoinKeys:
    def test_undefined_join_key_produces_no_matches(self):
        # f(x) = s joins R to S: f undefined on {2, 4} so only
        # (1, 11) and (3, 13) could match; S holds 11 but not 13.
        plan = Join(frozenset({Condition(_f(1), "=", Col(2))}),
                    Rel("R"), Rel("S"))
        _agree(plan, {(1, 11)})

    def test_undefined_inequality_join_key_matches_everything(self):
        # f(x) != s is TRUE whenever f(x) is UNDEFINED: the even rows
        # of R pair with every row of S.
        plan = Join(frozenset({Condition(_f(1), "!=", Col(2))}),
                    Rel("R"), Rel("S"))
        expected = {(x, s) for x in (2, 4) for s in (11, 12, 14)}
        expected |= {(1, 12), (1, 14)}          # f(1)=11 excludes (1,11)
        expected |= {(3, 11), (3, 12), (3, 14)}  # f(3)=13 not in S
        _agree(plan, expected)


class TestProjectionDropsUndefined:
    def test_undefined_head_rows_are_dropped(self):
        # { f(x) | R(x) }: rows where f is undefined vanish instead of
        # becoming NULL rows.
        plan = Project((_f(1),), Rel("R"))
        _agree(plan, {(11,), (13,)})

    def test_no_nulls_ever_escape_to_the_answer(self):
        plan = Project((_f(1), _g(1)), Rel("R"))
        # f and g are never both defined: the answer must be empty,
        # not full of half-NULL rows.
        _agree(plan, set())


class TestDifferenceAndAntiJoin:
    """The EXCEPT / NOT EXISTS NULL traps.

    In SQL, ``EXCEPT`` and ``IN`` treat two NULLs as duplicates, so a
    NULL-producing subtrahend could silently delete rows.  Here an
    UNDEFINED value never reaches a difference (projection drops it),
    and these tests prove the composed behavior equals the calculus.
    """

    def test_difference_with_partial_functions(self):
        # {f(x) | R} = {11, 13};  {g(x) | R} = {12, 14};  disjoint here.
        plan = Diff(Project((_f(1),), Rel("R")),
                    Project((_g(1),), Rel("R")))
        _agree(plan, {(11,), (13,)})

    def test_difference_removes_only_defined_matches(self):
        # {f(x) | R} minus S: S = {11, 12, 14} removes 11, keeps 13.
        plan = Diff(Project((_f(1),), Rel("R")), Rel("S"))
        _agree(plan, {(13,)})

    def test_anti_join_shape_with_partial_key(self):
        # R rows with no S partner under f(x) = s — the Diff shape the
        # planner runs as an anti-join (NOT EXISTS in SQL).  An
        # UNDEFINED key matches nothing, so 2 and 4 survive alongside 3.
        context = Rel("R")
        probe = Project((Col(1),),
                        Join(frozenset({Condition(_f(1), "=", Col(2))}),
                             context, Rel("S")))
        plan = Diff(context, probe)
        _agree(plan, {(2,), (3,), (4,)})
        # the same answer must hold with the optimizer free to rewrite
        _agree(plan, {(2,), (3,), (4,)}, optimize=True)
        # and for the anti-join node the simplifier makes of the shape,
        # which runs as an anti-join with the optimizer off too
        anti = AntiJoin(1, frozenset({Condition(_f(1), "=", Col(2))}),
                        context, Rel("S"))
        _agree(anti, {(2,), (3,), (4,)})
        _agree(anti, {(2,), (3,), (4,)}, optimize=False)

    ANTI_JOINS = [
        # hash key @1==@2 plus the residual @2 != 3: only 3 finds no
        # partner that passes the residual
        ("residual", AntiJoin(1, frozenset({
            Condition(Col(1), "=", Col(2)),
            Condition(Col(2), "!=", CConst(3))}), Rel("R"), Rel("R")),
         {(3,)}),
        # no key at all: rows of R with no larger row of R
        ("theta", AntiJoin(1, frozenset({Condition(Col(1), "<", Col(2))}),
                           Rel("R"), Rel("R")),
         {(4,)}),
        # f(x) > s: f(1) = 11 has no smaller S row, f(3) = 13 has; the
        # UNDEFINED f(2), f(4) order false, so they match nothing
        ("partial", AntiJoin(1, frozenset({Condition(_f(1), ">", Col(2))}),
                             Rel("R"), Rel("S")),
         {(1,), (2,), (4,)}),
        # g(x) != s holds wherever g is UNDEFINED: the odd rows match
        # every S row and go; g(2) = 12 and g(4) = 14 differ from some
        # S row, so every row of R is excluded
        ("partial-neq", AntiJoin(1, frozenset({Condition(_g(1), "!=",
                                                         Col(2))}),
                                 Rel("R"), Rel("S")),
         set()),
        # the right input is empty only at run time: nothing is excluded
        ("empty-right", AntiJoin(1, frozenset({Condition(Col(1), "=",
                                                         Col(2))}),
                                 Rel("R"), Select(frozenset({Condition(
                                     Col(1), "=", CConst(99))}), Rel("S"))),
         {(1,), (2,), (3,), (4,)}),
        # an arity-0 left input (R is non-empty); the condition sees
        # only S's column, and no S row exceeds 14
        ("arity-0-left", AntiJoin(0, frozenset({Condition(Col(1), ">",
                                                          CConst(14))}),
                                  Project((), Rel("R")), Rel("S")),
         {()}),
        ("arity-0-left-excluded",
         AntiJoin(0, frozenset({Condition(Col(1), "=", CConst(12))}),
                  Lit(0, frozenset({()})), Rel("S")),
         set()),
    ]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("plan,expected",
                             [(p, e) for _, p, e in ANTI_JOINS],
                             ids=[k for k, _, _ in ANTI_JOINS])
    def test_anti_join_node(self, plan, expected, optimize):
        _agree(plan, expected, optimize=optimize)
