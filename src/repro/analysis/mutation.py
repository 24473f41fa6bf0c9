"""Seeded rewrite-mutation harness: prove the validator catches lies.

A translation validator is only worth its overhead if it actually
rejects unsound rewrites.  This module provides the adversarial half of
that argument: it records real optimizer runs over a deterministic
workload, *corrupts* one recorded :class:`~repro.engine.rewrite.RewriteStep`
(or the final plan, or the shared-subplan set) per trial with a seeded
mutation operator, and checks that
:func:`repro.analysis.validate.validate_rewrites` reports an
error-severity diagnostic naming the offending rule at the corrupted
step's path.

The mutation operators mirror the ways a rewrite pass goes wrong in
practice:

==========================  =============================================
operator                    injected unsoundness
==========================  =============================================
flip-fold-decision          constant comparison decided the wrong way
wrong-arity-empty           empty-fold replacement has the wrong width
drop-pushed-condition       a pushed selection condition disappears
shift-pushed-column         a pushed condition references the wrong column
scramble-prune              column-prune projection remapped wrongly
permute-restore             reorder/swap restoring projection scrambled
retarget-leaf               join reorder swaps in a different relation
widen-root                  the final plan gained an output column
fake-shared                 a "shared" subplan that never occurs twice
==========================  =============================================

:func:`run_mutation_harness` applies every operator to every applicable
recorded step and returns a :class:`MutationReport` with the per-trial
records and the overall catch rate; ``render()`` produces the markdown
artifact CI uploads.  The test suite asserts the catch rate stays at or
above 95% (it is designed to be 100%).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.algebra.ast import (
    AlgebraExpr,
    AntiJoin,
    CConst,
    Col,
    ColExpr,
    Condition,
    Diff,
    Join,
    Lit,
    Project,
    Rel,
    Select,
    Union,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.validate import validate_rewrites
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.engine.rewrite import OptimizationResult, RewriteStep, optimize_plan
from repro.engine.stats import collect_stats

__all__ = [
    "MutationRecord",
    "MutationReport",
    "run_mutation_harness",
    "workload_runs",
]

#: Relation arities of the harness workload.
CATALOG = {"R": 2, "S": 2, "T": 1, "U": 2}


# ---------------------------------------------------------------------------
# Workload: deterministic optimizer runs covering every recorded rule
# ---------------------------------------------------------------------------

def _workload_instance(rng: random.Random) -> Instance:
    def rows(arity: int, n: int, span: int) -> set[tuple]:
        return {tuple(rng.randrange(span) for _ in range(arity))
                for _ in range(n)}

    return Instance({
        "R": Relation(2, rows(2, 40, 25)),
        "S": Relation(2, rows(2, 12, 25)),
        "T": Relation(1, rows(1, 4, 25)),
        "U": Relation(2, rows(2, 30, 25)),
    })


def _workload_plans() -> list[AlgebraExpr]:
    eq = lambda a, b: Condition(Col(a), "=", Col(b))  # noqa: E731
    join_chain = Project(
        (Col(1), Col(4)),
        Join(frozenset({eq(2, 3), eq(4, 5)}),
             Join(frozenset(), Rel("R"), Rel("S")), Rel("T")))
    tautology = Select(
        frozenset({Condition(CConst(1), "=", CConst(1)), eq(1, 2)}),
        Rel("R"))
    empty_join = Project(
        (Col(1),),
        Join(frozenset({eq(2, 3)}), Rel("R"), Lit(1, frozenset())))
    select_union = Select(
        frozenset({Condition(Col(1), "=", CConst(5))}),
        Union(Rel("R"), Rel("U")))
    repeated = Union(
        Join(frozenset({eq(1, 3)}), Rel("R"), Rel("S")),
        Join(frozenset({eq(1, 3)}), Rel("R"), Rel("S")))
    anti_empty = AntiJoin(2, frozenset({eq(1, 3)}), Rel("R"),
                          Lit(2, frozenset()))
    return [join_chain, tautology, empty_join, select_union, repeated,
            anti_empty]


def workload_runs(seed: int = 0) -> list[tuple[AlgebraExpr,
                                               OptimizationResult]]:
    """Record one optimizer run per workload plan, deterministically."""
    rng = random.Random(seed)
    stats = collect_stats(_workload_instance(rng))
    runs = []
    for plan in _workload_plans():
        runs.append((plan, optimize_plan(plan, stats, CATALOG,
                                         verify=False)))
    return runs


# ---------------------------------------------------------------------------
# Structural surgery helpers
# ---------------------------------------------------------------------------

def _replace_first(node: AlgebraExpr,
                   pred: Callable[[AlgebraExpr], bool],
                   fn: Callable[[AlgebraExpr], AlgebraExpr],
                   ) -> AlgebraExpr | None:
    """The tree with the first (pre-order) subnode satisfying ``pred``
    replaced by ``fn(subnode)``, or None when nothing matches (or the
    replacement is structurally identical)."""
    done = False

    def go(n: AlgebraExpr) -> AlgebraExpr:
        nonlocal done
        if not done and pred(n):
            done = True
            return fn(n)
        if isinstance(n, Project):
            return Project(n.exprs, go(n.child))
        if isinstance(n, Select):
            return Select(n.conds, go(n.child))
        if isinstance(n, (Join,)):
            left = go(n.left)
            return Join(n.conds, left, go(n.right))
        if isinstance(n, Union):
            left = go(n.left)
            return Union(left, go(n.right))
        if isinstance(n, Diff):
            left = go(n.left)
            return Diff(left, go(n.right))
        if isinstance(n, AntiJoin):
            return AntiJoin(n.arity, n.conds, go(n.left), go(n.right))
        return n

    result = go(node)
    if not done or result == node:
        return None
    return result


def _bump_col(cond: Condition) -> Condition:
    if isinstance(cond.left, Col):
        return Condition(Col(cond.left.index + 1), cond.op, cond.right)
    if isinstance(cond.right, Col):
        return Condition(cond.left, cond.op, Col(cond.right.index + 1))
    return cond


def _swap_two_exprs(
        exprs: tuple[ColExpr, ...]) -> tuple[ColExpr, ...] | None:
    for i in range(len(exprs)):
        for j in range(i + 1, len(exprs)):
            if exprs[i] != exprs[j]:
                out = list(exprs)
                out[i], out[j] = out[j], out[i]
                return tuple(out)
    return None


# ---------------------------------------------------------------------------
# Mutation operators over one recorded step
# ---------------------------------------------------------------------------

def _flip_fold_decision(step: RewriteStep) -> RewriteStep | None:
    if step.rule != "fold-const" or len(step.data) != 2:
        return None
    cond, decision = step.data
    return RewriteStep(step.rule, step.detail, data=(cond, not decision))


def _wrong_arity_empty(step: RewriteStep) -> RewriteStep | None:
    if step.rule != "fold-empty" or not isinstance(step.after, Lit):
        return None
    return RewriteStep(step.rule, step.detail, before=step.before,
                       after=Lit(step.after.arity + 1, frozenset()))


def _drop_pushed_condition(step: RewriteStep) -> RewriteStep | None:
    if step.rule != "pushdown-select" or step.after is None:
        return None
    mutated = _replace_first(
        step.after,
        lambda n: isinstance(n, Select) and n.conds,
        lambda n: (Select(frozenset(sorted(n.conds, key=str)[1:]), n.child)
                   if len(n.conds) > 1 else n.child))
    if mutated is None:
        return None
    return RewriteStep(step.rule, step.detail, before=step.before,
                       after=mutated)


def _shift_pushed_column(step: RewriteStep) -> RewriteStep | None:
    if step.rule != "pushdown-select" or step.after is None:
        return None

    def bump(n: Select) -> Select:
        conds = sorted(n.conds, key=str)
        return Select(frozenset([_bump_col(conds[0])] + conds[1:]), n.child)

    mutated = _replace_first(
        step.after,
        lambda n: isinstance(n, Select) and n.conds,
        bump)
    if mutated is None:
        return None
    return RewriteStep(step.rule, step.detail, before=step.before,
                       after=mutated)


def _permute_restore(step: RewriteStep) -> RewriteStep | None:
    if step.rule not in ("join-reorder", "build-side"):
        return None
    if not isinstance(step.after, Project):
        return None
    swapped = _swap_two_exprs(step.after.exprs)
    if swapped is None:
        return None
    return RewriteStep(step.rule, step.detail, before=step.before,
                       after=Project(swapped, step.after.child))


def _scramble_prune(step: RewriteStep) -> RewriteStep | None:
    if step.rule != "pushdown-project" or not isinstance(step.after, Project):
        return None
    swapped = _swap_two_exprs(step.after.exprs)
    if swapped is None:
        exprs = list(step.after.exprs)
        if not exprs or not isinstance(exprs[0], Col):
            return None
        exprs[0] = Col(exprs[0].index + 1)
        swapped = tuple(exprs)
    return RewriteStep(step.rule, step.detail, before=step.before,
                       after=Project(swapped, step.after.child))


def _retarget_leaf(step: RewriteStep) -> RewriteStep | None:
    if step.rule != "join-reorder" or step.after is None:
        return None
    mutated = _replace_first(
        step.after,
        lambda n: isinstance(n, Rel) and n.name == "R",
        lambda n: Rel("U"))  # same arity, different relation
    if mutated is None:
        return None
    return RewriteStep(step.rule, step.detail, before=step.before,
                       after=mutated)


#: name -> single-step mutation operator
_STEP_MUTATORS: dict[str, Callable[[RewriteStep], RewriteStep | None]] = {
    "flip-fold-decision": _flip_fold_decision,
    "wrong-arity-empty": _wrong_arity_empty,
    "drop-pushed-condition": _drop_pushed_condition,
    "shift-pushed-column": _shift_pushed_column,
    "scramble-prune": _scramble_prune,
    "permute-restore": _permute_restore,
    "retarget-leaf": _retarget_leaf,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MutationRecord:
    """One corruption trial: what was injected, what the validator said."""

    operator: str
    rule: str             # rule of the corrupted step ("" for run-level)
    step_index: int | None
    caught: bool
    codes: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        verdict = "caught" if self.caught else "MISSED"
        codes = ",".join(self.codes) or "-"
        return (f"{self.operator} on {self.rule or 'run'}: {verdict} "
                f"({codes})")


@dataclass
class MutationReport:
    """Aggregate outcome of one harness run."""

    seed: int
    records: list[MutationRecord]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def caught(self) -> int:
        return sum(1 for r in self.records if r.caught)

    @property
    def catch_rate(self) -> float:
        return self.caught / self.total if self.records else 1.0

    def missed(self) -> list[MutationRecord]:
        return [r for r in self.records if not r.caught]

    def render(self) -> str:
        """Markdown artifact: per-operator table plus the headline rate."""
        by_op: dict[str, list[MutationRecord]] = {}
        for rec in self.records:
            by_op.setdefault(rec.operator, []).append(rec)
        lines = [
            "# Rewrite-mutation harness",
            "",
            f"Seed {self.seed}: {self.total} corruption trials, "
            f"{self.caught} caught "
            f"({self.catch_rate:.0%} catch rate).",
            "",
            "| operator | trials | caught | diagnostic codes |",
            "|---|---|---|---|",
        ]
        for name in sorted(by_op):
            recs = by_op[name]
            codes = sorted({c for r in recs for c in r.codes})
            lines.append(
                f"| {name} | {len(recs)} | "
                f"{sum(1 for r in recs if r.caught)} | "
                f"{', '.join(codes) or '-'} |")
        misses = self.missed()
        if misses:
            lines.append("")
            lines.append("Missed corruptions:")
            for rec in misses:
                lines.append(f"- {rec}")
        return "\n".join(lines) + "\n"


def _codes_at(diagnostics: Iterable[Diagnostic],
              path: str) -> tuple[str, ...]:
    return tuple(sorted({d.code for d in diagnostics
                         if d.is_error and d.path == path}))


def _error_codes(diagnostics: Iterable[Diagnostic]) -> tuple[str, ...]:
    return tuple(sorted({d.code for d in diagnostics if d.is_error}))


def run_mutation_harness(seed: int = 0) -> MutationReport:
    """Corrupt every applicable recorded step of every workload run with
    every mutation operator, plus one run-level plan corruption and one
    fake shared subplan per run, and validate each corrupted run."""
    records: list[MutationRecord] = []
    runs = workload_runs(seed)

    for original, outcome in runs:
        steps = list(outcome.steps)
        # step-level corruptions
        for index, step in enumerate(steps):
            for name, mutate in _STEP_MUTATORS.items():
                mutated = mutate(step)
                if mutated is None:
                    continue
                corrupted = list(steps)
                corrupted[index] = mutated
                diagnostics = validate_rewrites(
                    original, outcome.plan, corrupted, outcome.shared,
                    CATALOG)
                path = f"rewrites[{index}]"
                codes = _codes_at(diagnostics, path)
                records.append(MutationRecord(
                    operator=name, rule=step.rule, step_index=index,
                    caught=bool(codes), codes=codes,
                    detail=mutated.detail))
        # run-level corruption: the final plan gained an output column
        widened = Project(
            tuple(Col(1) for _ in range(_root_arity(outcome.plan) + 1)),
            outcome.plan)
        diagnostics = validate_rewrites(original, widened, steps,
                                        outcome.shared, CATALOG)
        codes = _error_codes(diagnostics)
        records.append(MutationRecord(
            operator="widen-root", rule="", step_index=None,
            caught="TV001" in codes, codes=codes, detail="root arity +1"))
        # run-level corruption: claim a never-occurring subplan is shared
        ghost = Lit(3, frozenset({(-1, -2, -3)}))
        diagnostics = validate_rewrites(
            original, outcome.plan, steps,
            frozenset(outcome.shared) | {ghost}, CATALOG)
        codes = _error_codes(diagnostics)
        records.append(MutationRecord(
            operator="fake-shared", rule="", step_index=None,
            caught="TV008" in codes, codes=codes,
            detail="ghost shared subplan"))
    return MutationReport(seed=seed, records=records)


def _root_arity(plan: AlgebraExpr) -> int:
    from repro.algebra.ast import arity_of
    return arity_of(plan, CATALOG)
