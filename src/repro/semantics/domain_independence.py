"""Empirical checks of (embedded) domain independence.

A query is *embedded domain independent* (EDI) at level ``k`` when its
answer on ``(I, F)`` equals its answer on ``(I, F')`` for every
interpretation ``F'`` agreeing with ``F`` on ``term_k(adom(q, I))``,
and is insensitive to enlarging the evaluation universe beyond that
closure.  These properties are undecidable in general; this module
provides the *empirical falsifiers* used by experiment E2:

* :func:`edi_witness` perturbs the interpretation outside the protected
  neighborhood and enlarges the universe with fresh constants; any
  answer change is a counterexample to EDI at that level.
* Theorem 6.6 predicts: for em-allowed queries no counterexample
  exists.  The experiment also runs known *non*-EDI queries and reports
  that witnesses are found, so the falsifier itself is validated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable

from repro.core.queries import CalculusQuery
from repro.data.domain import adom, term_closure_applications
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation, perturbed_outside
from repro.semantics.eval_calculus import (
    evaluate_query,
    evaluation_universe,
    query_schema,
)
from repro.semantics.levels import edi_level_query

__all__ = ["EdiReport", "edi_witness", "check_embedded_domain_independence"]


@dataclass(frozen=True, slots=True)
class EdiReport:
    """Outcome of an EDI falsification attempt.

    ``independent`` is True when no witness was found in ``trials``
    perturbations (evidence, not proof).  When False, ``witness``
    describes the perturbation and the two differing answers.
    """

    independent: bool
    level: int
    trials: int
    witness: str = ""
    baseline_size: int = -1


def edi_witness(query: CalculusQuery, instance: Instance,
                interpretation: Interpretation,
                level: int | None = None,
                trials: int = 5,
                seed: int = 0) -> EdiReport:
    """Try to falsify EDI of ``query`` at ``level`` (default: the
    query's edi level).

    Each trial builds an interpretation agreeing with ``interpretation``
    on every function application examined by the level-``level``
    closure of ``adom(q, I)`` and answering a fresh sentinel value
    everywhere else, then evaluates the query over the *enlarged*
    universe (closure plus the sentinels).  Differing answers falsify
    EDI at that level.
    """
    if level is None:
        level = edi_level_query(query)
    schema = query_schema(query)
    base_values = adom(query, instance)
    protected = term_closure_applications(
        base_values, level, interpretation, schema,
        function_names=query.function_names(),
    )
    protected_args = {args for (_fname, args) in protected}

    baseline = evaluate_query(query, instance, interpretation, level=level)

    rng = random.Random(seed)
    for trial in range(trials):
        sentinel_pool = [f"#fresh{trial}_{i}" for i in range(4)]
        memo: dict[tuple, Hashable] = {}

        def twist(fname: str, args: tuple) -> Hashable:
            # deterministic per application — the perturbed symbol must
            # still denote a *function*
            key = (fname, args)
            if key not in memo:
                memo[key] = rng.choice(sentinel_pool)
            return memo[key]

        perturbed = perturbed_outside(interpretation, protected_args, twist,
                                      name=f"perturbed#{trial}")
        universe = set(evaluation_universe(query, instance, interpretation,
                                           level=level))
        universe |= set(sentinel_pool)
        answer = evaluate_query(query, instance, perturbed,
                                universe=universe)
        if answer != baseline:
            extra = answer.rows ^ baseline.rows
            return EdiReport(
                independent=False, level=level, trials=trial + 1,
                witness=(f"perturbation #{trial} changed the answer; "
                         f"symmetric difference {sorted(extra, key=repr)[:5]}"),
                baseline_size=len(baseline),
            )
    return EdiReport(independent=True, level=level, trials=trials,
                     baseline_size=len(baseline))


def check_embedded_domain_independence(query: CalculusQuery,
                                       instances: list[Instance],
                                       interpretation: Interpretation,
                                       level: int | None = None,
                                       trials: int = 5,
                                       seed: int = 0) -> EdiReport:
    """Run :func:`edi_witness` over several instances; the first witness
    wins, otherwise the last (all-independent) report is returned."""
    report = EdiReport(independent=True, level=level or 0, trials=0)
    for i, instance in enumerate(instances):
        report = edi_witness(query, instance, interpretation,
                             level=level, trials=trials, seed=seed + i)
        if not report.independent:
            return report
    return report
