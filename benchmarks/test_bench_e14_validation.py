"""E14 — the cost of certifying every plan rewrite.

The translation validator (PR 7) replays each recorded
:class:`~repro.engine.rewrite.RewriteStep` — normalization and
optimizer steps alike — and discharges per-rule soundness obligations
(TV001–TV011); plan verification (the structural findings of plan type
inference) re-checks structural invariants after every phase.  Both run whenever
``verify_plans`` is on — always in the test suite, opt-in in
production.  This experiment prices that certification on the E13
workload (the skewed join-chain family, where the optimizer does the
most work) by running the identical end-to-end pipeline with
verification on and off.

The headline claim, asserted below: **always-on validation costs at
most 1.5x end to end** on this family, and the validator alone is
microseconds per certified run.

The artifact is ``benchmarks/results/E14_validation.md``; CI uploads
it per Python version.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import write_table
from benchmarks.test_bench_e13_optimizer import (
    CHAIN_LENGTHS,
    _best_of,
    skewed_chain_instance,
)
from repro.analysis.typeinfer import set_verify_plans
from repro.analysis.validate import validate_rewrites
from repro.data.interpretation import Interpretation
from repro.engine.caches import stats_for
from repro.engine.executor import execute, plan_catalog
from repro.engine.rewrite import optimize_plan
from repro.translate.pipeline import translate_query
from repro.workloads.families import join_chain_query

#: The E14 ceiling: certified runs may cost at most this factor.
MAX_OVERHEAD = 1.5


@pytest.fixture
def verification_off():
    """Both arms control ``verify_plans`` explicitly; park it off."""
    previous = set_verify_plans(False)
    yield
    set_verify_plans(previous)


def _end_to_end(n: int, inst, interp, verify: bool) -> float:
    """One certified (or bare) pipeline run: translate, optimize,
    execute.  ``verify_plans`` gates plan verification, the
    simplify-phase validator, and the post-optimize rewrite
    validation."""
    def run():
        set_verify_plans(verify)
        res = translate_query(join_chain_query(n))
        execute(res.plan, inst, interp, schema=res.schema, optimize=True)

    return _best_of(run)


def _validator_only(n: int, inst) -> tuple[float, int]:
    """Time the validator alone on a recorded optimizer run."""
    res = translate_query(join_chain_query(n))
    catalog = plan_catalog(res.plan, inst, res.schema)
    outcome = optimize_plan(res.plan, stats_for(inst), catalog,
                            verify=False, schema=res.schema)

    def run():
        diags = validate_rewrites(res.plan, outcome.plan, outcome.steps,
                                  outcome.shared, catalog,
                                  schema=res.schema)
        assert not any(d.is_error for d in diags)

    return _best_of(run), len(outcome.steps)


def _measure():
    interp = Interpretation({})
    rows = []
    total_on = total_off = 0.0
    for n in CHAIN_LENGTHS:
        inst = skewed_chain_instance(n)
        off_s = _end_to_end(n, inst, interp, verify=False)
        on_s = _end_to_end(n, inst, interp, verify=True)
        val_s, steps = _validator_only(n, inst)
        total_on += on_s
        total_off += off_s
        rows.append([
            n,
            f"{off_s * 1e3:.3f}",
            f"{on_s * 1e3:.3f}",
            f"{on_s / off_s:.2f}x" if off_s else "inf",
            f"{val_s * 1e3:.3f}",
            steps,
        ])
    overall = total_on / total_off if total_off else float("inf")
    return rows, total_off, total_on, overall


def test_e14_validation_overhead(benchmark, results_dir, verification_off):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows, total_off, total_on, overall = measured

    table_rows = rows + [[
        "**total**", f"{total_off * 1e3:.3f}", f"{total_on * 1e3:.3f}",
        f"**{overall:.2f}x**", "", "",
    ]]
    table = write_table(
        results_dir, "E14_validation",
        "E14 — translation-validation overhead on the E13 join-chain "
        "family (end-to-end translate+optimize+execute, best of 3; "
        "'validator only' replays the recorded rewrite steps against "
        "their obligations)",
        ["n", "verify off ms", "verify on ms", "overhead",
         "validator only ms", "steps certified"],
        table_rows,
    )
    print(table)

    assert overall <= MAX_OVERHEAD, (
        f"always-on validation costs {overall:.2f}x end to end "
        f"(claim: <= {MAX_OVERHEAD}x)")


def test_e14_certified_and_bare_runs_agree(verification_off):
    """Correctness gate: verification must never change the answer."""
    interp = Interpretation({})
    n = CHAIN_LENGTHS[0]
    inst = skewed_chain_instance(n)
    res = translate_query(join_chain_query(n))
    set_verify_plans(False)
    bare = execute(res.plan, inst, interp, schema=res.schema,
                   optimize=True)
    set_verify_plans(True)
    certified = execute(res.plan, inst, interp, schema=res.schema,
                        optimize=True)
    assert bare.result == certified.result
    assert bare.rewrites == certified.rewrites
