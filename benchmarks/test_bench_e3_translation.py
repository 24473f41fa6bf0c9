"""E3 — translation correctness (the Section 7 equivalence theorem).

Every translatable gallery query, both practical scenarios, and a slice
of the random corpus: the emitted algebra plan must evaluate to exactly
the reference calculus answer.  The table records plan text and sizes —
these are the paper's worked translation results (q1's
``project([g(f(@1))], R)``, the [GT91] difference shape, q5's union of
opposite extended projections).
"""

from __future__ import annotations

from benchmarks.conftest import write_table
from repro.algebra.evaluator import evaluate
from repro.algebra.printer import to_algebra_text
from repro.data.interpretation import Interpretation
from repro.semantics.eval_calculus import evaluate_query
from repro.translate.pipeline import translate_query
from repro.workloads.families import family_instance
from repro.workloads.gallery import GALLERY, gallery_instance, standard_gallery_interp
from repro.workloads.practical import parts_scenario, payroll_scenario
from repro.workloads.random_queries import random_em_allowed_query


def _gallery_rows() -> list[list]:
    inst = gallery_instance()
    interp = standard_gallery_interp()
    rows = []
    for key, entry in GALLERY.items():
        if not entry.translatable:
            continue
        res = translate_query(entry.query)
        got = evaluate(res.plan, inst, interp, schema=res.schema)
        want = evaluate_query(entry.query, inst, interp)
        plan = to_algebra_text(res.plan)
        rows.append([
            key,
            "MATCH" if got == want else "MISMATCH",
            len(got),
            res.plan_size,
            plan if len(plan) <= 70 else plan[:67] + "...",
        ])
    return rows


def test_e3_gallery_translation(benchmark, results_dir):
    rows = benchmark(_gallery_rows)
    table = write_table(
        results_dir, "E3_translation",
        "E3 — translation vs reference semantics (gallery)",
        ["query", "answers", "rows", "plan ops", "plan"],
        rows,
    )
    assert all(row[1] == "MATCH" for row in rows)
    print(table)


def test_e3_practical_translation(benchmark, results_dir):
    def run() -> list[list]:
        rows = []
        for scenario in (payroll_scenario(), parts_scenario()):
            inst = scenario.instance(scale=10, seed=2)
            for name, q in scenario.queries.items():
                res = translate_query(q, schema=scenario.schema)
                got = evaluate(res.plan, inst, scenario.interpretation,
                               schema=res.schema)
                want = evaluate_query(q, inst, scenario.interpretation)
                rows.append([
                    f"{scenario.name}.{name}",
                    "MATCH" if got == want else "MISMATCH",
                    len(got), res.plan_size,
                ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = write_table(
        results_dir, "E3_practical",
        "E3 — translation vs reference semantics (Section 3 scenarios)",
        ["query", "answers", "rows", "plan ops"],
        rows,
    )
    assert all(row[1] == "MATCH" for row in rows)
    print(table)


def test_e3_verify_plans_overhead(benchmark, results_dir):
    """Plan-verification cost: translating the whole gallery with
    ``verify_plans`` off (the production default — one boolean test)
    must stay within noise of the PR 1 baseline; the table records the
    verified path alongside for comparison."""
    import time

    queries = [e.query for e in GALLERY.values() if e.translatable]

    def translate_all(verify: bool) -> int:
        for q in queries:
            translate_query(q, verify_plans=verify)
        return len(queries)

    count = benchmark(translate_all, False)

    def best_of(verify: bool, rounds: int = 5) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            translate_all(verify)
            best = min(best, time.perf_counter() - start)
        return best

    off = best_of(False)
    on = best_of(True)
    write_table(
        results_dir, "E3_verify_overhead",
        "E3 — plan verification overhead (gallery translation)",
        ["verify_plans", "queries", "best ms", "vs off"],
        [["off", count, f"{off * 1e3:.2f}", "1.00x"],
         ["on", count, f"{on * 1e3:.2f}", f"{on / off:.2f}x"]],
    )


def test_e3_random_corpus(benchmark, results_dir):
    interp = Interpretation({
        "f": lambda v: (_n(v) * 7 + 1) % 11,
        "g": lambda v: (_n(v) * 3 + 2) % 11,
        "h": lambda v: (_n(v) * 5 + 3) % 11,
    })

    def run() -> tuple[int, int]:
        matches = 0
        total = 30
        for seed in range(total):
            q = random_em_allowed_query(seed)
            inst = family_instance(q, n_rows=5, universe_size=6, seed=seed)
            res = translate_query(q)
            got = evaluate(res.plan, inst, interp, schema=res.schema)
            want = evaluate_query(q, inst, interp)
            matches += got == want
        return matches, total

    matches, total = benchmark.pedantic(run, rounds=1, iterations=1)
    write_table(
        results_dir, "E3_corpus",
        "E3 — translation correctness over the random corpus",
        ["corpus size", "matching answers"],
        [[total, matches]],
    )
    assert matches == total


def _n(value) -> int:
    return value if isinstance(value, int) else hash(str(value)) % 97
