"""E16 — column-batch execution versus tuple-batch execution.

The columnar refactor made the batch representation pluggable: the same
physical plans run over plain ``list[tuple]`` batches (the default) or
over NumPy-backed :class:`~repro.engine.batches.ColumnBatch` objects
with vectorized per-operator kernels — boolean selection masks, join
index probes, zero-copy column projection, and a cached columnar layout
for stored relations.

This experiment measures the representation end to end on the
**scan/join/map-heavy subset** of the scaled-gallery workload: calculus
queries (parsed and translated like any request) whose plans are
dominated by scans with comparison filters, equi-joins, and column
projections — the operators with real vectorized kernels.  Queries
dominated by per-row Python scalar-function calls cannot vectorize the
function itself and are excluded by design (the representation never
changes their answers, as the differential suite proves).

Both representations run identical plans and must return identical
relations, and both are held to the reference algebra evaluator —
asserted before any timing.  The tuple path runs generated kernels
(:mod:`repro.engine.compile`), so this compares vectorized NumPy kernels
with straight-line Python loops.  The claim, asserted below on the
median of :data:`RUNS` runs: **column batches are not slower than tuple
batches, the default they are an alternative to, across this subset**
(subset total ≥ 1.0x).  Per query the ratio sits near 1x, on either
side of it.

The artifact is ``benchmarks/results/E16_columnar.md``; CI uploads it
per Python version.
"""

from __future__ import annotations

import time

import pytest

pytest.importorskip("numpy")

from repro.algebra.evaluator import evaluate
from repro.core.parser import parse_query
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.translate.pipeline import translate_query
from repro.workloads.gallery import standard_gallery_interp

#: Rows per relation — large enough that per-row Python overhead (the
#: thing vectorization removes) dominates timing noise.
SCALE = 3000

#: Value universe, coprime-friendly with the affine fills.
UNIVERSE = 4096

BEST_OF = 3

#: Whole-subset measurements; the gate reads the median of their totals.
RUNS = 3


def scaled_gallery_instance(n: int, universe: int) -> Instance:
    """The gallery's relations, scaled to ``n`` rows each.

    Deterministic affine fills (stride coprime with the universe, so no
    set-semantics collapse); the same relation names and arities as
    :func:`repro.workloads.gallery.gallery_instance`, so every gallery
    query runs unchanged.
    """
    def unary(stride: int, offset: int) -> Relation:
        return Relation(1, {((i * stride + offset) % universe,)
                            for i in range(n)})

    def binary(s1: int, o1: int, s2: int, o2: int) -> Relation:
        return Relation(2, {((i * s1 + o1) % universe,
                             (i * s2 + o2) % universe)
                            for i in range(n)})

    def ternary(s1: int, s2: int, s3: int) -> Relation:
        return Relation(3, {((i * s1) % universe,
                             (i * s2 + 1) % universe,
                             (i * s3 + 2) % universe)
                            for i in range(n)})

    return Instance({
        "R": unary(3, 1),
        "S": unary(5, 2),
        "T": unary(7, 3),
        "R2": binary(3, 0, 11, 8),
        "S2": binary(3, 0, 11, 8),      # overlaps R2: diffs/anti-joins bite
        "P": binary(7, 2, 17, 5),
        "R3": ternary(3, 5, 7),
        "W": ternary(11, 5, 13),
    })


#: The scan/join/map-heavy subset: comparison-filtered scans, two- and
#: three-relation equi-joins, and head reordering (column projection).
QUERIES = {
    "scan-filter": "{ x, y | R2(x, y) & x < 2000 & y > 100 }",
    "scan-filter-neg": "{ x, y | P(x, y) & x < 3000 & ~(y = 7) & x > 10 }",
    "join": "{ x, y, z | R2(x, y) & P(x, z) }",
    "join-filter": "{ x, y, z | R2(x, y) & S2(y, z) & x < 3500 }",
    "tri-join": "{ x, y | R2(x, y) & S(x) & T(y) }",
    "map-reorder": "{ y, x | R2(x, y) & x < 3000 }",
}


def _best_of(fn, rounds: int = BEST_OF) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure():
    from repro.engine.executor import execute

    instance = scaled_gallery_instance(SCALE, UNIVERSE)
    interp = standard_gallery_interp()
    translated = {key: translate_query(parse_query(text))
                  for key, text in QUERIES.items()}

    # Correctness gate: both representations and the reference algebra
    # evaluator, every query, identical relations.
    kernel_counts = {}
    for key, res in translated.items():
        want = evaluate(res.plan, instance, interp, schema=res.schema)
        tup = execute(res.plan, instance, interp, schema=res.schema,
                      batch_repr="tuple")
        col = execute(res.plan, instance, interp, schema=res.schema,
                      batch_repr="column")
        assert tup.result == want, f"tuple engine diverges on {key}"
        assert col.result == want, f"column engine diverges on {key}"
        assert col.batch_repr == "column" and not col.batch_repr_error, key
        kernel_counts[key] = (col.counters.kernel_batches,
                              col.counters.fallback_batches)

    # Per cell, the best time over every run; per run, the subset
    # totals of that run's cells.
    best = {key: [float("inf"), float("inf")] for key in translated}
    totals = []
    for _ in range(RUNS):
        run_tuple_s = run_column_s = 0.0
        for key, res in translated.items():
            tuple_s = _best_of(lambda: execute(
                res.plan, instance, interp, schema=res.schema,
                batch_repr="tuple"))
            column_s = _best_of(lambda: execute(
                res.plan, instance, interp, schema=res.schema,
                batch_repr="column"))
            run_tuple_s += tuple_s
            run_column_s += column_s
            best[key][0] = min(best[key][0], tuple_s)
            best[key][1] = min(best[key][1], column_s)
        totals.append((run_tuple_s, run_column_s))

    rows = []
    for key, (tuple_s, column_s) in best.items():
        kernels, fallbacks = kernel_counts[key]
        rows.append((key, tuple_s, column_s, tuple_s / column_s,
                     kernels, fallbacks))
    return rows, totals


def _median_ratio(totals) -> float:
    """The median over runs of the subset-total speedup."""
    ratios = sorted(tuple_s / column_s for tuple_s, column_s in totals)
    return ratios[len(ratios) // 2]


def _markdown(rows, totals) -> str:
    lines = [
        "# E16 — column-batch execution vs tuple-batch execution",
        "",
        f"Scaled gallery instance: {SCALE} rows per relation, universe "
        f"{UNIVERSE}; each cell is the best of {RUNS} runs of best of "
        f"{BEST_OF}.  `tuple` is the default list-of-tuples "
        "representation, run by generated kernels; `column` is the "
        "NumPy-backed ColumnBatch representation (`--batch-repr "
        "column`).  The subset is scan/join/map-heavy by design: "
        "comparison filters, equi-joins, and column projections are "
        "where vectorized kernels replace per-row Python.  `kernel` / "
        "`fallback` count, per query, the batches the vectorized path "
        "processed vs handed back to the tuple kernels.",
        "",
        "| query | tuple ms | column ms | speedup | kernel | fallback |",
        "| - | - | - | - | - | - |",
    ]
    for key, tuple_s, column_s, speedup, kernels, fallbacks in rows:
        lines.append(
            f"| {key} | {tuple_s * 1e3:.3f} | {column_s * 1e3:.3f} "
            f"| {speedup:.2f}x | {kernels} | {fallbacks} |")
    for number, (tuple_s, column_s) in enumerate(totals, 1):
        lines.append(
            f"| (subset total, run {number}) | {tuple_s * 1e3:.3f} "
            f"| {column_s * 1e3:.3f} | {tuple_s / column_s:.2f}x | | |")
    lines.append(f"| **(median subset speedup)** | | "
                 f"| **{_median_ratio(totals):.2f}x** | | |")
    lines += [
        "",
        "Answers are representation-invariant (asserted against the "
        "reference algebra evaluator before timing), so the column "
        "representation changes speed, never results.  Stored "
        "relations are converted to column layout once and cached "
        "(`repro.engine.batches.columnar_scan`), so warm executions "
        "serve zero-copy column slices — the columnar storage layer "
        "a row-major instance otherwise lacks.",
    ]
    return "\n".join(lines) + "\n"


def test_e16_columnar_speedup(benchmark, results_dir):
    rows, totals = benchmark.pedantic(_measure, rounds=1, iterations=1)

    artifact = _markdown(rows, totals)
    (results_dir / "E16_columnar.md").write_text(artifact)
    print(artifact)

    # The claim: column batches are not slower than the default tuple
    # batches across the scan/join/map subset.
    overall = _median_ratio(totals)
    assert overall >= 1.0, (
        f"column-batch engine {overall:.2f}x the speed of tuple-batch "
        f"across the scan/join/map subset (claim: >= 1.0x)")

    # Every query in the subset must actually exercise the vectorized
    # path: kernel batches > 0 and no per-batch fallbacks.
    for key, _, _, _, kernels, fallbacks in rows:
        assert kernels > 0, f"{key} never hit a vectorized kernel"
        assert fallbacks == 0, f"{key} fell back on {fallbacks} batches"
