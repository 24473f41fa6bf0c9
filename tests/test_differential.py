"""Differential test harness: independent implementations of the same
semantics are swept against each other over a seeded random corpus and
the paper gallery.

For every corpus query the harness compares

* the **reference calculus evaluator** (``evaluate_query`` — direct
  active-domain enumeration, the semantic ground truth),
* the **physical executor** running the translated algebra plan, and
* the **query service**, both on a cold cache and on a warm cache
  (so a caching bug that corrupts or cross-wires plans shows up as a
  divergence, not a silent wrong answer).

Every translated and optimized plan is also checked for T15's
generalized-difference shape ``e - project([@1..@n], join(c, e, X))``
left as a ``Diff``: the simplifier must have made it an ``AntiJoin``.

On top of the random corpus, ``TestHeavyCases`` pins hand-picked
UNDEFINED-heavy (partial scalar functions undefined on half the domain)
and scalar-function-heavy (nested applications in join keys,
negations, and anti-join conditions) queries on the reference evaluator
and the executor — the cases where UNDEFINED has the most room to go
wrong.

``TestBatchSizeInvariance`` and ``TestBatchReprInvariance`` then prove
the engine's batching knobs are answer-invariant: every swept plan
returns the identical relation at every batch size and under both
batch representations (tuple lists and NumPy column batches), with the
UNDEFINED-heavy cases riding along under the partial interpretation.

Any mismatch fails with the query text, the seed, and both result
sets, so a failure is reproducible from the message alone:

    PYTHONPATH=src python -m pytest "tests/test_differential.py" \\
        -k "chunk0"

The corpus size defaults to ``DEFAULT_SEEDS`` seeds and can be widened
from the environment (as the CI differential job does)::

    REPRO_DIFF_SEEDS=500 python -m pytest tests/test_differential.py
"""

from __future__ import annotations

import os

import pytest

from repro.algebra.ast import AntiJoin, Col, Diff, Join, Project, walk_algebra
from repro.core.parser import parse_query
from repro.data.generators import random_instance, standard_functions
from repro.data.interpretation import (
    UNDEFINED,
    Interpretation,
    partial_function,
)
from repro.engine import optimize_plan, plan_catalog, stats_for
from repro.engine.executor import execute
from repro.errors import EvaluationError
from repro.semantics.eval_calculus import evaluate_query, query_schema
from repro.service import QueryService
from repro.translate.pipeline import translate_query
from repro.workloads.gallery import (
    GALLERY,
    gallery_instance,
    standard_gallery_interp,
)
from repro.workloads.random_queries import random_em_allowed_query

DEFAULT_SEEDS = 200
CHUNK = 25

N_ROWS = 4
UNIVERSE = list(range(8))
MODULUS = 11


def _seed_count() -> int:
    raw = os.environ.get("REPRO_DIFF_SEEDS", "")
    if not raw:
        return DEFAULT_SEEDS
    try:
        count = int(raw)
    except ValueError as exc:
        raise RuntimeError(
            f"REPRO_DIFF_SEEDS must be an integer, got {raw!r}") from exc
    return max(count, 1)


def _chunks() -> list[range]:
    count = _seed_count()
    return [range(lo, min(lo + CHUNK, count))
            for lo in range(0, count, CHUNK)]


def _sorted_rows(relation) -> list:
    return sorted(relation.rows, key=repr)


def _mismatch(kind: str, seed: int, text: str, want, got) -> str:
    return (f"{kind} mismatch\n"
            f"  seed:      {seed}\n"
            f"  query:     {text}\n"
            f"  reference: {_sorted_rows(want)}\n"
            f"  got:       {_sorted_rows(got)}")


def _diff_shaped_anti_joins(plan) -> list:
    """``Diff`` nodes whose right input is an identity projection of a
    join over that ``Diff``'s own left input."""
    return [node for node in walk_algebra(plan)
            if isinstance(node, Diff) and isinstance(node.right, Project)
            and isinstance(node.right.child, Join)
            and node.right.child.left == node.left
            and node.right.exprs == tuple(
                Col(i) for i in range(1, len(node.right.exprs) + 1))]


def _check_anti_join_shapes(plan, instance, schema, label) -> None:
    """Neither the translated nor the optimized plan keeps the shape."""
    optimized = optimize_plan(plan, stats_for(instance),
                              plan_catalog(plan, instance, schema)).plan
    for stage, tree in (("translated", plan), ("optimized", optimized)):
        assert not _diff_shaped_anti_joins(tree), \
            f"{stage} plan of {label} keeps a Diff-shaped anti-join"


def _fixture(seed: int):
    """Deterministic (query, schema, instance, interpretation) per seed."""
    from repro.core.printer import to_text

    query = random_em_allowed_query(seed)
    schema = query_schema(query)
    instance = random_instance(schema, N_ROWS, UNIVERSE, seed=seed)
    interp = standard_functions(schema, modulus=MODULUS)
    return query, to_text(query), schema, instance, interp


@pytest.mark.parametrize(
    "seeds", _chunks(),
    ids=[f"chunk{i}" for i in range(len(_chunks()))])
class TestRandomCorpusDifferential:
    def test_executor_and_service_agree_with_reference(self, seeds):
        skipped = 0
        for seed in seeds:
            query, text, schema, instance, interp = _fixture(seed)
            try:
                reference = evaluate_query(query, instance, interp)
            except EvaluationError:
                skipped += 1       # enumeration guard tripped; seed unusable
                continue

            # Leg 1: translated plan through the physical executor.
            result = translate_query(query)
            _check_anti_join_shapes(result.plan, instance, result.schema,
                                    f"seed {seed}: {text}")
            run = execute(result.plan, instance, interp,
                          schema=result.schema)
            assert run.result == reference, \
                _mismatch("executor-vs-reference", seed, text,
                          reference, run.result)

            # Leg 2: the service, cold then warm, on the same data.
            with QueryService(instance, interpretation=interp) as svc:
                cold = svc.run(text)
                warm = svc.run(text)
            assert cold.ok, (seed, text, cold.error)
            assert cold.cache == "miss" and warm.cache == "hit", (seed, text)
            assert cold.result == reference, \
                _mismatch("service-cold-vs-reference", seed, text,
                          reference, cold.result)
            assert warm.result == reference, \
                _mismatch("service-warm-vs-reference", seed, text,
                          reference, warm.result)
        # A handful of generated queries can trip the enumeration guard;
        # the sweep must still exercise nearly the whole chunk.
        assert skipped <= len(seeds) // 4, \
            f"too many skipped seeds in {seeds}: {skipped}"


#: Anti-joins per translated gallery plan: one per T15 difference whose
#: subtrahend joins its own context (ex_neg_exists's does not).
GALLERY_ANTI_JOINS = {"q2": 1, "q3": 1, "q4": 2, "ex74": 1, "ex_forall": 1}


class TestGalleryDifferential:
    @pytest.mark.parametrize(
        "key", [k for k, e in GALLERY.items() if e.translatable])
    def test_gallery_entry_agrees_across_engines(self, key):
        entry = GALLERY[key]
        instance = gallery_instance()
        interp = standard_gallery_interp()
        reference = evaluate_query(entry.query, instance, interp)

        result = translate_query(entry.query)
        _check_anti_join_shapes(result.plan, instance, result.schema, key)
        anti_joins = sum(isinstance(node, AntiJoin)
                         for node in walk_algebra(result.plan))
        assert anti_joins == GALLERY_ANTI_JOINS.get(key, 0), key
        run = execute(result.plan, instance, interp, schema=result.schema)
        assert run.result == reference, \
            _mismatch("executor-vs-reference", -1, entry.text,
                      reference, run.result)

        with QueryService(instance, interpretation=interp) as svc:
            cold = svc.run(entry.text)
            warm = svc.run(entry.text)
        assert cold.result == reference, \
            _mismatch("service-cold-vs-reference", -1, entry.text,
                      reference, cold.result)
        assert warm.cache == "hit"
        assert warm.result == reference, \
            _mismatch("service-warm-vs-reference", -1, entry.text,
                      reference, warm.result)


#: Hand-picked cases over the gallery instance: comparisons, negations,
#: join keys, projected heads, anti-joins, and nested applications of
#: scalar functions — each is where UNDEFINED has the most room to
#: diverge from the calculus semantics.
HEAVY_CASES = (
    ("partial-eq", "{ x | R(x) & f(x) = x }"),
    ("partial-neq", "{ x | R(x) & f(x) != x }"),
    ("partial-negated-eq", "{ x | R(x) & ~(f(x) = x) }"),
    ("partial-ordering", "{ x | R(x) & f(x) < g(x) }"),
    ("partial-head", "{ f(x) | R(x) }"),
    ("partial-join-key", "{ x, y | R(x) & R2(x, y) & f(x) = y }"),
    ("partial-anti-join",
     "{ x | R(x) & ~exists y (R2(x, y) & f(x) = y) }"),
    ("function-join", "{ x | R(x) & exists y (R(y) & f(x) = g(y)) }"),
    ("nested-apps", "{ x | R(x) & f(g(f(x))) != h(x) }"),
    ("diff-with-function", "{ x | R(x) & ~T(x) & f(x) != x }"),
)


def _heavy_interp() -> Interpretation:
    """The gallery functions made *partial*: UNDEFINED on every even
    argument, so half the active domain trips the undefined path."""
    def odd_only(scale: int, shift: int):
        return partial_function(
            lambda v: None if v % 2 == 0 else (v * scale + shift) % 20)
    return Interpretation({
        "f": odd_only(7, 1),
        "g": odd_only(3, 2),
        "h": odd_only(5, 3),
        "k": odd_only(11, 4),
        "plus1": lambda v: v + 1,
    }, name="gallery-partial")


class TestHeavyCases:
    """UNDEFINED-heavy and scalar-function-heavy queries pinned on the
    reference evaluator and the executor.  Each case runs under the
    gallery's total interpretation *and* under a partial one (f/g/h/k
    undefined on even arguments), so UNDEFINED is exercised in
    comparisons, join keys, projected heads, and anti-joins."""

    @pytest.mark.parametrize("interp_kind", ["total", "partial"])
    @pytest.mark.parametrize("key,text", HEAVY_CASES,
                             ids=[k for k, _ in HEAVY_CASES])
    def test_agrees_with_reference(self, key, text, interp_kind):
        query = parse_query(text)
        instance = gallery_instance()
        interp = (standard_gallery_interp() if interp_kind == "total"
                  else _heavy_interp())
        reference = evaluate_query(query, instance, interp)
        result = translate_query(query)
        run = execute(result.plan, instance, interp, schema=result.schema)
        assert run.result == reference, \
            _mismatch(f"executor-vs-reference[{interp_kind}]", -1, text,
                      reference, run.result)

    def test_partial_interp_really_is_partial(self):
        interp = _heavy_interp()
        assert interp.raw("f")(2) is UNDEFINED
        assert interp.raw("f")(3) is not UNDEFINED

    def test_undefined_changes_answers(self):
        # Guard: the partial interpretation must actually flip at least
        # one case's answer, or the partial sweep proves nothing.
        instance = gallery_instance()
        flipped = 0
        for _, text in HEAVY_CASES:
            query = parse_query(text)
            total = evaluate_query(query, instance,
                                   standard_gallery_interp())
            part = evaluate_query(query, instance, _heavy_interp())
            flipped += total != part
        assert flipped >= 1, "partial interpretation never changed a result"


#: Engine rows-per-batch values the invariance sweep proves equivalent:
#: degenerate single-row batches, a prime that never divides anything
#: evenly, a mid-size, and the default.
BATCH_SIZES = (1, 7, 64, 1024)

#: Random-corpus seeds for the batch sweep — a fixed slice, since the
#: full corpus already runs (at the default batch size) in the classes
#: above and each sweep seed costs len(BATCH_SIZES) executions.
SWEEP_SEEDS = range(0, 50, 2)


class TestBatchSizeInvariance:
    """Batch size must never change answers: every plan, at every
    engine batch size, returns exactly the reference evaluator's
    relation — through the bare executor and through the service."""

    @pytest.mark.parametrize(
        "key", [k for k, e in GALLERY.items() if e.translatable])
    def test_gallery_is_batch_size_invariant(self, key):
        entry = GALLERY[key]
        instance = gallery_instance()
        interp = standard_gallery_interp()
        reference = evaluate_query(entry.query, instance, interp)
        result = translate_query(entry.query)
        for batch_size in BATCH_SIZES:
            run = execute(result.plan, instance, interp,
                          schema=result.schema, batch_size=batch_size)
            assert run.result == reference, \
                _mismatch(f"executor@batch={batch_size}-vs-reference",
                          -1, entry.text, reference, run.result)
            with QueryService(instance, interpretation=interp,
                              batch_size=batch_size) as svc:
                report = svc.run(entry.text)
            assert report.ok, (key, batch_size, report.error)
            assert report.result == reference, \
                _mismatch(f"service@batch={batch_size}-vs-reference",
                          -1, entry.text, reference, report.result)

    def test_random_corpus_is_batch_size_invariant(self):
        skipped = 0
        for seed in SWEEP_SEEDS:
            query, text, schema, instance, interp = _fixture(seed)
            try:
                reference = evaluate_query(query, instance, interp)
            except EvaluationError:
                skipped += 1
                continue
            result = translate_query(query)
            for batch_size in BATCH_SIZES:
                run = execute(result.plan, instance, interp,
                              schema=result.schema, batch_size=batch_size)
                assert run.result == reference, \
                    _mismatch(f"executor@batch={batch_size}-vs-reference",
                              seed, text, reference, run.result)
        assert skipped <= len(SWEEP_SEEDS) // 4, \
            f"too many skipped sweep seeds: {skipped}"

    def test_env_batch_size_reaches_the_engine(self, monkeypatch):
        """REPRO_BATCH_SIZE is the default the sweep's CI leg relies on."""
        from repro.engine.operators import default_batch_size
        monkeypatch.setenv("REPRO_BATCH_SIZE", "7")
        assert default_batch_size() == 7
        entry = GALLERY["q1"]
        instance = gallery_instance()
        interp = standard_gallery_interp()
        reference = evaluate_query(entry.query, instance, interp)
        result = translate_query(entry.query)
        run = execute(result.plan, instance, interp, schema=result.schema)
        assert run.result == reference


#: Batch representations the invariance sweep proves equivalent.  The
#: column leg silently becomes a second tuple leg when NumPy is absent
#: (the CB001 fallback) — still a valid, if vacuous, sweep, which is
#: exactly the no-numpy CI leg's point.
BATCH_REPRS = ("tuple", "column")

#: Batch sizes for the representation sweep: degenerate single-row
#: batches, a prime, and a size larger than every gallery relation
#: (so whole inputs arrive as one batch).
REPR_SWEEP_SIZES = (1, 7, 1024)


class TestBatchReprInvariance:
    """The batch representation must never change answers: every plan,
    under tuple batches and column batches, at every swept batch size,
    returns exactly the reference evaluator's relation.  The UNDEFINED-
    heavy cases ride along under the partial interpretation — the place
    where a wrong validity mask would first show."""

    @pytest.mark.parametrize(
        "key", [k for k, e in GALLERY.items() if e.translatable])
    def test_gallery_is_repr_invariant(self, key):
        entry = GALLERY[key]
        instance = gallery_instance()
        interp = standard_gallery_interp()
        reference = evaluate_query(entry.query, instance, interp)
        result = translate_query(entry.query)
        for batch_repr in BATCH_REPRS:
            for batch_size in REPR_SWEEP_SIZES:
                run = execute(result.plan, instance, interp,
                              schema=result.schema, batch_size=batch_size,
                              batch_repr=batch_repr)
                assert run.result == reference, _mismatch(
                    f"executor@{batch_repr}/batch={batch_size}"
                    "-vs-reference", -1, entry.text, reference, run.result)

    def test_random_corpus_is_repr_invariant(self):
        skipped = 0
        for seed in SWEEP_SEEDS:
            query, text, schema, instance, interp = _fixture(seed)
            try:
                reference = evaluate_query(query, instance, interp)
            except EvaluationError:
                skipped += 1
                continue
            result = translate_query(query)
            for batch_repr in BATCH_REPRS:
                for batch_size in REPR_SWEEP_SIZES:
                    run = execute(result.plan, instance, interp,
                                  schema=result.schema,
                                  batch_size=batch_size,
                                  batch_repr=batch_repr)
                    assert run.result == reference, _mismatch(
                        f"executor@{batch_repr}/batch={batch_size}"
                        "-vs-reference", seed, text, reference, run.result)
        assert skipped <= len(SWEEP_SEEDS) // 4, \
            f"too many skipped sweep seeds: {skipped}"

    @pytest.mark.parametrize("key,text", HEAVY_CASES,
                             ids=[k for k, _ in HEAVY_CASES])
    def test_undefined_heavy_cases_repr_invariant(self, key, text):
        query = parse_query(text)
        instance = gallery_instance()
        interp = _heavy_interp()
        reference = evaluate_query(query, instance, interp)
        result = translate_query(query)
        for batch_repr in BATCH_REPRS:
            for batch_size in REPR_SWEEP_SIZES:
                run = execute(result.plan, instance, interp,
                              schema=result.schema, batch_size=batch_size,
                              batch_repr=batch_repr)
                assert run.result == reference, _mismatch(
                    f"executor@{batch_repr}/batch={batch_size}"
                    "-vs-reference[partial]", -1, text, reference,
                    run.result)

    def test_service_repr_invariant(self):
        entry = GALLERY["q1"]
        instance = gallery_instance()
        interp = standard_gallery_interp()
        reference = evaluate_query(entry.query, instance, interp)
        for batch_repr in BATCH_REPRS:
            with QueryService(instance, interpretation=interp,
                              batch_repr=batch_repr) as svc:
                report = svc.run(entry.text)
            assert report.ok, (batch_repr, report.error)
            assert report.result == reference, \
                _mismatch(f"service@{batch_repr}-vs-reference", -1,
                          entry.text, reference, report.result)


class TestColumnBatchStreamProperty:
    """Property: chunking any representable row stream into column
    batches and concatenating their row views reproduces the tuple
    stream exactly — same rows, same order, UNDEFINED positions
    included.  (Set-equality over executions is covered above; this
    pins the representation itself, with hypothesis driving the
    shapes.)"""

    @staticmethod
    def _strategies():
        from hypothesis import strategies as st
        scalar = st.one_of(
            st.integers(min_value=-2 ** 53, max_value=2 ** 53),
            st.floats(allow_nan=False, allow_infinity=True),
            st.text(max_size=6),
            st.just(UNDEFINED),
        )
        return st, scalar

    def test_chunked_column_batches_reproduce_the_row_stream(self, monkeypatch):
        np = pytest.importorskip("numpy")  # noqa: F841 - availability gate
        # This pins the column representation itself, so the CI
        # fallback leg's no-numpy override must not apply here.
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
        from hypothesis import given, settings
        from repro.engine.batches import ColumnBatch, column_from_values

        st, scalar = self._strategies()

        @settings(max_examples=200, deadline=None)
        @given(st.integers(min_value=1, max_value=3).flatmap(
                   lambda arity: st.lists(
                       st.tuples(*[scalar] * arity), min_size=1,
                       max_size=40)),
               st.integers(min_value=1, max_value=7))
        def check(rows, chunk):
            streamed: list[tuple] = []
            for lo in range(0, len(rows), chunk):
                part = rows[lo:lo + chunk]
                masked = [tuple(0 if v is UNDEFINED else v for v in row)
                          for row in part]
                columns = []
                for j in range(len(part[0])):
                    col = column_from_values(
                        [row[j] for row in masked],
                        mask=[row[j] is UNDEFINED for row in part])
                    columns.append(col)
                if any(c is None for c in columns):
                    # Unrepresentable chunk: the engine would fall back
                    # to the tuple kernel, so the stream is the rows
                    # themselves.
                    streamed.extend(part)
                    continue
                batch = ColumnBatch(tuple(columns), len(part))
                streamed.extend(batch.to_rows())
            assert streamed == rows
            assert {r for r in streamed} == set(rows)

        check()

    def test_concat_matches_row_concatenation(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
        from hypothesis import given, settings
        from repro.engine.batches import ColumnBatch

        st, _ = self._strategies()
        row = st.tuples(st.integers(min_value=-100, max_value=100),
                        st.integers(min_value=-100, max_value=100))

        @settings(max_examples=100, deadline=None)
        @given(st.lists(st.lists(row, min_size=1, max_size=10),
                        min_size=1, max_size=5))
        def check(chunks):
            batches = [ColumnBatch.from_rows(c) for c in chunks]
            assert all(b is not None for b in batches)
            joined = ColumnBatch.concat(batches)
            want = [r for c in chunks for r in c]
            assert joined is not None and joined.to_rows() == want

        check()


class TestHarnessSelfChecks:
    """The harness itself must be deterministic and honest."""

    def test_fixture_is_deterministic(self):
        a = _fixture(17)
        b = _fixture(17)
        assert a[1] == b[1]
        assert a[3] == b[3]

    def test_corpus_has_the_advertised_size(self):
        assert sum(len(c) for c in _chunks()) == _seed_count()
        assert _seed_count() >= 1

    def test_seed_override_is_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIFF_SEEDS", "banana")
        with pytest.raises(RuntimeError):
            _seed_count()
        monkeypatch.setenv("REPRO_DIFF_SEEDS", "40")
        assert _seed_count() == 40
