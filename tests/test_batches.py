"""Tests for the pluggable batch representation (repro.engine.batches):
column construction and exactness rules, UNDEFINED masks, dictionary
encoding, the vectorized comparison kernel against compare_values, the
join index, dedup, representation resolution (CB001 fallback), and the
pinned OpCounters semantics for vectorized kernels."""

import itertools

import pytest

np = pytest.importorskip("numpy")

from repro.algebra.ast import (
    CConst,
    Col,
    Condition,
    Diff,
    Join,
    Project,
    Rel,
    Select,
    compare_values,
)
from repro.data.instance import Instance
from repro.data.interpretation import UNDEFINED, Interpretation
from repro.data.relation import Relation
from repro.engine.batches import (
    COLUMNAR_UNAVAILABLE,
    ColumnBatch,
    ColumnarFallback,
    Const,
    Deduper,
    INT_LIMIT,
    JoinIndex,
    column_from_values,
    columnar_available,
    compare_columns,
    cross_join,
    drop_undefined,
    resolve_batch_repr,
)
from repro.engine.executor import execute
from repro.errors import EvaluationError


@pytest.fixture(autouse=True)
def _with_numpy(monkeypatch):
    # These tests target the NumPy kernels themselves, so the ambient
    # no-numpy override (set by the CI fallback leg) must not apply —
    # except where a test opts back in via the ``no_numpy`` fixture.
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")


# ---------------------------------------------------------------------------
# Column construction: the exactness contract
# ---------------------------------------------------------------------------

class TestColumnFromValues:
    def test_int_roundtrip(self):
        col = column_from_values([3, -1, 0, 2 ** 40])
        assert col is not None and col.kind == "i8"
        assert col.pylist() == [3, -1, 0, 2 ** 40]
        assert all(type(v) is int for v in col.pylist())

    def test_float_roundtrip(self):
        col = column_from_values([1.5, -0.25, 1e300])
        assert col is not None and col.kind == "f8"
        assert col.pylist() == [1.5, -0.25, 1e300]

    def test_str_roundtrip(self):
        col = column_from_values(["a", "bc", ""])
        assert col is not None and col.kind in ("str", "dict")
        assert col.pylist() == ["a", "bc", ""]

    @pytest.mark.parametrize("values", [
        [1, "a"],           # mixed classes
        [1, 2.0],           # int/float mix would silently unify
        [True, False],      # bools are not ints here
        [float("nan")],     # NaN breaks set semantics
        [2 ** 60],          # beyond the exact int<->float window
        [-(2 ** 60)],
        [(1, 2)],           # no nested structure
        [None],
        ["\x00"],           # NumPy's U dtype strips trailing NULs
        ["a\x00b"],         # reject any NUL: const compares truncate
    ])
    def test_unrepresentable_values_return_none(self, values):
        assert column_from_values(values) is None

    def test_int_limit_boundary_is_inclusive(self):
        assert column_from_values([INT_LIMIT]) is not None
        assert column_from_values([INT_LIMIT + 1]) is None

    def test_mask_substitutes_undefined(self):
        col = column_from_values([1, 0, 3], mask=[False, True, False])
        assert col is not None
        assert col.pylist() == [1, UNDEFINED, 3]

    def test_dictionary_encoding_kicks_in_for_skewed_strings(self):
        values = (["x"] * 50) + (["y"] * 50)
        col = column_from_values(values)
        assert col is not None and col.kind == "dict"
        assert col.pylist() == values

    def test_high_cardinality_strings_stay_plain(self):
        values = [f"s{i}" for i in range(100)]
        col = column_from_values(values)
        assert col is not None and col.kind == "str"
        assert col.pylist() == values


class TestColumnBatch:
    def test_from_rows_to_rows_roundtrip(self):
        rows = [(1, "a", 1.5), (2, "b", 2.5), (3, "a", 3.5)]
        batch = ColumnBatch.from_rows(rows)
        assert batch is not None
        assert len(batch) == 3 and batch.arity == 3
        assert batch.to_rows() == rows
        assert list(batch) == rows

    def test_from_rows_rejects_unrepresentable(self):
        assert ColumnBatch.from_rows([(1,), ("a",)]) is None
        assert ColumnBatch.from_rows([]) is None
        assert ColumnBatch.from_rows([(), ()]) is None

    def test_arity_zero_batch_keeps_multiplicity(self):
        # Project((), R) yields length copies of the empty tuple; zip
        # of no columns would silently drop them (set semantics then
        # collapses to one row downstream, which is correct — but the
        # batch itself must not lose the rows).
        batch = ColumnBatch((), 3)
        assert len(batch) == 3 and batch.arity == 0
        assert batch.to_rows() == [(), (), ()]

    def test_take_and_compress(self):
        batch = ColumnBatch.from_rows([(1, "a"), (2, "b"), (3, "c")])
        taken = batch.take(np.array([2, 0]))
        assert taken.to_rows() == [(3, "c"), (1, "a")]
        kept = batch.compress(np.array([True, False, True]))
        assert kept.to_rows() == [(1, "a"), (3, "c")]

    def test_concat_matching_kinds(self):
        a = ColumnBatch.from_rows([(1,), (2,)])
        b = ColumnBatch.from_rows([(3,)])
        joined = ColumnBatch.concat([a, b])
        assert joined is not None and joined.to_rows() == [(1,), (2,), (3,)]

    def test_concat_mixed_numeric_kinds_returns_none(self):
        a = ColumnBatch.from_rows([(1,)])
        b = ColumnBatch.from_rows([(2.5,)])
        assert ColumnBatch.concat([a, b]) is None

    def test_cross_join_is_left_major(self):
        left = ColumnBatch.from_rows([(1,), (2,)])
        right = ColumnBatch.from_rows([("a",), ("b",)])
        out = cross_join(left, right)
        assert out.to_rows() == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]

    def test_drop_undefined_clears_masks(self):
        col_a = column_from_values([1, 0, 3], mask=[False, True, False])
        col_b = column_from_values([0, 5, 6], mask=[True, False, False])
        batch = ColumnBatch((col_a, col_b), 3)
        out = drop_undefined(batch)
        assert out.to_rows() == [(3, 6)]
        assert all(c.mask is None for c in out.columns)


# ---------------------------------------------------------------------------
# The comparison kernel agrees with compare_values, exhaustively
# ---------------------------------------------------------------------------

SCALARS = [0, 1, 2, -1, 1.5, 2.0, "a", "b", UNDEFINED]
OPS = ["=", "!=", "<", "<=", ">", ">="]


def _column_of(value):
    """A length-1 column holding ``value`` (UNDEFINED via the mask)."""
    if value is UNDEFINED:
        return column_from_values([0], mask=[True])
    return column_from_values([value])


class TestCompareColumns:
    @pytest.mark.parametrize("op", OPS)
    def test_column_vs_column_matches_scalar_semantics(self, op):
        for lv, rv in itertools.product(SCALARS, SCALARS):
            left, right = _column_of(lv), _column_of(rv)
            got = compare_columns(op, left, right, 1)
            want = compare_values(op, lv, rv)
            assert bool(got[0]) == want, (op, lv, rv)

    @pytest.mark.parametrize("op", OPS)
    def test_column_vs_const_matches_scalar_semantics(self, op):
        for lv, rv in itertools.product(SCALARS, SCALARS):
            if rv is UNDEFINED:
                continue  # constants in plans are never UNDEFINED
            got = compare_columns(op, _column_of(lv), Const(rv), 1)
            want = compare_values(op, lv, rv)
            assert bool(got[0]) == want, (op, lv, rv)
            flipped = compare_columns(op, Const(rv), _column_of(lv), 1)
            assert bool(flipped[0]) == compare_values(op, rv, lv), (op, rv, lv)

    def test_dict_column_const_equality_uses_code_space(self):
        values = (["x"] * 40) + (["y"] * 40)
        col = column_from_values(values)
        assert col.kind == "dict"
        eq = compare_columns("=", col, Const("y"), len(values))
        assert int(eq.sum()) == 40
        missing = compare_columns("=", col, Const("z"), len(values))
        assert not missing.any()
        ne = compare_columns("!=", col, Const("z"), len(values))
        assert ne.all()

    def test_unclassifiable_constant_raises_fallback(self):
        col = column_from_values([1, 2])
        with pytest.raises(ColumnarFallback):
            compare_columns("=", col, Const((1, 2)), 2)

    def test_nul_string_constant_raises_fallback(self):
        # np.equal(np.array([""]), "\x00") is True — the U dtype strips
        # trailing NULs — so such constants must never reach a ufunc.
        col = column_from_values(["", "a"])
        with pytest.raises(ColumnarFallback):
            compare_columns("=", col, Const("\x00"), 2)
        with pytest.raises(ColumnarFallback):
            compare_columns("=", col, Const("a\x00"), 2)

    def test_int_float_cross_kind_equality_is_exact(self):
        left = column_from_values([1, 2, 3])
        right = column_from_values([1.0, 2.5, 3.0])
        eq = compare_columns("=", left, right, 3)
        assert eq.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# Join index
# ---------------------------------------------------------------------------

class TestJoinIndex:
    def test_single_key_probe(self):
        build = column_from_values([10, 20, 10, 30])
        index = JoinIndex([build])
        probe = column_from_values([10, 99, 30])
        probe_idx, build_idx = index.probe([probe], 3)
        pairs = sorted(zip(probe_idx.tolist(), build_idx.tolist()))
        assert pairs == [(0, 0), (0, 2), (2, 3)]

    def test_multi_key_probe(self):
        rows = [(1, "a"), (1, "b"), (2, "a"), (1, "a")]
        build = ColumnBatch.from_rows(rows)
        index = JoinIndex(build.columns)
        probe = ColumnBatch.from_rows([(1, "a"), (2, "b"), (2, "a")])
        probe_idx, build_idx = index.probe(probe.columns, 3)
        pairs = sorted(zip(probe_idx.tolist(), build_idx.tolist()))
        assert pairs == [(0, 0), (0, 3), (2, 2)]

    def test_cross_class_keys_never_match(self):
        build = column_from_values([1, 2])
        index = JoinIndex([build])
        probe = column_from_values(["1", "2"])
        probe_idx, _ = index.probe([probe], 2)
        assert len(probe_idx) == 0
        counts = index.match_counts([probe], 2)
        assert counts.tolist() == [0, 0]

    def test_int_float_key_promotion(self):
        build = column_from_values([1, 2, 3])
        index = JoinIndex([build])
        probe = column_from_values([2.0, 2.5])
        counts = index.match_counts([probe], 2)
        assert counts.tolist() == [1, 0]

    def test_match_counts(self):
        build = column_from_values([5, 5, 7])
        index = JoinIndex([build])
        probe = column_from_values([5, 6, 7])
        counts = index.match_counts([probe], 3)
        assert counts.tolist() == [2, 0, 1]


class TestDeduper:
    def test_filter_batch_matches_filter_rows(self):
        rows = [(1, "a"), (2, "b"), (1, "a"), (3, "c"), (2, "b")]
        by_rows = Deduper().filter_rows(rows)
        dedup = Deduper()
        out = dedup.filter_batch(ColumnBatch.from_rows(rows))
        assert out.to_rows() == by_rows
        # a second batch remembers what the first emitted
        again = dedup.filter_batch(ColumnBatch.from_rows([(3, "c"), (4, "d")]))
        assert again.to_rows() == [(4, "d")]

    def test_exclude_set(self):
        dedup = Deduper()
        out = dedup.filter_batch(ColumnBatch.from_rows([(1,), (2,), (3,)]),
                                 exclude={(2,)}.__contains__)
        assert out.to_rows() == [(1,), (3,)]


# ---------------------------------------------------------------------------
# Representation resolution and the CB001 fallback
# ---------------------------------------------------------------------------

class TestResolveBatchRepr:
    def test_defaults_to_tuple(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_REPR", raising=False)
        assert resolve_batch_repr(None) == ("tuple", "")

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_REPR", "column")
        resolved, reason = resolve_batch_repr(None)
        assert resolved == "column" and reason == ""

    def test_unknown_name_raises(self):
        with pytest.raises(EvaluationError):
            resolve_batch_repr("arrow")

    def test_unknown_env_name_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_REPR", "arrow")
        with pytest.raises(EvaluationError):
            resolve_batch_repr(None)

    def test_column_without_numpy_degrades_with_code(self, no_numpy):
        assert not columnar_available()
        resolved, reason = resolve_batch_repr("column")
        assert resolved == "tuple"
        assert COLUMNAR_UNAVAILABLE in reason

    def test_tuple_without_numpy_is_clean(self, no_numpy):
        assert resolve_batch_repr("tuple") == ("tuple", "")

    def test_execute_reports_fallback(self, no_numpy):
        inst = Instance({"R": Relation(1, [(1,), (2,)])})
        report = execute(Rel("R"), inst, Interpretation({}),
                         batch_repr="column")
        assert report.batch_repr == "tuple"
        assert COLUMNAR_UNAVAILABLE in report.batch_repr_error
        assert report.result.rows == {(1,), (2,)}
        assert COLUMNAR_UNAVAILABLE in report.summary()

    def test_execute_column_reports_kernels(self):
        inst = Instance({"R": Relation(1, [(1,), (2,), (3,)])})
        report = execute(Rel("R"), inst, Interpretation({}),
                         batch_repr="column")
        assert report.batch_repr == "column"
        assert report.batch_repr_error == ""
        assert report.counters.kernel_batches > 0
        assert "batch repr: column" in report.summary()


# ---------------------------------------------------------------------------
# OpCounters semantics for vectorized kernels — the pinned contract
# ---------------------------------------------------------------------------

def _run(plan, inst, interp, batch_repr):
    report = execute(plan, inst, interp, batch_repr=batch_repr)
    return report


class TestVectorizedCounterSemantics:
    """`comparisons` counts candidate pairs examined under the
    representation's evaluation order, not short-circuit-aware scalar
    comparisons.  Hash joins examine exactly the index candidates, so
    tuple and column agree; anti-joins with residual conditions examine
    *every* key match in column mode (no early exit), so the column
    count may exceed the tuple count but never undercount."""

    @pytest.fixture
    def inst(self):
        return Instance({
            "R": Relation(1, [(i,) for i in range(20)]),
            "S": Relation(1, [(i % 5,) for i in range(20)]),
            "R2": Relation(2, [(i % 5, i) for i in range(20)]),
        })

    @pytest.fixture
    def interp(self):
        return Interpretation({"f": lambda v: v + 1})

    def test_hash_join_comparisons_match_tuple(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "=", Col(2))}),
                    Rel("R"), Rel("S"))
        tup = _run(plan, inst, interp, "tuple")
        col = _run(plan, inst, interp, "column")
        assert col.result == tup.result
        assert tup.counters.comparisons > 0
        assert col.counters.comparisons == tup.counters.comparisons

    def test_nested_loop_counts_all_pairs(self, inst, interp):
        plan = Join(frozenset({Condition(Col(1), "<", Col(2))}),
                    Rel("R"), Rel("S"))
        tup = _run(plan, inst, interp, "tuple")
        col = _run(plan, inst, interp, "column")
        assert col.result == tup.result
        # Both examine the full cross product: 20 left rows times the 5
        # distinct right rows (set semantics dedupes S).
        assert tup.counters.comparisons == 100
        assert col.counters.comparisons == 100

    def test_anti_join_residual_may_count_more_not_less(self, inst, interp):
        # Diff whose subtrahend shares the key column triggers the
        # anti-join rewrite; the vectorized kernel never short-circuits,
        # so it may examine more candidate pairs — never fewer.
        plan = Diff(Rel("R2"), Project(
            (Col(1), Col(2)),
            Select(frozenset({Condition(Col(2), "<", CConst(10))}),
                   Rel("R2"))))
        tup = _run(plan, inst, interp, "tuple")
        col = _run(plan, inst, interp, "column")
        assert col.result == tup.result
        assert col.counters.comparisons >= tup.counters.comparisons

    def test_masked_rows_still_count_as_candidates(self, inst, interp):
        # Hash join with a residual condition spanning both sides (so it
        # cannot be pushed below the join): candidate pairs whose
        # residual mask rejects them were examined, so both
        # representations count every bucket candidate.
        plan = Join(frozenset({Condition(Col(1), "=", Col(2)),
                               Condition(Col(1), "<", Col(3))}),
                    Rel("R"), Rel("R2"))
        tup = _run(plan, inst, interp, "tuple")
        col = _run(plan, inst, interp, "column")
        assert col.result == tup.result
        assert tup.counters.comparisons == 20  # one candidate per R2 row
        assert col.counters.comparisons == tup.counters.comparisons

    def test_kernel_and_fallback_batches_counted(self, inst, interp):
        plan = Select(frozenset({Condition(Col(1), ">", CConst(5))}),
                      Rel("R"))
        col = _run(plan, inst, interp, "column")
        assert col.counters.kernel_batches > 0
        assert col.counters.fallback_batches == 0
        tup = _run(plan, inst, interp, "tuple")
        assert tup.counters.kernel_batches == 0
        assert tup.counters.fallback_batches == 0
