"""Pluggable batch representations for the physical engine.

PR 4 made every physical operator a pull-based producer of row
*batches*; this module makes the batch representation itself pluggable:

* the **tuple-batch** — a plain ``list[tuple]``, the default-compatible
  path and the differential oracle's wire format (it is not wrapped in
  any class: a list *is* a tuple-batch); and
* the **column-batch** — :class:`ColumnBatch`, a NumPy-backed columnar
  layout carrying one typed array per column, an UNDEFINED validity
  mask, and an optional dictionary encoding for skewed string columns.

Operators keep the ``next_batch()`` protocol and dispatch per batch:
handed a :class:`ColumnBatch`, they run vectorized kernels (boolean
selection masks, join index probes over column slices, masked scalar
application); handed a list, they run the PR 4 tuple kernels.  The
conversions are lazy and explicit (:meth:`ColumnBatch.to_rows`,
:meth:`ColumnBatch.from_rows`), so mixed streams — a source that could
not columnarize one chunk feeding a vectorized consumer — stay correct.

**Exactness contract.**  A column only holds values whose round-trip
through NumPy is *identity-preserving for the engine's semantics*: a
column is typed ``int64`` only when every value is a plain ``int`` with
``|v| <= 2**53`` (so promotion to float64 during mixed comparisons
stays exact), ``float64`` only when every value is a plain non-NaN
``float``, and a string array only when every value is ``str``.
Anything else — mixed types, bools, NaN, huge integers, exotic
constants — makes :func:`column_from_values` return ``None`` and the
operator falls back to the tuple kernel for that batch.  Batch
representation can therefore never change answers, only speed.

NumPy itself is an **optional dependency** (the ``repro[columnar]``
extra): it is imported lazily, and when it is missing — or the
``REPRO_NO_NUMPY`` environment variable is set, which CI uses to
exercise the no-NumPy configuration — requesting the column
representation degrades to tuple-batches with the single structured
diagnostic code :data:`COLUMNAR_UNAVAILABLE`, reported in the
``batch_repr_error`` field of :class:`~repro.engine.executor.RunReport`.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from threading import Lock
from typing import Any, Callable, Iterable, Sequence

from repro.algebra.ast import compare_values
from repro.data.interpretation import UNDEFINED
from repro.errors import EvaluationError

__all__ = [
    "BATCH_REPRS",
    "DEFAULT_BATCH_REPR",
    "COLUMNAR_UNAVAILABLE",
    "columnar_available",
    "columnar_unavailable_reason",
    "default_batch_repr",
    "resolve_batch_repr",
    "ColumnarFallback",
    "Column",
    "ColumnBatch",
    "Const",
    "column_from_values",
    "const_column",
    "compare_columns",
    "concat_gather",
    "cross_join",
    "drop_undefined",
    "require_numpy",
    "JoinIndex",
    "Deduper",
    "as_rows",
    "columnar_scan",
    "clear_columnar_cache",
]

#: The batch representations :func:`resolve_batch_repr` accepts.
BATCH_REPRS = ("tuple", "column")

#: Representation used when neither the caller nor the environment asks
#: for one.
DEFAULT_BATCH_REPR = "tuple"

#: The single structured diagnostic code for "columnar unavailable":
#: the column representation was requested but NumPy is not importable
#: (or is disabled via ``REPRO_NO_NUMPY``), so the engine fell back to
#: tuple-batches.  Reported on ``RunReport.batch_repr_error``.
COLUMNAR_UNAVAILABLE = "CB001"

#: Largest integer magnitude stored in an int64 column: float64 has 53
#: mantissa bits, so staying under 2**53 keeps int-vs-float comparisons
#: exact after promotion.
INT_LIMIT = 2 ** 53

#: Minimum column length before dictionary encoding is considered, and
#: the maximum distinct-to-length ratio that makes it worthwhile.
DICT_MIN_ROWS = 64
DICT_MAX_RATIO = 0.5

_np_module: Any = None
_np_probed = False
_np_import_error = ""


def _numpy() -> Any:
    """The ``numpy`` module, or ``None`` when unavailable or disabled.

    ``REPRO_NO_NUMPY`` (any non-empty value) is checked on every call so
    tests and CI can disable columnar support without uninstalling
    anything; the import itself is probed once and cached.
    """
    global _np_probed, _np_module, _np_import_error
    if os.environ.get("REPRO_NO_NUMPY", ""):
        return None
    if not _np_probed:
        try:
            import numpy
            _np_module = numpy
        except ImportError as err:  # pragma: no cover - env-dependent
            _np_module = None
            _np_import_error = str(err)
        _np_probed = True
    return _np_module


def columnar_available() -> bool:
    """True iff the column-batch representation can actually run."""
    return _numpy() is not None


def columnar_unavailable_reason() -> str:
    """The coded one-line diagnostic explaining why columnar execution
    is unavailable (empty string when it is available)."""
    if _numpy() is not None:
        return ""
    if os.environ.get("REPRO_NO_NUMPY", ""):
        detail = "disabled by REPRO_NO_NUMPY"
    elif _np_import_error:  # pragma: no cover - env-dependent
        detail = f"numpy import failed: {_np_import_error}"
    else:  # pragma: no cover - env-dependent
        detail = "numpy is not installed"
    return (f"[{COLUMNAR_UNAVAILABLE}] columnar execution unavailable "
            f"({detail}); falling back to tuple batches — install the "
            f"'repro[columnar]' extra to enable it")


def default_batch_repr() -> str:
    """The engine-wide batch representation: ``REPRO_BATCH_REPR`` when
    set (one of :data:`BATCH_REPRS`), else :data:`DEFAULT_BATCH_REPR`."""
    raw = os.environ.get("REPRO_BATCH_REPR", "")
    if not raw:
        return DEFAULT_BATCH_REPR
    return _validated_repr(raw, source="REPRO_BATCH_REPR")


def _validated_repr(name: str, source: str) -> str:
    name = name.strip().lower()
    if name not in BATCH_REPRS:
        known = ", ".join(BATCH_REPRS)
        raise EvaluationError(
            f"{source} must be one of {known}; got {name!r}")
    return name


def resolve_batch_repr(batch_repr: str | None = None) -> tuple[str, str]:
    """Resolve a batch-representation request to ``(name, reason)``.

    ``None`` defers to the ``REPRO_BATCH_REPR`` environment variable
    (same pattern as ``REPRO_BATCH_SIZE``).  An unknown name raises
    :class:`~repro.errors.EvaluationError` eagerly.  When ``column`` is
    requested but NumPy is unavailable, the resolution is ``"tuple"``
    and ``reason`` carries the coded :data:`COLUMNAR_UNAVAILABLE`
    diagnostic — the caller records it (on the RunReport) rather than
    failing, so a missing optional dependency costs speed, never the
    answer.
    """
    if batch_repr is None:
        resolved = default_batch_repr()
    else:
        resolved = _validated_repr(batch_repr, source="batch_repr")
    if resolved == "column" and not columnar_available():
        return "tuple", columnar_unavailable_reason()
    return resolved, ""


class ColumnarFallback(Exception):
    """Raised inside a columnar kernel when this batch cannot be
    processed in column form (unrepresentable values, exotic constants).

    Operators catch it, convert the batch to rows, and run the tuple
    kernel — a per-batch fallback, never an error.
    """


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------

#: Column kinds: ``i8`` int64 values, ``f8`` float64 values, ``str``
#: NumPy unicode values, ``dict`` int64 codes into a sorted unicode
#: dictionary.
_NUMERIC_KINDS = frozenset({"i8", "f8"})
_STRING_KINDS = frozenset({"str", "dict"})


class Const:
    """A compiled constant column expression: one scalar broadcast over
    whatever batch it meets.  Kept scalar so comparisons take the fast
    array-vs-scalar path instead of materializing a full column."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class Column:
    """One typed column of a :class:`ColumnBatch`.

    ``values`` is a NumPy array (int64, float64, unicode, or — for the
    ``dict`` kind — int64 codes into ``dictionary``, a sorted unicode
    array).  ``mask`` is either ``None`` (no UNDEFINED anywhere) or a
    boolean array with ``True`` marking UNDEFINED slots; masked slots
    hold an arbitrary placeholder value and must never be read as data.
    """

    __slots__ = ("kind", "values", "mask", "dictionary", "_decoded")

    def __init__(self, kind: str, values: Any, mask: Any = None,
                 dictionary: Any = None):
        self.kind = kind
        self.values = values
        self.mask = mask
        self.dictionary = dictionary
        self._decoded = values if kind != "dict" else None

    def __len__(self) -> int:
        return len(self.values)

    def decoded(self) -> Any:
        """The value array with dictionary encoding resolved (cached)."""
        if self._decoded is None:
            self._decoded = self.dictionary[self.values]
        return self._decoded

    def pylist(self) -> list:
        """Values as plain Python objects (``int``/``float``/``str``);
        masked slots come back as :data:`~repro.data.interpretation.UNDEFINED`."""
        out = self.decoded().tolist()
        if self.mask is not None and self.mask.any():
            for i in self.mask.nonzero()[0].tolist():
                out[i] = UNDEFINED
        return out

    def take(self, indices: Any) -> "Column":
        """Rows of this column at ``indices`` (a NumPy int array)."""
        return Column(self.kind, self.values[indices],
                      None if self.mask is None else self.mask[indices],
                      self.dictionary)

    def compress(self, keep: Any) -> "Column":
        """Rows of this column where the boolean array ``keep`` holds."""
        return Column(self.kind, self.values[keep],
                      None if self.mask is None else self.mask[keep],
                      self.dictionary)

    def type_class(self) -> str:
        """``"num"`` or ``"str"`` — the comparison class of this column."""
        return "num" if self.kind in _NUMERIC_KINDS else "str"


def _classify_const(value: Any) -> str | None:
    """Comparison class of a constant, or ``None`` when the constant
    cannot be compared vectorized (custom ``__eq__`` could disagree
    with any pointwise shortcut, so those fall back to tuple kernels)."""
    if type(value) is bool or type(value) is int or type(value) is float:
        if type(value) is int and abs(value) > INT_LIMIT:
            return None
        if type(value) is float and value != value:  # NaN: preserve oddity
            return None
        return "num"
    if type(value) is str:
        if "\x00" in value:
            # NumPy's unicode dtype strips trailing NULs, so ufunc
            # comparisons against such a constant would mis-match.
            return None
        return "str"
    return None


def column_from_values(values: Sequence, mask: Sequence[bool] | None = None
                       ) -> Column | None:
    """Build a typed :class:`Column` from Python values, or ``None``
    when the values are not array-representable under the exactness
    contract (mixed types, bools, NaN, out-of-range ints).

    ``mask`` (optional) marks UNDEFINED slots; masked values are ignored
    for typing and replaced by a placeholder.
    """
    np = _numpy()
    if np is None:
        return None
    n = len(values)
    mask_arr = None
    if mask is not None:
        mask_arr = np.asarray(mask, dtype=bool)
        if not mask_arr.any():
            mask_arr = None
    if mask_arr is not None:
        defined = [v for v, dead in zip(values, mask_arr.tolist()) if not dead]
        if not defined:
            # All-UNDEFINED column: typed arbitrarily, fully masked.
            return Column("i8", np.zeros(n, dtype=np.int64), mask_arr)
        kinds = set(map(type, defined))
    else:
        if n == 0:
            return Column("i8", np.zeros(0, dtype=np.int64))
        kinds = set(map(type, values))

    if kinds == {int}:
        fill: Any = 0
        dtype = np.int64
        kind = "i8"
    elif kinds == {float}:
        fill = 0.0
        dtype = np.float64
        kind = "f8"
    elif kinds == {str}:
        fill = ""
        dtype = None
        kind = "str"
    else:
        return None

    if mask_arr is not None:
        values = [fill if dead else v
                  for v, dead in zip(values, mask_arr.tolist())]
    if kind == "i8":
        try:
            arr = np.asarray(values, dtype=dtype)
        except OverflowError:
            return None
        if len(arr) and (int(arr.max()) > INT_LIMIT
                         or int(arr.min()) < -INT_LIMIT):
            return None
        return Column("i8", arr, mask_arr)
    if kind == "f8":
        arr = np.asarray(values, dtype=dtype)
        if np.isnan(arr).any():
            return None
        return Column("f8", arr, mask_arr)
    if any("\x00" in v for v in values):
        # NumPy's fixed-width unicode dtype strips trailing NULs, so
        # strings containing NUL do not round-trip exactly.
        return None
    arr = np.asarray(values, dtype=np.str_)
    if n >= DICT_MIN_ROWS:
        dictionary, codes = np.unique(arr, return_inverse=True)
        if len(dictionary) <= n * DICT_MAX_RATIO:
            return Column("dict", codes.astype(np.int64), mask_arr,
                          dictionary)
    return Column("str", arr, mask_arr)


def const_column(value: Any, n: int) -> Column:
    """Broadcast one constant into a column (raises
    :class:`ColumnarFallback` for unrepresentable constants)."""
    np = _numpy()
    cls = _classify_const(value)
    if np is None or cls is None or type(value) is bool:
        raise ColumnarFallback(f"constant {value!r} is not columnar")
    if type(value) is int:
        return Column("i8", np.full(n, value, dtype=np.int64))
    if type(value) is float:
        return Column("f8", np.full(n, value, dtype=np.float64))
    return Column("str", np.full(n, value))


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

class ColumnBatch:
    """A batch of rows stored column-wise.

    The counterpart of a ``list[tuple]`` tuple-batch: ``len()`` is the
    row count, :meth:`to_rows` converts (cached — boundary operators
    convert lazily and at most once), and :meth:`from_rows` builds one
    from tuples when every column is representable.  Batches flowing
    *between* operators never contain UNDEFINED rows (every producer
    drops them), so inter-operator masks are all-clear; masks carry
    UNDEFINED only transiently inside extended-projection kernels.
    """

    __slots__ = ("columns", "length", "_rows")

    def __init__(self, columns: tuple[Column, ...], length: int):
        self.columns = columns
        self.length = length
        self._rows: list[tuple] | None = None

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        """Iterate rows — so ``set.update(batch)`` and ``yield from
        batch`` treat either representation alike."""
        return iter(self.to_rows())

    @property
    def arity(self) -> int:
        return len(self.columns)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "ColumnBatch | None":
        """Columnarize a non-empty tuple-batch, or ``None`` when any
        column is not array-representable (the caller keeps the rows)."""
        if not rows or not rows[0]:
            return None  # empty batch or arity 0: nothing to columnarize
        columns = []
        for col_values in zip(*rows):
            column = column_from_values(col_values)
            if column is None:
                return None
            columns.append(column)
        batch = cls(tuple(columns), len(rows))
        batch._rows = list(rows)
        return batch

    def to_rows(self) -> list[tuple]:
        """The tuple-batch view of this batch (computed once)."""
        if self._rows is None:
            if self.columns:
                self._rows = list(zip(*(c.pylist() for c in self.columns)))
            else:
                # Arity 0 still carries multiplicity: length copies of
                # the empty tuple (zip of no columns would drop them).
                self._rows = [()] * self.length
        return self._rows

    def take(self, indices: Any) -> "ColumnBatch":
        """The rows at ``indices``, as a new batch."""
        return ColumnBatch(tuple(c.take(indices) for c in self.columns),
                           int(len(indices)))

    def slice(self, lo: int, hi: int) -> "ColumnBatch":
        """Rows ``lo:hi`` as zero-copy array views (dictionaries are
        shared) — how a cached columnar scan is re-chunked per batch
        size without touching the data."""
        columns = tuple(
            Column(c.kind, c.values[lo:hi],
                   None if c.mask is None else c.mask[lo:hi],
                   c.dictionary)
            for c in self.columns)
        return ColumnBatch(columns, max(0, min(hi, self.length) - lo))

    def compress(self, keep: Any) -> "ColumnBatch":
        """The rows where the boolean array ``keep`` holds."""
        columns = tuple(c.compress(keep) for c in self.columns)
        length = len(columns[0]) if columns else int(keep.sum())
        return ColumnBatch(columns, length)

    @classmethod
    def concat(cls, batches: "Sequence[ColumnBatch]") -> "ColumnBatch | None":
        """Concatenate batches of identical arity, or ``None`` when a
        column's kinds disagree across batches (mixed-type column)."""
        np = _numpy()
        if np is None or not batches:
            return None
        if len(batches) == 1:
            return batches[0]
        columns = []
        for parts in zip(*(b.columns for b in batches)):
            decoded = [p.decoded() for p in parts]
            classes = {p.type_class() for p in parts}
            kinds = {p.kind for p in parts}
            if classes == {"num"}:
                if kinds == {"i8"}:
                    values = np.concatenate(decoded)
                    kind = "i8"
                else:
                    # Mixed int/float columns would coerce values; the
                    # exactness contract forbids it.
                    if len(kinds) > 1:
                        return None
                    values = np.concatenate(decoded)
                    kind = "f8"
            elif classes == {"str"}:
                values = np.concatenate(decoded)
                kind = "str"
            else:
                return None
            masks = [p.mask for p in parts]
            if any(m is not None for m in masks):
                mask = np.concatenate([
                    m if m is not None else np.zeros(len(p), dtype=bool)
                    for m, p in zip(masks, parts)])
            else:
                mask = None
            columns.append(Column(kind, values, mask))
        return cls(tuple(columns), sum(len(b) for b in batches))


def concat_gather(left: ColumnBatch, left_idx: Any,
                  right: ColumnBatch, right_idx: Any) -> ColumnBatch:
    """The join-output batch: left columns gathered at ``left_idx``
    beside right columns gathered at ``right_idx`` — no Python row
    tuples are ever built."""
    columns = tuple(c.take(left_idx) for c in left.columns) \
        + tuple(c.take(right_idx) for c in right.columns)
    return ColumnBatch(columns, int(len(left_idx)))


def as_rows(batch: "list[tuple] | ColumnBatch") -> list[tuple]:
    """The tuple-batch view of either representation."""
    if isinstance(batch, ColumnBatch):
        return batch.to_rows()
    return batch


#: Maximum stored relations retained in columnar layout.
SCAN_CACHE_SIZE = 128

_scan_cache: "OrderedDict[int, tuple[Any, ColumnBatch | None]]" = \
    OrderedDict()
_scan_lock = Lock()


def columnar_scan(relation: Any) -> "ColumnBatch | None":
    """The whole stored relation in column layout, or ``None`` when it
    is not array-representable.

    This is the columnar engine's storage layer: a row-major
    :class:`~repro.data.relation.Relation` is converted once and the
    layout is reused across executions (scans then serve zero-copy
    :meth:`ColumnBatch.slice` views), instead of re-columnarizing every
    chunk of every run.  Relations are immutable, so the cache is keyed
    by identity; the entry pins the relation object, which keeps its
    ``id`` stable for the entry's lifetime.  Unrepresentable relations
    cache their ``None`` so the probe is also paid once.
    """
    key = id(relation)
    with _scan_lock:
        entry = _scan_cache.get(key)
        if entry is not None and entry[0] is relation:
            _scan_cache.move_to_end(key)
            return entry[1]
    batch = ColumnBatch.from_rows(list(relation.rows))
    with _scan_lock:
        _scan_cache[key] = (relation, batch)
        _scan_cache.move_to_end(key)
        while len(_scan_cache) > SCAN_CACHE_SIZE:
            _scan_cache.popitem(last=False)
    return batch


def clear_columnar_cache() -> None:
    """Drop every cached columnar relation layout (test hygiene; also
    called by :func:`repro.engine.caches.clear_engine_caches`)."""
    with _scan_lock:
        _scan_cache.clear()


def require_numpy() -> Any:
    """NumPy, or :class:`ColumnarFallback` — for kernels that already
    hold column batches but still guard the (test-only) case of NumPy
    being disabled mid-run."""
    np = _numpy()
    if np is None:
        raise ColumnarFallback("numpy unavailable")
    return np


def cross_join(left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
    """The full cross product as one batch: left rows repeated
    right-length times beside the tiled right rows (left-major, the
    tuple kernel's order)."""
    np = require_numpy()
    nl, nr = len(left), len(right)
    left_idx = np.repeat(np.arange(nl), nr)
    right_idx = np.tile(np.arange(nr), nl)
    return concat_gather(left, left_idx, right, right_idx)


def drop_undefined(batch: ColumnBatch) -> ColumnBatch:
    """Rows whose combined UNDEFINED mask is clear, with the
    survivors' masks dropped (set semantics: no UNDEFINED row flows
    between operators)."""
    masks = [c.mask for c in batch.columns if c.mask is not None]
    if not masks:
        return batch
    undef = masks[0]
    for mask in masks[1:]:
        undef = undef | mask
    if undef.any():
        batch = batch.compress(~undef)
    cleared = tuple(
        c if c.mask is None else Column(c.kind, c.values, None, c.dictionary)
        for c in batch.columns)
    return ColumnBatch(cleared, len(batch))


# ---------------------------------------------------------------------------
# Comparison kernel
# ---------------------------------------------------------------------------

def _apply_masks(np: Any, op: str, out: Any, n: int,
                 *masks: Any) -> Any:
    """Fold UNDEFINED masks into a comparison result: an UNDEFINED
    operand makes ``!=`` true and every other predicate false — the
    :func:`~repro.algebra.ast.compare_values` contract, vectorized."""
    live = [m for m in masks if m is not None]
    if not live:
        return out
    undef = live[0] if len(live) == 1 else np.logical_or(*live)
    if not np.isscalar(out) and out.shape == ():  # pragma: no cover
        out = np.full(n, bool(out))
    if op == "!=":
        return out | undef
    return out & ~undef


def compare_columns(op: str, left: "Column | Const",
                    right: "Column | Const", n: int) -> Any:
    """Vectorized :func:`~repro.algebra.ast.compare_values`: a boolean
    mask of length ``n`` deciding ``left op right`` per row.

    Mirrors the scalar semantics exactly: cross-class operands (number
    vs string) fail ``=`` and every ordering and satisfy ``!=``; an
    UNDEFINED operand does the same; same-class operands compare
    through NumPy ufuncs, which agree with Python on int/float/str.
    Constants that cannot be classified raise
    :class:`ColumnarFallback` (the tuple kernel decides them).
    """
    np = _numpy()
    if np is None:
        raise ColumnarFallback("numpy unavailable")

    if isinstance(left, Const) and isinstance(right, Const):
        return np.full(n, compare_values(op, left.value, right.value))
    if isinstance(left, Const):
        # Flip so the column is on the left; mirror the operator.
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                   "=": "=", "!=": "!="}[op]
        return compare_columns(flipped, right, left, n)

    assert isinstance(left, Column)
    if isinstance(right, Const):
        rcls = _classify_const(right.value)
        if rcls is None:
            raise ColumnarFallback(
                f"constant {right.value!r} is not comparable columnar")
        if left.type_class() != rcls:
            base = np.full(n, op == "!=")
            return _apply_masks(np, op, base, n, left.mask)
        if left.kind == "dict" and op in ("=", "!="):
            # Code-space equality: one binary search in the dictionary.
            pos = int(np.searchsorted(left.dictionary, right.value))
            if (pos < len(left.dictionary)
                    and left.dictionary[pos] == right.value):
                out = (left.values == pos) if op == "=" \
                    else (left.values != pos)
            else:
                out = np.full(n, op == "!=")
            return _apply_masks(np, op, out, n, left.mask)
        lv = left.decoded()
        out = _ufunc(np, op, lv, right.value)
        return _apply_masks(np, op, out, n, left.mask)

    if left.type_class() != right.type_class():
        base = np.full(n, op == "!=")
        return _apply_masks(np, op, base, n, left.mask, right.mask)
    lv, rv = left.decoded(), right.decoded()
    out = _ufunc(np, op, lv, rv)
    return _apply_masks(np, op, out, n, left.mask, right.mask)


def _ufunc(np: Any, op: str, lv: Any, rv: Any) -> Any:
    if op == "=":
        return np.equal(lv, rv)
    if op == "!=":
        return np.not_equal(lv, rv)
    if op == "<":
        return np.less(lv, rv)
    if op == "<=":
        return np.less_equal(lv, rv)
    if op == ">":
        return np.greater(lv, rv)
    if op == ">=":
        return np.greater_equal(lv, rv)
    raise EvaluationError(f"unknown comparison operator {op!r}")


# ---------------------------------------------------------------------------
# Join index
# ---------------------------------------------------------------------------

class JoinIndex:
    """Vectorized equi-key index over a build side's key columns.

    Built once per join from the materialized build input; each probe
    batch is answered with searchsorted lookups (single numeric or
    string key) or build-once composite factorization (every build key
    column is mapped to dense ids via ``np.unique`` at construction and
    the id vectors are combined pairwise with recompression; each probe
    batch is binary-searched into the same id tables, so mixed-width
    strings and int/float promotions stay exact and the build side is
    never refactorized per probe).
    :meth:`probe` expands every matching (probe row, build row) pair;
    :meth:`match_counts` returns how many build rows match each probe
    row without expanding — the anti-join membership kernel.
    """

    def __init__(self, key_columns: Sequence[Column]):
        np = _numpy()
        if np is None:
            raise ColumnarFallback("numpy unavailable")
        self._np = np
        self._keys = list(key_columns)
        self._m = len(self._keys[0]) if self._keys else 0
        self._single = len(self._keys) == 1
        if self._single:
            values = self._keys[0].decoded()
            self._order = np.argsort(values, kind="stable")
            self._sorted = values[self._order]
            return
        # Composite key: factorize the build side ONCE.  Per column the
        # sorted distinct values, then pairwise id combination with
        # recompression (so ids stay < |build| ** 2 at every step and
        # never overflow int64); probe batches are mapped into the same
        # id space by binary search against these tables, paying
        # O(probe * log build) per batch instead of refactorizing the
        # whole build side every probe.
        self._col_uniques: list[Any] = []
        self._combo_uniques: list[Any] = []
        ids = None
        for bc in self._keys:
            uniq, col_ids = np.unique(bc.decoded(), return_inverse=True)
            self._col_uniques.append(uniq)
            if ids is None:
                ids = col_ids
            else:
                combined = ids * max(1, len(uniq)) + col_ids
                uniq2, ids = np.unique(combined, return_inverse=True)
                self._combo_uniques.append(uniq2)
        if ids is None:  # pragma: no cover - keyless index is not built
            ids = np.zeros(0, dtype=np.int64)
        self._order = np.argsort(ids, kind="stable")
        self._sorted = ids[self._order]

    def _probe_ids(self, probe: Sequence[Column]) -> Any | None:
        """Each probe row's dense build-side composite-key id, ``-1``
        for rows whose key never occurs on the build side; ``None``
        when a key column's classes cannot ever match."""
        np = self._np
        n = len(probe[0]) if probe else 0
        ids = None
        valid = np.ones(n, dtype=bool)
        step = 0
        for j, (bc, pc) in enumerate(zip(self._keys, probe)):
            if bc.type_class() != pc.type_class():
                return None
            uniq = self._col_uniques[j]
            if not len(uniq):
                return None  # empty build side: nothing can match
            values = pc.decoded()
            pos = np.minimum(np.searchsorted(uniq, values), len(uniq) - 1)
            valid &= uniq[pos] == values
            if ids is None:
                ids = pos
            else:
                combined = ids * len(uniq) + pos
                uniq2 = self._combo_uniques[step]
                step += 1
                pos2 = np.minimum(np.searchsorted(uniq2, combined),
                                  len(uniq2) - 1)
                valid &= uniq2[pos2] == combined
                ids = pos2
        return np.where(valid, ids, -1)

    def _positions(self, probe: Sequence[Column]
                   ) -> tuple[Any, Any, Any] | None:
        """``(starts, ends, order)`` of each probe row's match run in
        the sorted build side, or ``None`` for a class mismatch."""
        np = self._np
        if self._single:
            bc, pc = self._keys[0], probe[0]
            if bc.type_class() != pc.type_class():
                return None
            values = pc.decoded()
            starts = np.searchsorted(self._sorted, values, side="left")
            ends = np.searchsorted(self._sorted, values, side="right")
            return starts, ends, self._order
        ids = self._probe_ids(probe)
        if ids is None:
            return None
        starts = np.searchsorted(self._sorted, ids, side="left")
        ends = np.searchsorted(self._sorted, ids, side="right")
        return starts, ends, self._order

    def probe(self, probe: Sequence[Column], n: int) -> tuple[Any, Any]:
        """All matching pairs for one probe batch: ``(probe_idx,
        build_idx)`` NumPy index arrays (possibly empty)."""
        np = self._np
        pos = self._positions(probe)
        if pos is None:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        starts, ends, order = pos
        counts = ends - starts
        total = int(counts.sum())
        probe_idx = np.repeat(np.arange(n), counts)
        group_start = np.repeat(starts, counts)
        within = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts)
        build_idx = order[group_start + within]
        return probe_idx, build_idx

    def match_counts(self, probe: Sequence[Column], n: int) -> Any:
        """Per-probe-row match counts (no pair expansion) — the
        membership kernel behind vectorized anti-joins."""
        np = self._np
        pos = self._positions(probe)
        if pos is None:
            return np.zeros(n, dtype=np.int64)
        starts, ends, _ = pos
        return ends - starts


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------

class Deduper:
    """Cross-batch set-semantics filter shared by a columnar kernel and
    its tuple fallback path.

    The seen-set holds plain row tuples (the only representation whose
    hashing matches Python set semantics for arbitrary values), but a
    columnar batch is filtered by *index*: survivors are gathered with
    one ``take``, so the column arrays are never rebuilt row-wise.
    """

    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen: set[tuple] = set()

    def filter_rows(self, rows: Iterable[tuple]) -> list[tuple]:
        """Tuple-kernel path: first occurrences, in order."""
        seen = self.seen
        add = seen.add
        out: list[tuple] = []
        append = out.append
        for row in rows:
            if row not in seen:
                add(row)
                append(row)
        return out

    def filter_batch(self, batch: ColumnBatch,
                     exclude: Callable[[tuple], bool] | None = None
                     ) -> ColumnBatch:
        """Columnar path: drop rows already seen (or excluded), keeping
        column layout via one gather."""
        np = _numpy()
        rows = batch.to_rows()
        seen = self.seen
        add = seen.add
        keep: list[int] = []
        append = keep.append
        if exclude is None:
            for i, row in enumerate(rows):
                if row not in seen:
                    add(row)
                    append(i)
        else:
            for i, row in enumerate(rows):
                if row not in seen and not exclude(row):
                    add(row)
                    append(i)
        if len(keep) == len(rows):
            return batch
        return batch.take(np.asarray(keep, dtype=np.int64))
