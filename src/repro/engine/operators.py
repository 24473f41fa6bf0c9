"""Physical operators: the "practical setting" execution substrate.

Section 9 of the paper discusses applying the translation in practical
settings; the payoff of emitting [GT91]-style plans rather than
active-domain plans is only visible on an executor with real join
algorithms.  This module provides a **vectorized (batch-at-a-time)**
physical operator set:

* :class:`ScanOp` — base relation scan;
* :class:`FilterOp` — predicate filter (conditions over columns);
* :class:`MapOp` — extended projection (applies scalar functions);
* :class:`HashJoinOp` — equi-join on column pairs, builds on the right;
* :class:`NestedLoopJoinOp` — theta-join fallback;
* :class:`AntiJoinOp` — generalized difference (context kept once);
* :class:`UnionOp`, :class:`DiffOp` — set operations with dedup;
* :class:`AdomOp` — materializes the function-closed active domain
  (used only by baseline plans).

**The batch protocol.**  Every operator is a pull-based producer of row
*batches*: ``next_batch()`` returns the next non-empty batch of output
tuples, or ``None`` once exhausted.  Source operators chunk their input
into batches of ``batch_size`` rows (default :data:`DEFAULT_BATCH_SIZE`,
overridable via the ``REPRO_BATCH_SIZE`` environment variable);
streaming operators consume one child batch per output batch, so batch
boundaries flow through the pipeline and output batches may be smaller
(filters) or larger (joins) than ``batch_size``.  Predicates and
projections are compiled **once** per operator
(:mod:`repro.engine.compile`) and applied over each batch.
Concatenating an operator's batches yields exactly the row stream the
old tuple-at-a-time protocol produced (property-tested), so batch size
can never change answers.

**Pluggable batch representation.**  A batch is either a plain
``list[tuple]`` (the default *tuple-batch*) or a
:class:`~repro.engine.batches.ColumnBatch` (NumPy-backed columns with
an UNDEFINED validity mask; see :mod:`repro.engine.batches`).  The
planner stamps every operator with the plan-wide ``batch_repr``
(``"tuple"`` or ``"column"``), resolved once per plan like
``batch_size``.  In column mode each operator dispatches per batch: a
``ColumnBatch`` runs the vectorized kernel (boolean-mask selection,
join-index probes over column slices, masked scalar application); a
list — or a batch the kernel cannot represent, signalled by
:class:`~repro.engine.batches.ColumnarFallback` — runs the unchanged
tuple kernel.  ``kernel_batches``/``fallback_batches`` record which
path each batch took, per node and in aggregate, and surface in
``EXPLAIN ANALYZE``.  Either way, ``next_batch()`` stays the protocol
and concatenating the batches yields the same row *set* — the batch
representation can change speed, never answers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Union as _Union

from repro.algebra.ast import ColExpr, Condition
from repro.data.interpretation import Interpretation, UNDEFINED
from repro.data.relation import Relation
from repro.engine.batches import (
    ColumnBatch,
    ColumnarFallback,
    Deduper,
    JoinIndex,
    as_rows,
    columnar_scan,
    concat_gather,
    cross_join,
    drop_undefined,
    require_numpy,
)
from repro.engine.batches import DEFAULT_BATCH_REPR
from repro.engine.compile import (
    compile_colexpr,
    compile_predicate,
    compile_predicate_columnar,
    compile_projection,
    compile_projection_columnar,
    may_be_undefined,
)
from repro.errors import EvaluationError

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "default_batch_size",
    "Batch",
    "OpCounters",
    "PhysicalOp",
    "ProfiledOp",
    "ScanOp",
    "LiteralOp",
    "FilterOp",
    "MapOp",
    "HashJoinOp",
    "NestedLoopJoinOp",
    "EnumerateOp",
    "AntiJoinOp",
    "UnionOp",
    "DiffOp",
    "AdomOp",
    "SharedSubplan",
    "MaterializeOp",
]

#: Rows per source batch when neither the caller nor the environment says
#: otherwise.  Large enough to amortize per-batch overhead, small enough
#: to keep intermediate batches cache-resident.
DEFAULT_BATCH_SIZE = 1024

#: A batch in either representation.  Both support ``len()``, truth
#: testing, and row iteration; ``as_rows()`` converts either to tuples.
Batch = _Union[list, ColumnBatch]


def default_batch_size() -> int:
    """The engine-wide batch size: ``REPRO_BATCH_SIZE`` when set (a
    positive integer), else :data:`DEFAULT_BATCH_SIZE`."""
    raw = os.environ.get("REPRO_BATCH_SIZE", "")
    if not raw:
        return DEFAULT_BATCH_SIZE
    try:
        size = int(raw)
    except ValueError:
        raise EvaluationError(
            f"REPRO_BATCH_SIZE must be a positive integer, got {raw!r}"
        ) from None
    if size < 1:
        raise EvaluationError(
            f"REPRO_BATCH_SIZE must be a positive integer, got {raw!r}")
    return size


@dataclass
class OpCounters:
    """Execution-wide counters shared by every operator of one plan.

    ``rows`` holds rows produced per operator class (the E6 cost
    measure) and ``batches`` the total number of batches those rows
    arrived in.  ``comparisons`` has **one semantics across the join
    family**: it counts the candidate row pairs an operator actually
    examined against its join predicate —

    * :class:`NestedLoopJoinOp` examines every (left, right) pair when
      it has conditions; a pure product (no conditions) examines none;
    * :class:`HashJoinOp` examines only the pairs sharing a hash-bucket
      key (its candidates);
    * :class:`AntiJoinOp` examines candidates up to and including the
      first match (it short-circuits once the left row is disqualified).

    So ``total_comparisons`` is comparable across join algorithms: it is
    the predicate-evaluation work each one performed, which is exactly
    what hashing is supposed to reduce.

    **Vectorized kernels count the same quantity** — candidate pairs
    *examined under that representation's evaluation order*.  A
    column-batch hash-join probe examines exactly the bucket candidates
    the tuple kernel would (equal counts), and pairs whose residual or
    UNDEFINED mask later rejects them still count: a masked-out row was
    examined, not skipped.  The one divergence is short-circuiting —
    a vectorized anti-join with residual conditions evaluates *all*
    candidate pairs where the tuple kernel stops at the first match, so
    its count can be higher (never lower).  ``function_calls`` may
    likewise differ across representations because mask conjunction
    does not short-circuit the way the compiled row predicate does.

    ``kernel_batches``/``fallback_batches`` record, in column mode, how
    many batches took the vectorized kernel vs the tuple fallback; both
    stay zero in tuple mode.
    """

    rows: dict[str, int] = field(default_factory=dict)
    function_calls: int = 0
    batches: int = 0
    comparisons: int = 0
    kernel_batches: int = 0
    fallback_batches: int = 0

    def bump(self, op_name: str, n: int = 1) -> None:
        self.rows[op_name] = self.rows.get(op_name, 0) + n

    def total_rows(self) -> int:
        return sum(self.rows.values())

    @property
    def total_comparisons(self) -> int:
        """Candidate-pair predicate evaluations across all join operators."""
        return self.comparisons


def _key_fn(columns: tuple[int, ...]):
    """Compiled key extractor over 1-based column indexes.

    Single-column keys hash the bare value; wider keys hash the tuple —
    consistently on both build and probe side (both go through here).
    """
    return itemgetter(*(c - 1 for c in columns))


class PhysicalOp:
    """Base class: a pull-based producer of row batches.

    ``next_batch()`` returns the next **non-empty** batch of output
    tuples (a list or a :class:`ColumnBatch`, per ``batch_repr``), or
    ``None`` once the operator is exhausted; ``arity`` is the output
    width.  Operators are single-use (create a fresh tree per
    execution).  Subclasses implement :meth:`_batches`, a generator of
    batches; ``rows()`` remains as a row-at-a-time view for callers that
    want a flat stream.
    """

    arity: int
    counters: OpCounters
    #: Rows per source batch; the planner overwrites this on every
    #: operator it builds (resolving ``REPRO_BATCH_SIZE`` once per plan).
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Batch representation; the planner overwrites this on every
    #: operator it builds (resolving ``REPRO_BATCH_REPR`` once per plan).
    batch_repr: str = DEFAULT_BATCH_REPR
    #: Batches this node processed through its vectorized kernel /
    #: through the tuple fallback (column mode only; both 0 otherwise).
    kernel_batches: int = 0
    fallback_batches: int = 0

    _batch_iter: Iterator[Batch] | None = None

    def next_batch(self) -> Batch | None:
        """The next non-empty batch of output rows, or ``None`` at end."""
        iterator = self._batch_iter
        if iterator is None:
            iterator = self._batch_iter = self._batches()
        return next(iterator, None)

    def _batches(self) -> Iterator[Batch]:  # pragma: no cover - abstract
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        """Row-at-a-time view: the concatenation of ``next_batch()``."""
        while (batch := self.next_batch()) is not None:
            yield from batch

    def _emit(self, name: str, batches: Iterable[Batch]) -> Iterator[Batch]:
        """Count and forward non-empty batches: one ``bump`` per batch."""
        counters = self.counters
        for batch in batches:
            if not batch:
                continue
            counters.bump(name, len(batch))
            counters.batches += 1
            yield batch

    def _note_kernel(self) -> None:
        """Record one batch processed by the vectorized kernel."""
        self.kernel_batches += 1
        self.counters.kernel_batches += 1

    def _note_fallback(self) -> None:
        """Record one batch processed by the tuple fallback."""
        self.fallback_batches += 1
        self.counters.fallback_batches += 1

    def _columnarize(self, chunks: Iterable[list]) -> Iterator[Batch]:
        """Source-side conversion: each chunk becomes a
        :class:`ColumnBatch` when representable, else stays a list
        (counted as a fallback batch)."""
        for chunk in chunks:
            batch = ColumnBatch.from_rows(chunk)
            if batch is None:
                self._note_fallback()
                yield chunk
            else:
                self._note_kernel()
                yield batch


class ProfiledOp(PhysicalOp):
    """Transparent measurement wrapper around one physical operator.

    Used only when the caller asked for an
    :class:`~repro.obs.profile.ExecutionProfile` — the unprofiled path
    never constructs these, so profiling is zero-overhead when off.
    Each ``next_batch()`` on the wrapped operator is timed individually
    (per-batch, not per-row), so a node's ``elapsed_s`` is the
    cumulative time spent producing its batches including its children,
    as in ``EXPLAIN ANALYZE``.  The wrapper additionally snapshots its
    children's elapsed time around each call and accumulates the delta
    into ``child_elapsed_s``, so the profile can report per-node *self*
    time (``elapsed_s - child_elapsed_s``) — the number that actually
    localizes a slow operator.  ``calls`` counts ``next_batch()``
    invocations, including the final exhausted one.  The wrapped node's
    kernel/fallback batch counts are mirrored into the stats after
    every call, so ``EXPLAIN ANALYZE`` can show which path each node
    actually took.
    """

    def __init__(self, inner: PhysicalOp, stats, child_stats=()):
        self.inner = inner
        self.stats = stats  # an obs.profile.OperatorStats (duck-typed)
        self._child_stats = tuple(child_stats)
        self.arity = inner.arity
        self.counters = inner.counters
        self.batch_size = inner.batch_size
        self.batch_repr = inner.batch_repr

    def next_batch(self) -> Batch | None:
        stats = self.stats
        children = self._child_stats
        stats.calls += 1
        child_before = sum(c.elapsed_s for c in children)
        start = time.perf_counter()
        batch = self.inner.next_batch()
        stats.elapsed_s += time.perf_counter() - start
        stats.child_elapsed_s += \
            sum(c.elapsed_s for c in children) - child_before
        stats.kernel_batches = self.inner.kernel_batches
        stats.fallback_batches = self.inner.fallback_batches
        if batch is not None:
            stats.rows_out += len(batch)
        return batch


class ScanOp(PhysicalOp):
    """Scan a stored relation in ``batch_size`` chunks."""

    def __init__(self, relation: Relation, counters: OpCounters):
        self.relation = relation
        self.arity = relation.arity
        self.counters = counters

    def _batches(self) -> Iterator[Batch]:
        chunks: Iterable[Batch]
        if self.batch_repr == "column":
            whole = columnar_scan(self.relation)
            if whole is not None:
                chunks = self._slices(whole)
            else:
                # Not array-representable as a whole; fall back to
                # per-chunk conversion (mixed-type chunks stay rows).
                chunks = self._columnarize(
                    _chunks(self.relation, self.batch_size))
        else:
            chunks = _chunks(self.relation, self.batch_size)
        return self._emit("scan", chunks)

    def _slices(self, whole: ColumnBatch) -> Iterator[Batch]:
        """Zero-copy views of the cached columnar relation layout."""
        size = self.batch_size
        for lo in range(0, len(whole), size):
            self._note_kernel()
            yield whole.slice(lo, lo + size)


class LiteralOp(PhysicalOp):
    """Yield a fixed set of rows as one batch.

    A literal is already materialized, so it is never re-chunked: the
    service's batched parameter binding lands its bound tuples here and
    they flow downstream as the single batch they arrived as.
    """

    def __init__(self, arity: int, rows: frozenset, counters: OpCounters):
        self.arity = arity
        self._rows = rows
        self.counters = counters

    def _batches(self) -> Iterator[Batch]:
        chunks: Iterable[Batch] = iter((list(self._rows),))
        if self.batch_repr == "column":
            chunks = self._columnarize(chunks)
        return self._emit("literal", chunks)


class FilterOp(PhysicalOp):
    """Filter by a conjunction of conditions, compiled once per
    representation: a ``row -> bool`` closure applied as one list
    comprehension per tuple batch, or a ``batch -> mask`` kernel whose
    boolean mask selects the surviving rows of a column batch in one
    ``compress``."""

    def __init__(self, conds: frozenset[Condition], child: PhysicalOp,
                 interpretation: Interpretation):
        self.conds = conds
        self.child = child
        self.arity = child.arity
        self.counters = child.counters
        self.interpretation = interpretation
        self._passes = compile_predicate(conds, interpretation)

    def _batches(self) -> Iterator[Batch]:
        child = self.child
        passes = self._passes
        columnar = self.batch_repr == "column" and passes is not None
        mask_of = (compile_predicate_columnar(self.conds, self.interpretation)
                   if columnar else None)

        def generate() -> Iterator[Batch]:
            while (batch := child.next_batch()) is not None:
                if passes is None:
                    yield batch
                elif mask_of is not None and isinstance(batch, ColumnBatch):
                    try:
                        mask = mask_of(batch)
                    except ColumnarFallback:
                        self._note_fallback()
                        yield [row for row in batch.to_rows() if passes(row)]
                        continue
                    self._note_kernel()
                    yield batch.compress(mask)
                else:
                    if columnar:
                        self._note_fallback()
                    yield [row for row in batch if passes(row)]

        return self._emit("filter", generate())


class MapOp(PhysicalOp):
    """Extended projection with deduplication (set semantics).

    The projection is compiled once per representation; each child batch
    is projected, UNDEFINED-bearing rows are dropped, and a seen-set
    keeps first occurrences only.  The columnar kernel projects pure
    column references zero-copy, applies scalar functions over column
    value streams with UNDEFINED tracked in the validity mask, drops
    masked rows with one ``compress``, and dedups survivors through one
    index gather — the seen-set (plain row tuples, the only hashing
    that matches Python set semantics) is shared with the tuple
    fallback, so mixed streams dedup correctly.  A projection with no
    function applications is total, so the per-row UNDEFINED scan is
    skipped for it (this is the dominant cost on wide intermediates).
    """

    def __init__(self, exprs: tuple[ColExpr, ...], child: PhysicalOp,
                 interpretation: Interpretation):
        self.exprs = exprs
        self.child = child
        self.arity = len(exprs)
        self.counters = child.counters
        self.interpretation = interpretation
        self._project = compile_projection(exprs, interpretation)
        self._may_undef = any(may_be_undefined(e) for e in exprs)

    def _project_rows(self, rows: Iterable[tuple],
                      seen: set[tuple]) -> list[tuple]:
        """Tuple kernel over one batch, against a shared seen-set."""
        project = self._project
        add = seen.add
        out: list[tuple] = []
        append = out.append
        if self._may_undef:
            for projected in map(project, rows):
                if projected in seen:
                    continue
                if any(v is UNDEFINED for v in projected):
                    continue
                add(projected)
                append(projected)
        else:
            for projected in map(project, rows):
                if projected not in seen:
                    add(projected)
                    append(projected)
        return out

    def _batches(self) -> Iterator[Batch]:
        child = self.child
        columnar = self.batch_repr == "column"
        col_project = (compile_projection_columnar(self.exprs,
                                                   self.interpretation)
                       if columnar else None)

        def generate() -> Iterator[Batch]:
            deduper = Deduper()
            seen = deduper.seen
            while (batch := child.next_batch()) is not None:
                if col_project is not None and isinstance(batch, ColumnBatch):
                    try:
                        projected = drop_undefined(col_project(batch))
                    except ColumnarFallback:
                        self._note_fallback()
                        yield self._project_rows(batch.to_rows(), seen)
                        continue
                    self._note_kernel()
                    yield deduper.filter_batch(projected)
                else:
                    if columnar:
                        self._note_fallback()
                    yield self._project_rows(batch, seen)

        return self._emit("map", generate())


def _drain(op: PhysicalOp) -> list[Batch]:
    """Materialize an input as its list of batches."""
    batches: list[Batch] = []
    while (batch := op.next_batch()) is not None:
        batches.append(batch)
    return batches


def _concat_columnar(batches: list[Batch]) -> ColumnBatch | None:
    """One column batch holding every row of ``batches``, or ``None``
    when any batch is a list or the column kinds disagree."""
    if not batches or not all(isinstance(b, ColumnBatch) for b in batches):
        return None
    return ColumnBatch.concat(batches)


class HashJoinOp(PhysicalOp):
    """Equi-join: builds on the right input, then probes one left batch
    at a time.

    ``key_pairs`` are (left column, right column) 1-based pairs; any
    residual non-equi conditions are applied per candidate after the
    probe.  Each bucket candidate examined counts one comparison.

    The tuple kernel builds a hash table keyed by the right key
    columns.  The columnar kernel builds a
    :class:`~repro.engine.batches.JoinIndex` over the build side's key
    *columns* and answers each probe batch with vectorized lookups; the
    matching pairs are gathered straight into output columns (no Python
    row tuples), and because index candidates are exact key matches —
    the same rows a hash bucket holds — the comparison count equals the
    tuple kernel's.
    """

    def __init__(self, key_pairs: tuple[tuple[int, int], ...],
                 residual: frozenset[Condition],
                 left: PhysicalOp, right: PhysicalOp,
                 interpretation: Interpretation):
        self.key_pairs = key_pairs
        self.residual = residual
        self.left = left
        self.right = right
        self.arity = left.arity + right.arity
        self.counters = left.counters
        self.interpretation = interpretation
        self._left_key = _key_fn(tuple(lc for (lc, _rc) in key_pairs))
        self._right_key = _key_fn(tuple(rc for (_lc, rc) in key_pairs))
        self._residual_ok = compile_predicate(residual, interpretation)

    def _probe_rows(self, rows: Iterable[tuple], table: dict) -> list[tuple]:
        """Tuple kernel over one probe batch."""
        left_key = self._left_key
        residual_ok = self._residual_ok
        counters = self.counters
        get = table.get
        out: list[tuple] = []
        extend = out.extend
        for lrow in rows:
            candidates = get(left_key(lrow))
            if not candidates:
                continue
            counters.comparisons += len(candidates)
            if residual_ok is None:
                extend(lrow + rrow for rrow in candidates)
            else:
                extend(combined for rrow in candidates
                       if residual_ok(combined := lrow + rrow))
        return out

    def _build_table(self, rows: Iterable[tuple]) -> dict:
        table: dict = {}
        right_key = self._right_key
        for row in rows:
            table.setdefault(right_key(row), []).append(row)
        return table

    def _batches(self) -> Iterator[Batch]:
        if self.batch_repr == "column":
            return self._emit("hash-join", self._column_generate())
        return self._emit("hash-join", self._tuple_generate())

    def _tuple_generate(self) -> Iterator[Batch]:
        table = self._build_table(row for batch in _drain(self.right)
                                  for row in batch)
        left = self.left
        while (batch := left.next_batch()) is not None:
            yield self._probe_rows(batch, table)

    def _column_generate(self) -> Iterator[Batch]:
        build_batches = _drain(self.right)
        build = _concat_columnar(build_batches)
        index: JoinIndex | None = None
        if build is not None:
            try:
                index = JoinIndex(tuple(build.columns[rc - 1]
                                        for (_lc, rc) in self.key_pairs))
            except ColumnarFallback:
                index = None
        table: dict | None = None

        def fallback_table() -> dict:
            nonlocal table
            if table is None:
                table = self._build_table(
                    row for batch in build_batches for row in batch)
            return table

        residual = self.residual
        col_residual = (compile_predicate_columnar(residual,
                                                   self.interpretation)
                        if residual else None)
        key_pairs = self.key_pairs
        counters = self.counters
        left = self.left
        while (batch := left.next_batch()) is not None:
            if index is None or build is None \
                    or not isinstance(batch, ColumnBatch):
                self._note_fallback()
                yield self._probe_rows(as_rows(batch), fallback_table())
                continue
            probe_keys = tuple(batch.columns[lc - 1]
                               for (lc, _rc) in key_pairs)
            probe_idx, build_idx = index.probe(probe_keys, len(batch))
            counters.comparisons += len(probe_idx)
            if not len(probe_idx):
                self._note_kernel()
                continue
            combined = concat_gather(batch, probe_idx, build, build_idx)
            if col_residual is not None:
                try:
                    mask = col_residual(combined)
                except ColumnarFallback:
                    self._note_fallback()
                    residual_ok = self._residual_ok
                    yield [row for row in combined.to_rows()
                           if residual_ok(row)]
                    continue
                combined = combined.compress(mask)
            self._note_kernel()
            yield combined


class NestedLoopJoinOp(PhysicalOp):
    """Theta-join fallback: materializes the right input once, then
    crosses it with one left batch at a time.

    With conditions, every (left, right) pair is examined (counted as a
    comparison); without conditions this is a pure product and no
    comparisons are counted.  The columnar kernel builds the cross
    product as two index gathers and decides the conditions as one
    boolean mask over the combined batch.
    """

    def __init__(self, conds: frozenset[Condition],
                 left: PhysicalOp, right: PhysicalOp,
                 interpretation: Interpretation):
        self.conds = conds
        self.left = left
        self.right = right
        self.arity = left.arity + right.arity
        self.counters = left.counters
        self.interpretation = interpretation
        self._passes = compile_predicate(conds, interpretation)

    def _cross_rows(self, rows: list[tuple],
                    inner: list[tuple]) -> list[tuple]:
        """Tuple kernel over one left batch."""
        passes = self._passes
        if passes is None:
            return [lrow + rrow for lrow in rows for rrow in inner]
        self.counters.comparisons += len(rows) * len(inner)
        return [combined for lrow in rows for rrow in inner
                if passes(combined := lrow + rrow)]

    def _batches(self) -> Iterator[Batch]:
        def generate() -> Iterator[Batch]:
            columnar = self.batch_repr == "column"
            right_batches = _drain(self.right)
            inner_col = _concat_columnar(right_batches) if columnar else None
            inner_rows: list[tuple] | None = None

            def fallback_inner() -> list[tuple]:
                nonlocal inner_rows
                if inner_rows is None:
                    inner_rows = [row for batch in right_batches
                                  for row in batch]
                return inner_rows

            col_passes = (compile_predicate_columnar(self.conds,
                                                     self.interpretation)
                          if columnar and self.conds else None)
            passes = self._passes
            counters = self.counters
            left = self.left
            while (batch := left.next_batch()) is not None:
                if inner_col is None or not isinstance(batch, ColumnBatch):
                    if columnar:
                        self._note_fallback()
                    yield self._cross_rows(as_rows(batch), fallback_inner())
                    continue
                combined = cross_join(batch, inner_col)
                if col_passes is None:
                    self._note_kernel()
                    yield combined
                    continue
                counters.comparisons += len(batch) * len(inner_col)
                try:
                    mask = col_passes(combined)
                except ColumnarFallback:
                    self._note_fallback()
                    yield [row for row in combined.to_rows() if passes(row)]
                    continue
                self._note_kernel()
                yield combined.compress(mask)

        return self._emit("nl-join", generate())


class EnumerateOp(PhysicalOp):
    """Inverse application via a registered enumerator ([RBS87]/[Coh86]
    extension): appends the derived values for each input row.

    Enumerators return variable-length row sets, so there is no
    vectorized kernel: in column mode each batch runs row-wise (counted
    as a fallback) and the output is re-columnarized best-effort so the
    consumers downstream stay on their kernels.
    """

    def __init__(self, enumerator, inputs: tuple[ColExpr, ...],
                 out_count: int, child: PhysicalOp,
                 interpretation: Interpretation):
        self.enumerator = enumerator
        self.inputs = inputs
        self.out_count = out_count
        self.child = child
        self.arity = child.arity + out_count
        self.counters = child.counters
        self.interpretation = interpretation
        self._input_fns = tuple(
            compile_colexpr(e, interpretation) for e in inputs)

    def _batches(self) -> Iterator[Batch]:
        child = self.child
        input_fns = self._input_fns
        enumerator = self.enumerator
        columnar = self.batch_repr == "column"

        def generate() -> Iterator[Batch]:
            while (batch := child.next_batch()) is not None:
                out: list[tuple] = []
                for row in as_rows(batch):
                    values = [fn(row) for fn in input_fns]
                    if any(v is UNDEFINED for v in values):
                        continue
                    out.extend(row + tuple(derived)
                               for derived in enumerator(*values))
                if columnar:
                    self._note_fallback()
                    recolumnarized = ColumnBatch.from_rows(out)
                    if recolumnarized is not None:
                        yield recolumnarized
                        continue
                yield out

        return self._emit("enumerate", generate())


class AntiJoinOp(PhysicalOp):
    """Rows of the left input with NO right match under the conditions.

    The translator's generalized difference (T15) emits
    ``ctx - project(join(ctx, X))``, which evaluates ``ctx`` twice;
    normalization turns it into an :class:`~repro.algebra.ast.AntiJoin`
    node, which the planner runs as this operator, evaluating ``ctx``
    once.  Equi-conditions build a hash table on the
    right; residual conditions are checked per candidate, short-
    circuiting at the first match (each candidate examined counts one
    comparison).

    The columnar kernel answers the membership question with
    :meth:`~repro.engine.batches.JoinIndex.match_counts` — one count
    per left row, no pair expansion — when there are no residual
    conditions; with residuals it expands the candidate pairs, decides
    the residual as one mask, and drops left rows with any surviving
    match.  The expanded path examines *every* candidate pair (no
    short-circuit), so its comparison count can exceed the tuple
    kernel's — see :class:`OpCounters`.
    """

    def __init__(self, key_pairs: tuple[tuple[int, int], ...],
                 residual: frozenset[Condition],
                 left: PhysicalOp, right: PhysicalOp,
                 interpretation: Interpretation):
        self.key_pairs = key_pairs
        self.residual = residual
        self.left = left
        self.right = right
        self.arity = left.arity
        self.counters = left.counters
        self.interpretation = interpretation
        if key_pairs:
            self._left_key = _key_fn(tuple(lc for (lc, _rc) in key_pairs))
            self._right_key = _key_fn(tuple(rc for (_lc, rc) in key_pairs))
        else:
            self._left_key = self._right_key = None
        self._residual_ok = compile_predicate(residual, interpretation)

    def _filter_rows(self, rows: Iterable[tuple], table: dict,
                     materialized: list[tuple]) -> list[tuple]:
        """Tuple kernel over one left batch."""
        left_key = self._left_key
        residual_ok = self._residual_ok
        counters = self.counters
        get = table.get
        empty: tuple = ()

        def matches(lrow: tuple) -> bool:
            if left_key is not None:
                candidates = get(left_key(lrow), empty)
            else:
                candidates = materialized
            if residual_ok is None:
                if candidates:
                    counters.comparisons += 1
                    return True
                return False
            for rrow in candidates:
                counters.comparisons += 1
                if residual_ok(lrow + rrow):
                    return True
            return False

        return [row for row in rows if not matches(row)]

    def _batches(self) -> Iterator[Batch]:
        if self.batch_repr == "column":
            return self._emit("anti-join", self._column_generate())
        return self._emit("anti-join", self._tuple_generate())

    def _materialize_right(self) -> tuple[dict, list[tuple]]:
        table: dict = {}
        materialized: list[tuple] = []
        right_key = self._right_key
        while (batch := self.right.next_batch()) is not None:
            for row in as_rows(batch):
                materialized.append(row)
                if right_key is not None:
                    table.setdefault(right_key(row), []).append(row)
        return table, materialized

    def _tuple_generate(self) -> Iterator[Batch]:
        table, materialized = self._materialize_right()
        left = self.left
        while (batch := left.next_batch()) is not None:
            yield self._filter_rows(batch, table, materialized)

    def _column_generate(self) -> Iterator[Batch]:
        right_batches = _drain(self.right)
        build = _concat_columnar(right_batches)
        right_empty = not any(len(b) for b in right_batches)
        index: JoinIndex | None = None
        if build is not None and self.key_pairs:
            try:
                index = JoinIndex(tuple(build.columns[rc - 1]
                                        for (_lc, rc) in self.key_pairs))
            except ColumnarFallback:
                build = None
        right_rows: tuple[dict, list[tuple]] | None = None

        def fallback_right() -> tuple[dict, list[tuple]]:
            nonlocal right_rows
            if right_rows is None:
                table: dict = {}
                materialized: list[tuple] = []
                right_key = self._right_key
                for batch in right_batches:
                    for row in as_rows(batch):
                        materialized.append(row)
                        if right_key is not None:
                            table.setdefault(right_key(row), []).append(row)
                right_rows = (table, materialized)
            return right_rows

        residual = self.residual
        col_residual = (compile_predicate_columnar(residual,
                                                   self.interpretation)
                        if residual else None)
        key_pairs = self.key_pairs
        counters = self.counters
        left = self.left
        while (batch := left.next_batch()) is not None:
            if right_empty:
                # Nothing on the right: every left row survives, in
                # whatever representation it arrived.
                if isinstance(batch, ColumnBatch):
                    self._note_kernel()
                else:
                    self._note_fallback()
                yield batch
                continue
            if (build is None and key_pairs) \
                    or not isinstance(batch, ColumnBatch):
                self._note_fallback()
                table, materialized = fallback_right()
                yield self._filter_rows(as_rows(batch), table, materialized)
                continue
            n = len(batch)
            try:
                if key_pairs:
                    assert index is not None and build is not None
                    probe_keys = tuple(batch.columns[lc - 1]
                                       for (lc, _rc) in key_pairs)
                    if col_residual is None:
                        counts = index.match_counts(probe_keys, n)
                        counters.comparisons += int((counts > 0).sum())
                        self._note_kernel()
                        yield batch.compress(counts == 0)
                        continue
                    np = require_numpy()
                    probe_idx, build_idx = index.probe(probe_keys, n)
                    counters.comparisons += len(probe_idx)
                    combined = concat_gather(batch, probe_idx,
                                             build, build_idx)
                    mask = col_residual(combined)
                    keep = np.ones(n, dtype=bool)
                    keep[probe_idx[mask]] = False
                    self._note_kernel()
                    yield batch.compress(keep)
                    continue
                # No equi-keys: candidates are every right row.
                if col_residual is None or build is None:
                    raise ColumnarFallback("no columnar kernel for this shape")
                np = require_numpy()
                counters.comparisons += n * len(build)
                combined = cross_join(batch, build)
                mask = col_residual(combined)
                probe_idx = np.repeat(np.arange(n), len(build))
                keep = np.ones(n, dtype=bool)
                keep[probe_idx[mask]] = False
                self._note_kernel()
                yield batch.compress(keep)
            except ColumnarFallback:
                self._note_fallback()
                table, materialized = fallback_right()
                yield self._filter_rows(as_rows(batch), table, materialized)


class UnionOp(PhysicalOp):
    """Deduplicating union: left batches then right batches, each
    filtered through one shared seen-set (column batches keep their
    layout — survivors are selected with one index gather)."""

    def __init__(self, left: PhysicalOp, right: PhysicalOp):
        self.left = left
        self.right = right
        self.arity = left.arity
        self.counters = left.counters

    def _batches(self) -> Iterator[Batch]:
        def generate() -> Iterator[Batch]:
            columnar = self.batch_repr == "column"
            deduper = Deduper()
            for source in (self.left, self.right):
                while (batch := source.next_batch()) is not None:
                    if isinstance(batch, ColumnBatch):
                        self._note_kernel()
                        yield deduper.filter_batch(batch)
                    else:
                        if columnar:
                            self._note_fallback()
                        yield deduper.filter_rows(batch)

        return self._emit("union", generate())


class DiffOp(PhysicalOp):
    """Set difference: materializes the right side, then filters left
    batches against it (deduplicating).

    The columnar kernel treats the right side as a
    :class:`~repro.engine.batches.JoinIndex` keyed on **all** columns
    and drops left rows whose match count is nonzero — membership as a
    mask, no per-row hashing — before deduplicating the survivors.
    """

    def __init__(self, left: PhysicalOp, right: PhysicalOp):
        self.left = left
        self.right = right
        self.arity = left.arity
        self.counters = left.counters

    def _batches(self) -> Iterator[Batch]:
        def generate() -> Iterator[Batch]:
            columnar = self.batch_repr == "column"
            right_batches = _drain(self.right)
            exclude_col = _concat_columnar(right_batches) if columnar else None
            index: JoinIndex | None = None
            if exclude_col is not None and len(exclude_col):
                try:
                    index = JoinIndex(exclude_col.columns)
                except ColumnarFallback:
                    index = None
            exclude: set[tuple] | None = None

            def exclude_set() -> set[tuple]:
                nonlocal exclude
                if exclude is None:
                    exclude = {row for batch in right_batches
                               for row in as_rows(batch)}
                return exclude

            deduper = Deduper()
            seen = deduper.seen
            add = seen.add
            left = self.left
            while (batch := left.next_batch()) is not None:
                if isinstance(batch, ColumnBatch):
                    if index is not None:
                        counts = index.match_counts(batch.columns, len(batch))
                        survivors = batch.compress(counts == 0)
                        self._note_kernel()
                        if len(survivors):
                            yield deduper.filter_batch(survivors)
                        continue
                    self._note_kernel()
                    excluded = exclude_set() if right_batches else None
                    if excluded:
                        yield deduper.filter_batch(
                            batch, exclude=excluded.__contains__)
                    else:
                        yield deduper.filter_batch(batch)
                    continue
                if columnar:
                    self._note_fallback()
                excluded = exclude_set()
                out: list[tuple] = []
                for row in batch:
                    if row not in excluded and row not in seen:
                        add(row)
                        out.append(row)
                yield out

        return self._emit("diff", generate())


class AdomOp(PhysicalOp):
    """Materialize the function-closed active domain (baseline plans)."""

    def __init__(self, values: frozenset, counters: OpCounters):
        self.values = values
        self.arity = 1
        self.counters = counters

    def _batches(self) -> Iterator[Batch]:
        chunks: Iterable[Batch] = _chunks(
            ((v,) for v in self.values), self.batch_size)
        if self.batch_repr == "column":
            chunks = self._columnarize(chunks)
        return self._emit("adom", chunks)


class SharedSubplan:
    """Compute-once cache for a subplan shared by several plan sites.

    The optimizer's common-subexpression pass hands the planner a set
    of structurally repeated subplans; the planner builds the operator
    tree for each **once**, wraps it in a ``SharedSubplan``, and gives
    every occurrence a :class:`MaterializeOp` reader over it.  The
    first reader to pull drains the inner operator into a row list;
    every reader (including the first) then streams that list in its
    own batches.  Operators are single-use, so sharing the *rows* —
    not the operator — is what makes N occurrences cost one
    evaluation.  Rows are cached as plain tuples regardless of batch
    representation (the readers re-columnarize their own chunks).
    """

    def __init__(self, inner: PhysicalOp):
        self.inner = inner
        self.arity = inner.arity
        self._rows: list[tuple] | None = None

    def rows(self) -> list[tuple]:
        """The materialized result, computing it on first use."""
        if self._rows is None:
            out: list[tuple] = []
            while (batch := self.inner.next_batch()) is not None:
                out.extend(batch)
            self._rows = out
        return self._rows


class MaterializeOp(PhysicalOp):
    """Batch reader over a :class:`SharedSubplan`.

    Each occurrence of a shared subplan gets its own reader (operators
    are single-use), all backed by the same materialization.  Rows are
    re-chunked to this plan's batch size, and counted under
    ``materialize`` — so profiles show how often a shared result was
    re-read without re-charging the work that produced it.
    """

    def __init__(self, shared: SharedSubplan, counters: OpCounters):
        self.shared = shared
        self.arity = shared.arity
        self.counters = counters

    def _batches(self) -> Iterator[Batch]:
        chunks: Iterable[Batch] = _chunks(self.shared.rows(), self.batch_size)
        if self.batch_repr == "column":
            chunks = self._columnarize(chunks)
        return self._emit("materialize", chunks)


def _chunks(rows: Iterable[tuple], size: int) -> Iterator[list[tuple]]:
    """Split a row iterable into ``size``-row batches."""
    iterator = iter(rows)
    while batch := list(islice(iterator, size)):
        yield batch
