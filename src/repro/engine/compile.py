"""Generated tuple kernels, and the columnar compilers.

The batch engine (:mod:`repro.engine.operators`) runs every predicate
and projection over whole batches of tuples.  Walking the expression
tree per row — an ``isinstance`` dispatch per node, as
:func:`repro.algebra.evaluator.eval_colexpr` does — or calling a tree
of closures per row costs a Python call per column, application and
condition.  So each operator gets a **kernel** instead: Python source,
generated from the *shape* of its expressions and compiled once, that
loops over a batch with every column access, comparison and scalar
function call inlined.

A shape keeps only the tree structure, integer column positions and
the comparison symbols of :attr:`Condition._OPS`.  Constants, host
functions and function names reach a kernel as arguments of its
generated factory and never as source text, so expressions that differ
only in those share one compiled factory, cached by
:func:`repro.engine.caches.kernel_factory`.

Kernels keep the reference evaluator's semantics, row by row:

* conditions run in ``sorted(conds, key=str)`` order and stop at the
  first that fails; ``=`` and ``!=`` are Python equality, and an
  ordering the host cannot decide (``TypeError``, e.g. str vs int) is
  false — the semantics of :func:`repro.algebra.ast.compare_values`;
* only a function application can be
  :data:`~repro.data.interpretation.UNDEFINED` (rows flowing between
  operators never hold it), so only applications are guarded: an
  UNDEFINED argument skips the call, an UNDEFINED operand makes ``=``
  and every ordering false and ``!=`` true, and a projected row
  holding one is dropped;
* every application is its own call, in evaluation order; each
  application site counts its calls in a local and commits them to
  :meth:`~repro.data.interpretation.Interpretation.add_calls` once per
  batch, also when the batch raises;
* a column beyond the row's width raises the evaluator's
  :class:`~repro.errors.EvaluationError` when a row reaches it.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable

from repro.algebra.ast import CApp, CConst, Col, ColExpr, Condition
from repro.data.interpretation import Interpretation, UNDEFINED
from repro.engine.batches import (
    Column,
    ColumnBatch,
    ColumnarFallback,
    Const,
    column_from_values,
    compare_columns,
    const_column,
)
from repro.engine.caches import kernel_factory
from repro.errors import EvaluationError

__all__ = [
    "compile_kernel",
    "compile_colexpr_columnar",
    "compile_predicate_columnar",
    "compile_projection_columnar",
]

#: Kernel kinds over conditions; ``map`` and ``enumerate`` take column
#: expressions.
_PREDICATE_KINDS = frozenset(
    {"filter", "hash-join", "nl-join", "anti-join", "anti-join-keyed"})

#: The Python operator emitted for each :attr:`Condition._OPS` symbol.
_SYMBOLS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">",
            ">=": ">="}


def compile_kernel(kind: str, terms, interpretation: Interpretation
                   ) -> Callable:
    """The generated kernel of ``kind`` over ``terms``.

    ``terms`` are conditions for the filter and join kinds and column
    expressions for ``map`` and ``enumerate``.  Each kind fixes the
    kernel's signature; every kernel returns the list of output rows:

    * ``filter(rows)`` — the rows satisfying every condition;
    * ``map(rows, seen)`` — the projected rows without UNDEFINED that
      are not yet in ``seen`` (which it extends);
    * ``hash-join(rows, get, left_key, counters)`` — each left row
      concatenated with the bucket ``get(left_key(row))`` rows that
      satisfy the residual; every candidate counts a comparison;
    * ``nl-join(rows, inner)`` — each left row concatenated with the
      ``inner`` rows that satisfy the conditions;
    * ``anti-join(rows, get, left_key, materialized, counters)`` and
      ``anti-join-keyed(...)`` — the left rows with no candidate (all
      of ``materialized``, or the bucket) that satisfies the residual;
      candidates count a comparison up to the first match;
    * ``enumerate(rows, enumerator)`` — each row extended by every
      tuple ``enumerator`` yields for its defined input values.
    """
    consts: list = []
    names: list[str] = []
    if kind in _PREDICATE_KINDS:
        shape = tuple([(cond.op, _shape(cond.left, consts, names),
                        _shape(cond.right, consts, names))
                       for cond in sorted(terms, key=str)])
    else:
        shape = tuple([_shape(expr, consts, names) for expr in terms])
    factory = kernel_factory((kind, shape), _build_factory)
    raw = interpretation.raw
    return factory(tuple(consts), tuple([raw(name) for name in names]),
                   tuple(names), interpretation.add_calls)


def _shape(expr: ColExpr, consts: list, names: list[str]):
    """The shape of ``expr``: its index for a column, ``None`` for a
    constant, the tuple of its argument shapes for an application.
    Appends its constants and function names in evaluation order."""
    kind = type(expr)
    if kind is Col:
        return expr.index
    if kind is CConst:
        consts.append(expr.value)
        return None
    if kind is CApp:
        names.append(expr.name)
        return tuple([_shape(arg, consts, names) for arg in expr.args])
    raise TypeError(f"not a column expression: {expr!r}")


def _build_factory(key: tuple) -> Callable:
    """Compile the factory of one ``(kind, shape)`` key."""
    kind, shape = key
    namespace = {"UNDEFINED": UNDEFINED, "_column_error": _column_error}
    exec(compile(_kernel_source(kind, shape), f"<{kind} kernel>", "exec"),
         namespace)
    return namespace["factory"]


def _column_error(row: tuple, columns: tuple[int, ...]) -> EvaluationError:
    """The error for the first of ``columns`` (1-based, in load order)
    that lies beyond ``row``'s width."""
    width = len(row)
    index = next(c for c in columns if c > width)
    return EvaluationError(
        f"column @{index} out of range for row of width {width}")


def _undefined_test(names: list[str]) -> str:
    return " or ".join(f"{name} is UNDEFINED" for name in names)


def _tuple_display(names: list[str]) -> str:
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


class _Body:
    """The per-row statements of one kernel, emitted from a shape.

    Names: ``c<i>`` holds column ``@i``, ``k<j>`` the j-th constant,
    ``f<s>``/``n<s>``/``t<s>`` application site s's function, call
    count and result.  Column loads are emitted lazily and grouped
    into one ``try`` per run, so each is made once, just before its
    first use, and an ``IndexError`` names the column.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.consts = 0
        self.sites = 0
        self.loaded: set[int] = set()
        self.pending: list[int] = []

    def line(self, text: str) -> None:
        if self.pending:
            loads, self.pending = self.pending, []
            self.lines.append("try:")
            self.lines += [f"    c{i} = row[{i - 1}]" for i in loads]
            self.lines += [
                "except IndexError:",
                f"    raise _column_error(row, {tuple(loads)!r}) from None"]
        self.lines.append(text)

    def value(self, shape) -> tuple[str, bool]:
        """Emit one expression; returns the name holding its value and
        whether that value may be UNDEFINED."""
        if shape is None:
            self.consts += 1
            return f"k{self.consts - 1}", False
        if isinstance(shape, int):
            if shape not in self.loaded:
                self.loaded.add(shape)
                self.pending.append(shape)
            return f"c{shape}", False
        site = self.sites
        self.sites += 1
        args = [self.value(arg) for arg in shape]
        call = f"t{site} = f{site}({', '.join(name for name, _ in args)})"
        guard = _undefined_test([name for name, maybe in args if maybe])
        if guard:
            self.line(f"if {guard}:")
            self.line(f"    t{site} = UNDEFINED")
            self.line("else:")
            self.line(f"    n{site} += 1")
            self.line(f"    {call}")
        else:
            self.line(f"n{site} += 1")
            self.line(call)
        return f"t{site}", True

    def condition(self, shape: tuple, fail: str) -> None:
        """Emit one condition that runs ``fail`` when it does not hold."""
        op, left, right = shape
        a, a_maybe = self.value(left)
        b, b_maybe = self.value(right)
        guard = _undefined_test([name for name, maybe
                                 in ((a, a_maybe), (b, b_maybe)) if maybe])
        test = f"{a} {_SYMBOLS[op]} {b}"
        if op == "=":
            self.line(f"if {guard} or not ({test}): {fail}" if guard
                      else f"if not ({test}): {fail}")
        elif op == "!=":
            self.line(f"if not ({guard} or {test}): {fail}" if guard
                      else f"if not ({test}): {fail}")
        else:
            if guard:
                self.line(f"if {guard}: {fail}")
            self.line("try:")
            self.line(f"    if not ({test}): {fail}")
            self.line("except TypeError:")
            self.line(f"    {fail}")

    def projection(self, shapes: tuple) -> list[str]:
        """Emit the expressions and skip the row when an application
        is UNDEFINED; returns the names holding the values."""
        values = [self.value(shape) for shape in shapes]
        guard = _undefined_test([name for name, maybe in values if maybe])
        if guard:
            self.line(f"if {guard}: continue")
        return [name for name, _ in values]


def _kernel_source(kind: str, shape: tuple) -> str:
    """The Python source of the factory for one kernel shape.

    It defines ``factory(K, F, S, count)`` — constants, raw functions
    and function names in evaluation order, and the call-count sink —
    returning the kernel described in :func:`compile_kernel`.
    """
    body = _Body()
    setup: list[str] = []
    tail: list[str] = []
    counted = kind in ("hash-join", "anti-join", "anti-join-keyed")
    if kind in _PREDICATE_KINDS:
        for cond in shape:
            body.condition(cond, "continue")
    if kind in ("filter", "map", "enumerate"):
        loop, depth = ["for row in rows:"], 4
    else:
        loop, depth = ["for lrow in rows:"], 8
    if kind == "filter":
        params = "rows"
        body.line("append(row)")
    elif kind == "map":
        params = "rows, seen"
        setup.append("add = seen.add")
        projected = _tuple_display(body.projection(shape))
        body.line(f"projected = {projected}")
        body.line("if projected in seen: continue")
        body.line("add(projected)")
        body.line("append(projected)")
    elif kind == "enumerate":
        params = "rows, enumerator"
        inputs = ", ".join(body.projection(shape))
        body.line(f"for derived in enumerator({inputs}):")
        body.line("    append(row + tuple(derived))")
    elif kind == "hash-join":
        params = "rows, get, left_key, counters"
        loop += ["    candidates = get(left_key(lrow))",
                 "    if not candidates: continue",
                 "    cmp += len(candidates)",
                 "    for rrow in candidates:",
                 "        row = lrow + rrow"]
        body.line("append(row)")
    elif kind == "nl-join":
        params = "rows, inner"
        loop += ["    for rrow in inner:",
                 "        row = lrow + rrow"]
        body.line("append(row)")
    elif kind in ("anti-join", "anti-join-keyed"):
        params = "rows, get, left_key, materialized, counters"
        candidates = ("get(left_key(lrow), ())" if kind == "anti-join-keyed"
                      else "materialized")
        loop += [f"    for rrow in {candidates}:", "        cmp += 1"]
        if shape:
            loop.append("        row = lrow + rrow")
        body.line("break")
        tail = ["    else:", "        append(lrow)"]
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    block = loop + [" " * depth + line for line in body.lines] + tail

    kernel = []
    if body.consts:
        kernel.append(
            "".join(f"k{i}, " for i in range(body.consts)) + "= K")
    if body.sites:
        kernel.append("".join(f"f{i}, " for i in range(body.sites)) + "= F")
        kernel.append("".join(f"n{i} = " for i in range(body.sites)) + "0")
    if counted:
        kernel.append("cmp = 0")
    kernel += ["out = []", "append = out.append"] + setup
    if body.sites or counted:
        kernel.append("try:")
        kernel += ["    " + line for line in block]
        kernel.append("finally:")
        if counted:
            kernel.append("    counters.comparisons += cmp")
        for i in range(body.sites):
            kernel.append(f"    if n{i}: count(S[{i}], n{i})")
    else:
        kernel += block
    kernel.append("return out")
    return "\n".join(["def factory(K, F, S, count):",
                      f"    def kernel({params}):",
                      *("        " + line for line in kernel),
                      "    return kernel", ""])


# ---------------------------------------------------------------------------
# Columnar compilation
# ---------------------------------------------------------------------------
#
# The columnar counterparts compile the same expression trees into
# ``batch -> Column`` closures over :class:`ColumnBatch`.  Column
# references are zero-copy (the batch's own array), constants stay
# scalar (:class:`Const`) so comparisons take the array-vs-scalar fast
# path, and function applications call the host function per *defined*
# element with UNDEFINED tracked in the column mask rather than rebuilt
# row tuples.  A kernel that meets values it cannot represent raises
# :class:`ColumnarFallback` at runtime; the operator then reruns that
# one batch through the generated tuple kernels above, so compilation
# itself never fails.

#: A compiled columnar expression: batch -> Column | Const.
BatchFn = Callable[[ColumnBatch], "Column | Const"]


def compile_colexpr_columnar(expr: ColExpr,
                             interpretation: Interpretation) -> BatchFn:
    """Compile one column expression into a ``batch -> column`` kernel."""
    if isinstance(expr, Col):
        index = expr.index - 1

        def col(batch: ColumnBatch) -> Column:
            try:
                return batch.columns[index]
            except IndexError:
                raise EvaluationError(
                    f"column @{index + 1} out of range for row of width "
                    f"{batch.arity}") from None

        return col
    if isinstance(expr, CConst):
        constant = Const(expr.value)
        return lambda batch: constant
    if isinstance(expr, CApp):
        fn = interpretation[expr.name]   # counting wrapper, hoisted once
        arg_fns = tuple(
            compile_colexpr_columnar(a, interpretation) for a in expr.args)

        def apply(batch: ColumnBatch) -> Column:
            n = len(batch)
            streams = []
            for arg_fn in arg_fns:
                arg = arg_fn(batch)
                if isinstance(arg, Const):
                    streams.append(repeat(arg.value, n))
                else:
                    streams.append(arg.pylist())
            values: list[Any] = []
            mask: list[bool] = []
            add_value = values.append
            add_mask = mask.append
            if len(streams) == 1:
                for v in streams[0]:
                    if v is UNDEFINED:
                        result: Any = UNDEFINED
                    else:
                        result = fn(v)
                    if result is UNDEFINED:
                        add_value(None)
                        add_mask(True)
                    else:
                        add_value(result)
                        add_mask(False)
            else:
                for args in zip(*streams):
                    if any(a is UNDEFINED for a in args):
                        result = UNDEFINED
                    else:
                        result = fn(*args)
                    if result is UNDEFINED:
                        add_value(None)
                        add_mask(True)
                    else:
                        add_value(result)
                        add_mask(False)
            column = column_from_values(values, mask)
            if column is None:
                raise ColumnarFallback(
                    f"result of {expr.name} is not array-representable")
            return column

        return apply
    raise TypeError(f"not a column expression: {expr!r}")


def compile_predicate_columnar(conds: frozenset[Condition],
                               interpretation: Interpretation
                               ) -> Callable[[ColumnBatch], Any] | None:
    """Compile a conjunction into one ``batch -> bool-mask`` kernel, or
    ``None`` for the empty (always-true) conjunction.

    Unlike a tuple kernel, the mask kernel evaluates **every**
    condition over **every** row — there is no short-circuit AND — so
    ``function_calls`` may exceed the tuple path's on batches where an
    earlier condition already failed.  Answers are unaffected (the
    masks are ANDed), and comparison counting for joins is handled by
    the operators, not here.
    """
    compiled = tuple(
        (compile_colexpr_columnar(c.left, interpretation), c.op,
         compile_colexpr_columnar(c.right, interpretation))
        for c in sorted(conds, key=str)
    )
    if not compiled:
        return None

    def mask_of(batch: ColumnBatch) -> Any:
        n = len(batch)
        out = None
        for left, op, right in compiled:
            mask = compare_columns(op, left(batch), right(batch), n)
            out = mask if out is None else out & mask
        return out

    return mask_of


def compile_projection_columnar(exprs: tuple[ColExpr, ...],
                                interpretation: Interpretation
                                ) -> Callable[[ColumnBatch], ColumnBatch]:
    """Compile an extended projection into one ``batch -> batch``
    kernel.

    Pure column references are zero-copy; function applications return
    masked columns.  The caller drops rows whose combined mask is set
    (set semantics: no domain value equals an undefined application).
    """
    fns = tuple(compile_colexpr_columnar(e, interpretation) for e in exprs)

    def project(batch: ColumnBatch) -> ColumnBatch:
        n = len(batch)
        columns = []
        for fn in fns:
            column = fn(batch)
            if isinstance(column, Const):
                column = const_column(column.value, n)
            columns.append(column)
        return ColumnBatch(tuple(columns), n)

    return project
