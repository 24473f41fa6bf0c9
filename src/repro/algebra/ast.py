"""The extended relational algebra (coordinate positions, after
Heraclitus [GHJ92, GHJ93]).

Relations are sets of positional tuples; coordinates are written ``@1``,
``@2``, ... in the paper and printed the same way here.  The extension
over the classical algebra is the **extended projection**: projection
expressions are *terms over coordinates*, so scalar functions are
applied point-wise — ``project([@1, f(@1)], R)`` pairs every value of R
with its image under ``f`` (the apply-append of the OOAlgebra [Day89]).

Column expressions (:class:`ColExpr`) are a separate small term
language over coordinates::

    Col(1)                    @1
    CConst(42)                42
    CApp("f", (Col(1),))      f(@1)

Algebra nodes:

=================================  ==========================================
``Rel(name)``                      database relation
``Lit(arity, rows)``               literal (constant) relation
``Project(exprs, child)``          extended projection
``Select(conds, child)``           selection by a set of conditions
``Join(conds, left, right)``       conditions over the concatenated columns
``Union / Diff / Product``         set operations
``AntiJoin(arity, conds, l, r)``   rows of ``l`` that join with no row of ``r``
``AdomK(level, extras)``           unary active-domain relation closed under
                                   ``level`` rounds of function application —
                                   used only by the [AB88] baseline translation
=================================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from repro.errors import EvaluationError

__all__ = [
    "ColExpr",
    "Col",
    "CConst",
    "CApp",
    "Condition",
    "compare_values",
    "AlgebraExpr",
    "Rel",
    "Lit",
    "Project",
    "Select",
    "Join",
    "Union",
    "Diff",
    "AntiJoin",
    "Product",
    "AdomK",
    "Params",
    "Enumerate",
    "arity_of",
    "children",
    "with_children",
    "walk_algebra",
    "colexpr_columns",
    "map_columns",
    "map_condition",
    "algebra_size",
    "algebra_function_names",
]


# ---------------------------------------------------------------------------
# Column expressions
# ---------------------------------------------------------------------------

class ColExpr:
    """Abstract base of column expressions (terms over coordinates)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Col(ColExpr):
    """A coordinate reference ``@index`` (1-based, as in the paper)."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise EvaluationError(f"coordinates are 1-based, got @{self.index}")

    def __str__(self) -> str:
        return f"@{self.index}"


@dataclass(frozen=True, slots=True)
class CConst(ColExpr):
    """A constant column expression."""

    value: Hashable

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True, slots=True)
class CApp(ColExpr):
    """A scalar function applied to column expressions: ``f(@1, @2)``."""

    name: str
    args: tuple[ColExpr, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def colexpr_columns(expr: ColExpr) -> frozenset[int]:
    """All coordinate indexes referenced by ``expr``."""
    if isinstance(expr, Col):
        return frozenset({expr.index})
    if isinstance(expr, CConst):
        return frozenset()
    if isinstance(expr, CApp):
        out: set[int] = set()
        for a in expr.args:
            out |= colexpr_columns(a)
        return frozenset(out)
    raise TypeError(f"not a column expression: {expr!r}")


def map_columns(expr: ColExpr, column: Callable[[int], ColExpr]) -> ColExpr:
    """``expr`` with every coordinate ``@i`` replaced by ``column(i)``:
    a renumbering when ``column`` returns ``Col`` values, a substitution
    (projection composition) when it returns arbitrary expressions."""
    if isinstance(expr, Col):
        return column(expr.index)
    if isinstance(expr, CConst):
        return expr
    if isinstance(expr, CApp):
        return CApp(expr.name, tuple(map_columns(a, column) for a in expr.args))
    raise TypeError(f"not a column expression: {expr!r}")


def _colexpr_functions(expr: ColExpr) -> frozenset[str]:
    if isinstance(expr, CApp):
        out = {expr.name}
        for a in expr.args:
            out |= _colexpr_functions(a)
        return frozenset(out)
    return frozenset()


@dataclass(frozen=True, slots=True)
class Condition:
    """A comparison between two column expressions.

    ``op`` is one of ``'='``, ``'!='``, ``'<'``, ``'<='``, ``'>'``,
    ``'>='``.  The paper writes ``@2==@4`` for join and selection
    conditions; the ordering operators realize the externally defined
    arithmetic predicates of Section 9(d).
    """

    left: ColExpr
    op: str
    right: ColExpr

    _OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise EvaluationError(
                f"condition operator must be one of {self._OPS}, got {self.op!r}")

    def columns(self) -> frozenset[int]:
        return colexpr_columns(self.left) | colexpr_columns(self.right)

    def __str__(self) -> str:
        symbol = "==" if self.op == "=" else self.op
        return f"{self.left}{symbol}{self.right}"


def map_condition(cond: Condition,
                  column: Callable[[int], ColExpr]) -> Condition:
    """``cond`` with both operands remapped by :func:`map_columns`."""
    return Condition(map_columns(cond.left, column), cond.op,
                     map_columns(cond.right, column))


def compare_values(op: str, left, right) -> bool:
    """Comparison semantics shared by every evaluator.

    Equality is Python equality; the ordering predicates delegate to
    the host language's ordering, and values the host cannot order
    (e.g. str vs int) simply fail the predicate — external predicates
    hold only where the host defines them.

    Partial functions: an UNDEFINED operand makes ``=`` and every
    ordering predicate false and ``!=`` true — an atom involving an
    undefined application never holds, so its negation does.
    """
    from repro.data.interpretation import UNDEFINED
    if left is UNDEFINED or right is UNDEFINED:
        return op == "!="
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise EvaluationError(f"unknown comparison operator {op!r}")


# ---------------------------------------------------------------------------
# Algebra expressions
# ---------------------------------------------------------------------------

class AlgebraExpr:
    """Abstract base of algebra expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Rel(AlgebraExpr):
    """A database relation by name."""

    name: str


@dataclass(frozen=True, slots=True)
class Lit(AlgebraExpr):
    """A literal relation with explicit rows."""

    arity: int
    rows: frozenset[tuple]

    def __post_init__(self) -> None:
        if not isinstance(self.rows, frozenset):
            object.__setattr__(self, "rows", frozenset(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != self.arity:
                raise EvaluationError(
                    f"literal row {row!r} does not match arity {self.arity}"
                )


@dataclass(frozen=True, slots=True)
class Project(AlgebraExpr):
    """Extended projection: one output column per expression.

    An *empty* expression list projects to arity 0 — the result is the
    one-row arity-0 relation when the child is non-empty and the empty
    relation otherwise, i.e. the boolean "is the child non-empty"; the
    translator uses this for closed subformulas.
    """

    exprs: tuple[ColExpr, ...]
    child: AlgebraExpr

    def __post_init__(self) -> None:
        if not isinstance(self.exprs, tuple):
            object.__setattr__(self, "exprs", tuple(self.exprs))


@dataclass(frozen=True, slots=True)
class Select(AlgebraExpr):
    """Selection by a conjunction of conditions."""

    conds: frozenset[Condition]
    child: AlgebraExpr

    def __post_init__(self) -> None:
        if not isinstance(self.conds, frozenset):
            object.__setattr__(self, "conds", frozenset(self.conds))


@dataclass(frozen=True, slots=True)
class Join(AlgebraExpr):
    """Theta-join: conditions refer to the concatenated coordinates
    (left columns first, then right)."""

    conds: frozenset[Condition]
    left: AlgebraExpr
    right: AlgebraExpr

    def __post_init__(self) -> None:
        if not isinstance(self.conds, frozenset):
            object.__setattr__(self, "conds", frozenset(self.conds))


@dataclass(frozen=True, slots=True)
class Union(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True, slots=True)
class Diff(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True, slots=True)
class AntiJoin(AlgebraExpr):
    """The generalized difference of T15: the rows of ``left`` that no
    row of ``right`` joins with under ``conds``, i.e.
    ``left - project([@1..@arity], join(conds, left, right))``.

    Conditions refer to the concatenated coordinates, as in
    :class:`Join`.  ``arity`` is the left input's arity, stored so the
    paper-style rendering needs no catalog.
    """

    arity: int
    conds: frozenset[Condition]
    left: AlgebraExpr
    right: AlgebraExpr

    def __post_init__(self) -> None:
        if not isinstance(self.conds, frozenset):
            object.__setattr__(self, "conds", frozenset(self.conds))


@dataclass(frozen=True, slots=True)
class Product(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True, slots=True)
class Enumerate(AlgebraExpr):
    """Inverse-application operator for annotated scalar functions
    ([RBS87]/[Coh86] extension; see :mod:`repro.finds.annotations`).

    For each input row, evaluates ``inputs`` (the known values, in the
    annotation's position order) and appends one output row per tuple
    the named enumerator yields — the finitely many derived values
    making the annotated equation true.  Output arity is the child's
    plus ``out_count``.
    """

    enumerator: str
    inputs: tuple[ColExpr, ...]
    out_count: int
    child: AlgebraExpr

    def __post_init__(self) -> None:
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.out_count < 1:
            raise EvaluationError("Enumerate must produce at least one column")


@dataclass(frozen=True, slots=True)
class Params(AlgebraExpr):
    """The run-time parameter relation of a parameterized query
    (Section 9(c): queries that are *em-allowed for X*).

    The host program binds it to a concrete set of parameter tuples
    before execution (:func:`repro.translate.parameterized.bind_parameters`);
    evaluating a plan with an unbound ``Params`` is an error.
    """

    arity: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise EvaluationError("parameter relation needs at least one column")


@dataclass(frozen=True, slots=True)
class AdomK(AlgebraExpr):
    """The unary active-domain relation, closed to ``level`` rounds of
    scalar-function application, extended with the ``extras`` constants.

    This operator exists *only* for the [AB88]-style baseline
    translation; the paper's translation never emits it — that is the
    efficiency point of experiment E6.
    """

    level: int
    extras: frozenset

    def __post_init__(self) -> None:
        if self.level < 0:
            raise EvaluationError("AdomK level must be >= 0")
        if not isinstance(self.extras, frozenset):
            object.__setattr__(self, "extras", frozenset(self.extras))


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

#: How many algebra inputs each node kind has (leaves are absent): a
#: ``child``, or a ``left`` and a ``right``.
_INPUTS: dict[type, int] = {Project: 1, Select: 1, Enumerate: 1, Join: 2,
                            AntiJoin: 2, Union: 2, Diff: 2, Product: 2}


def children(node: AlgebraExpr) -> tuple[AlgebraExpr, ...]:
    """The algebra inputs of ``node``, left to right (none for leaves).

    With :func:`with_children` this is the only code that knows which
    fields of a node are subplans; every plan walker goes through it.
    """
    count = _INPUTS.get(type(node))
    if count == 1:
        return (node.child,)  # type: ignore[attr-defined]
    if count == 2:
        return (node.left, node.right)  # type: ignore[attr-defined]
    return ()


def with_children(node: AlgebraExpr,
                  inputs: Sequence[AlgebraExpr]) -> AlgebraExpr:
    """``node`` rebuilt over ``inputs`` (as :func:`children` lists
    them), every non-input field unchanged."""
    if isinstance(node, Project):
        return Project(node.exprs, inputs[0])
    if isinstance(node, Select):
        return Select(node.conds, inputs[0])
    if isinstance(node, Enumerate):
        return Enumerate(node.enumerator, node.inputs, node.out_count,
                         inputs[0])
    if isinstance(node, Join):
        return Join(node.conds, inputs[0], inputs[1])
    if isinstance(node, AntiJoin):
        return AntiJoin(node.arity, node.conds, inputs[0], inputs[1])
    if isinstance(node, (Union, Diff, Product)):
        return type(node)(inputs[0], inputs[1])
    return node


def walk_algebra(expr: AlgebraExpr) -> Iterator[AlgebraExpr]:
    """Yield ``expr`` and all of its children, pre-order."""
    stack = [expr]
    while stack:
        current = stack.pop()
        yield current
        inputs = children(current)
        if inputs:
            stack.extend(inputs[::-1])


def algebra_size(expr: AlgebraExpr) -> int:
    """Number of operator nodes — the plan-size measure of E9."""
    return sum(1 for _ in walk_algebra(expr))


def algebra_function_names(expr: AlgebraExpr) -> frozenset[str]:
    """Scalar function names applied anywhere in the plan."""
    out: set[str] = set()
    for node in walk_algebra(expr):
        if isinstance(node, Project):
            for e in node.exprs:
                out |= _colexpr_functions(e)
        elif isinstance(node, Enumerate):
            for e in node.inputs:
                out |= _colexpr_functions(e)
        elif isinstance(node, (Select, Join, AntiJoin)):
            for cond in node.conds:
                out |= _colexpr_functions(cond.left)
                out |= _colexpr_functions(cond.right)
    return frozenset(out)


def arity_of(expr: AlgebraExpr, catalog: Mapping[str, int]) -> int:
    """Output arity of ``expr`` given relation arities in ``catalog``.

    Raises :class:`EvaluationError` on inconsistencies (mismatched
    union/diff arities, out-of-range coordinates), making this a static
    type check for plans.
    """
    if isinstance(expr, Rel):
        try:
            return catalog[expr.name]
        except KeyError:
            raise EvaluationError(f"unknown relation {expr.name!r} in plan") from None
    if isinstance(expr, Lit):
        return expr.arity
    if isinstance(expr, AdomK):
        return 1
    if isinstance(expr, Params):
        return expr.arity
    if isinstance(expr, Enumerate):
        child = arity_of(expr.child, catalog)
        for e in expr.inputs:
            bad = [i for i in colexpr_columns(e) if i > child]
            if bad:
                raise EvaluationError(
                    f"enumerate input refers to @{bad[0]} but child arity is {child}")
        return child + expr.out_count
    if isinstance(expr, Project):
        child = arity_of(expr.child, catalog)
        for e in expr.exprs:
            bad = [i for i in colexpr_columns(e) if i > child]
            if bad:
                raise EvaluationError(
                    f"projection refers to @{bad[0]} but child arity is {child}"
                )
        return len(expr.exprs)
    if isinstance(expr, Select):
        child = arity_of(expr.child, catalog)
        for cond in expr.conds:
            bad = [i for i in cond.columns() if i > child]
            if bad:
                raise EvaluationError(
                    f"selection refers to @{bad[0]} but child arity is {child}"
                )
        return child
    if isinstance(expr, (Join, AntiJoin)):
        left = arity_of(expr.left, catalog)
        total = left + arity_of(expr.right, catalog)
        for cond in expr.conds:
            bad = [i for i in cond.columns() if i > total]
            if bad:
                raise EvaluationError(
                    f"join condition refers to @{bad[0]} but joined arity is {total}"
                )
        if isinstance(expr, AntiJoin) and expr.arity != left:
            raise EvaluationError(
                f"anti-join declares arity {expr.arity}, its left input has {left}")
        return total if isinstance(expr, Join) else left
    if isinstance(expr, (Union, Diff)):
        left = arity_of(expr.left, catalog)
        right = arity_of(expr.right, catalog)
        if left != right:
            op = "union" if isinstance(expr, Union) else "difference"
            raise EvaluationError(f"{op} arity mismatch: {left} vs {right}")
        return left
    if isinstance(expr, Product):
        return arity_of(expr.left, catalog) + arity_of(expr.right, catalog)
    raise TypeError(f"not an algebra expression: {expr!r}")
