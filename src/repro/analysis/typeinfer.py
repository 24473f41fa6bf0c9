"""Abstract interpretation over the extended algebra: per-column facts.

The paper's safety theorem says every em-allowed query translates to a
plan whose answer is a *finite* relation over values reachable from the
active domain by at most ``k`` function applications (the ``term_k``
closure of Section 5).  This module makes that bound — and everything
else a plan's shape implies about its columns — explicit: a bottom-up
abstract interpreter assigns each plan node a :class:`NodeFacts` value
carrying, per output column, a :class:`ColumnFact` lattice element:

* ``vtype`` — the value type, from relation schemas and declared
  scalar-function signatures ("any" = unknown top, "never" = the empty
  bottom of statically unsatisfiable columns);
* ``nullable`` — whether the column can hold
  :data:`~repro.data.interpretation.UNDEFINED` *during projection
  construction* (rows carrying UNDEFINED are dropped before they flow
  between operators, so nullability here tracks which function columns
  force that per-row scan and which comparisons can be vacuous);
* ``depth`` — how many scalar-function applications separate the
  column from stored values: the column's values lie in
  ``term_depth(adom(I) ∪ consts)``, the plan-level finiteness
  certificate (:class:`FinitenessCertificate`);
* ``const``/``is_const`` — the column is pinned to one value by a
  literal or an equality selection;
* ``sources`` — column provenance: the stored ``(relation, column)``
  coordinates this column's values are drawn from.

Key facts (distinctness) ride along per node: a key is a column set
whose values determine the whole row; the full column set is always a
key under set semantics and is kept implicit.  So do classes of
columns known to hold equal values in every row (from ``@i = @j``
conditions), which narrow together: a fact learnt about one member
holds for all, wherever in the plan the equality was applied.

Inference never raises — not on type problems, and not on a malformed
plan: it *records* both as
:class:`~repro.analysis.diagnostics.Diagnostic` values with stable
codes.  Structural findings (``PL0xx``, error severity) name the
offending node by its path from the root (``plan.left.child``); a node
whose arity cannot be determined has no facts, and checks that depend
on it are skipped rather than cascading:

=====  ==========================================================
code   finding
=====  ==========================================================
PL001  projection expression refers to an out-of-range column
PL002  union/difference/anti-join of mismatched arities
PL003  selection/join condition refers to a missing column
PL004  unknown relation name in the plan
PL005  enumerate input refers to an out-of-range column
PL006  plan arity differs from the declared/expected arity
=====  ==========================================================

Type findings carry ``TY0xx`` codes:

=====  ========  ====================================================
code   severity  meaning
=====  ========  ====================================================
TY001  warning   scalar function is not declared in the schema
TY002  error     function applied with the wrong number of arguments
TY003  warning   comparison of disjoint types can never hold
TY004  info      ordering compares a possibly-UNDEFINED operand
TY005  info      const-vs-const comparison left in the plan
TY006  warning   function argument type conflicts with the signature
=====  ========  ====================================================

The facts feed three consumers: the ``repro typecheck`` CLI, the
typed-facts lines of EXPLAIN ANALYZE, and the translation validator
(:mod:`repro.analysis.validate`), whose root-refinement obligation
compares the facts of a plan before and after a rewrite phase.  The
structural findings feed plan verification: :func:`sanitize_plan`
lists them and :func:`check_plan` raises
:class:`~repro.errors.PlanInvariantError` on any; the translation
pipeline and the optimizer call it after every phase when plan
verification is on.  Verification follows the observability
subsystem's zero-overhead pattern: a module-level default (off) that
the test suite switches on globally via :func:`set_verify_plans`, plus
a per-call override on ``translate_query(..., verify_plans=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Hashable, Iterable, Mapping

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    AntiJoin,
    CApp,
    CConst,
    Col,
    ColExpr,
    Condition,
    Diff,
    Enumerate,
    Join,
    Lit,
    Params,
    Product,
    Project,
    Rel,
    Select,
    Union,
    children,
    colexpr_columns,
)
from repro.analysis.diagnostics import ERROR, INFO, WARNING, Diagnostic
from repro.core.schema import DatabaseSchema
from repro.data.interpretation import UNDEFINED
from repro.errors import PlanInvariantError

__all__ = [
    "TYPE_ANY",
    "TYPE_NEVER",
    "ColumnFact",
    "check_plan",
    "FinitenessCertificate",
    "NodeFacts",
    "PlanTypes",
    "infer_plan_types",
    "join_types",
    "meet_types",
    "refinement_violations",
    "render_typed_plan",
    "sanitize_plan",
    "set_verify_plans",
    "value_type",
    "verify_plans_enabled",
]

#: Lattice top: nothing is known about the value type.
TYPE_ANY = "any"
#: Lattice bottom: the column can hold no value (empty relation or a
#: statically unsatisfiable conjunction of conditions).
TYPE_NEVER = "never"

#: Cap on the number of non-trivial keys tracked per node.
MAX_KEYS = 12

#: Comparison operators with an order semantics (UNDEFINED never passes).
_ORDERINGS = frozenset({"<", "<=", ">", ">="})

#: Module-wide default for plan verification.  Off in production (zero
#: overhead: the pipeline's only cost is one boolean test); switched on
#: globally by the test suite's conftest.
_VERIFY_PLANS_DEFAULT = False


def set_verify_plans(enabled: bool) -> bool:
    """Set the module-wide verification default; returns the previous
    value so callers can restore it."""
    global _VERIFY_PLANS_DEFAULT
    previous = _VERIFY_PLANS_DEFAULT
    _VERIFY_PLANS_DEFAULT = bool(enabled)
    return previous


def verify_plans_enabled(override: bool | None = None) -> bool:
    """Resolve a per-call override (None means "use the default")."""
    if override is None:
        return _VERIFY_PLANS_DEFAULT
    return bool(override)


def value_type(value: Hashable) -> str:
    """The lattice element describing one concrete value."""
    if value is UNDEFINED:
        return TYPE_ANY
    return type(value).__name__


def join_types(a: str, b: str) -> str:
    """Least upper bound: the type of a value drawn from ``a`` or ``b``."""
    if a == TYPE_NEVER:
        return b
    if b == TYPE_NEVER:
        return a
    if a == b:
        return a
    return TYPE_ANY


def meet_types(a: str, b: str) -> str:
    """Greatest lower bound: the type of a value in both ``a`` and ``b``."""
    if a == TYPE_ANY:
        return b
    if b == TYPE_ANY:
        return a
    if a == b:
        return a
    return TYPE_NEVER


@dataclass(frozen=True, slots=True)
class ColumnFact:
    """Everything inferred about one output column of a plan node."""

    vtype: str = TYPE_ANY
    nullable: bool = False
    depth: int = 0
    const: Hashable = None
    is_const: bool = False
    sources: frozenset[tuple[str, int]] = frozenset()

    def merge(self, other: "ColumnFact") -> "ColumnFact":
        """Least upper bound (union of the two value sets).

        A ``never`` column is the lattice bottom (it holds no values),
        so merging it returns the other fact unchanged.
        """
        if self.vtype == TYPE_NEVER:
            return other
        if other.vtype == TYPE_NEVER:
            return self
        both_const = (self.is_const and other.is_const
                      and self.const == other.const)
        return ColumnFact(
            vtype=join_types(self.vtype, other.vtype),
            nullable=self.nullable or other.nullable,
            depth=max(self.depth, other.depth),
            const=self.const if both_const else None,
            is_const=both_const,
            sources=self.sources | other.sources,
        )

    def describe(self) -> str:
        text = self.vtype
        if self.nullable:
            text += "?"
        if self.is_const:
            text += f"={self.const!r}"
        return text


@dataclass(frozen=True, slots=True)
class FinitenessCertificate:
    """The plan-level finiteness bound: every output value lies in the
    ``term_k`` closure of the active domain plus the plan's constants,
    where ``k`` is the maximum per-column function depth."""

    k: int
    per_column: tuple[int, ...]

    def __str__(self) -> str:
        if self.k == 0:
            return "adom(I) + consts"
        return f"term_{self.k}(adom(I) + consts)"


@dataclass(frozen=True, slots=True)
class NodeFacts:
    """The inferred facts of one plan node: per-column lattice elements
    plus the node's non-trivial keys (the full column set is always a
    key under set semantics and stays implicit) and its classes of
    columns equal in every row (singletons stay implicit)."""

    arity: int
    columns: tuple[ColumnFact, ...]
    keys: frozenset[frozenset[int]] = frozenset()
    equal: frozenset[frozenset[int]] = frozenset()

    @property
    def max_depth(self) -> int:
        return max((c.depth for c in self.columns), default=0)

    def certificate(self) -> FinitenessCertificate:
        return FinitenessCertificate(
            self.max_depth, tuple(c.depth for c in self.columns))

    def describe(self) -> str:
        """One-line rendering for EXPLAIN / typecheck output."""
        parts = ["[" + ", ".join(c.describe() for c in self.columns) + "]"]
        if self.keys:
            rendered = sorted(
                "{" + ",".join(str(i) for i in sorted(k)) + "}"
                for k in self.keys)
            parts.append("key" + "".join(rendered))
        if self.max_depth:
            parts.append(str(self.certificate()))
        return " ".join(parts)


@dataclass
class PlanTypes:
    """Result of :func:`infer_plan_types`.  ``root`` is None when the
    plan is malformed (its arity cannot be determined); the ``PL0xx``
    diagnostics say why."""

    root: NodeFacts | None
    facts: dict[AlgebraExpr, NodeFacts]
    diagnostics: list[Diagnostic]

    def facts_of(self, node: AlgebraExpr) -> NodeFacts:
        return self.facts[node]


def refinement_violations(after: NodeFacts, before: NodeFacts) -> list[str]:
    """How ``after`` fails to refine ``before`` (empty when it does).

    A semantics-preserving rewrite may only *narrow* what is known about
    the root: types stay equal or become ``never``, nullability may only
    be cleared, function depth may only shrink, provenance may only lose
    sources, and a pinned constant stays pinned.
    """
    problems: list[str] = []
    if after.arity != before.arity:
        return [f"arity changed from {before.arity} to {after.arity}"]
    for i, (a, b) in enumerate(zip(after.columns, before.columns), start=1):
        if a.vtype == TYPE_NEVER:
            continue  # bottom refines everything
        if b.vtype != TYPE_ANY and a.vtype != b.vtype:
            problems.append(
                f"column @{i} type widened from {b.vtype} to {a.vtype}")
        if a.nullable and not b.nullable:
            problems.append(f"column @{i} became nullable")
        if a.depth > b.depth:
            problems.append(
                f"column @{i} function depth grew from {b.depth} to {a.depth}")
        if not (a.sources <= b.sources):
            gained = sorted(f"{r}@{c}" for r, c in a.sources - b.sources)
            problems.append(
                f"column @{i} gained provenance {', '.join(gained)}")
        if b.is_const and not (a.is_const and a.const == b.const):
            problems.append(
                f"column @{i} lost constant value {b.const!r}")
    return problems


def _merge_classes(classes: Iterable[frozenset[int]],
                   conds: Iterable[Condition]) -> frozenset[frozenset[int]]:
    """``classes`` with every ``@i = @j`` condition's two columns merged
    into one class."""
    merged = [set(c) for c in classes]
    for cond in conds:
        if not (cond.op == "=" and isinstance(cond.left, Col)
                and isinstance(cond.right, Col)):
            continue
        pair = {cond.left.index, cond.right.index}
        touching = [c for c in merged if c & pair]
        merged = [c for c in merged if not c & pair]
        merged.append(pair.union(*touching))
    return frozenset(frozenset(c) for c in merged if len(c) > 1)


def _minimize_keys(keys: Iterable[frozenset[int]],
                   arity: int) -> frozenset[frozenset[int]]:
    """Drop the trivial full-column key, supersets of other keys, and
    cap the set at :data:`MAX_KEYS` (smallest first)."""
    full = frozenset(range(1, arity + 1))
    candidates = sorted(
        {k for k in keys if k != full},
        key=lambda k: (len(k), sorted(k)))
    kept: list[frozenset[int]] = []
    for k in candidates:
        if any(other <= k for other in kept):
            continue
        kept.append(k)
        if len(kept) >= MAX_KEYS:
            break
    return frozenset(kept)


class _Inferencer:
    def __init__(self, catalog: Mapping[str, int],
                 schema: DatabaseSchema | None) -> None:
        self.catalog = catalog
        self.schema = schema
        self.facts: dict[AlgebraExpr, NodeFacts] = {}
        self.diagnostics: list[Diagnostic] = []
        self._seen: set[tuple[str, str]] = set()

    # -- diagnostics --------------------------------------------------------

    def diag(self, code: str, severity: str, message: str,
             subject: str = "", suggestion: str = "") -> None:
        dedup = (code, message)
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        self.diagnostics.append(Diagnostic(
            code=code, severity=severity, message=message, path="plan",
            subject=subject, suggestion=suggestion))

    # -- column expressions -------------------------------------------------

    def expr_fact(self, expr: ColExpr,
                  columns: tuple[ColumnFact, ...]) -> ColumnFact:
        if isinstance(expr, Col):
            try:
                return columns[expr.index - 1]
            except IndexError:
                return ColumnFact()  # reported as PL001/PL003/PL005
        if isinstance(expr, CConst):
            if expr.value is UNDEFINED:
                return ColumnFact(vtype=TYPE_ANY, nullable=True)
            return ColumnFact(vtype=value_type(expr.value),
                              const=expr.value, is_const=True)
        if isinstance(expr, CApp):
            args = [self.expr_fact(a, columns) for a in expr.args]
            depth = 1 + max((a.depth for a in args), default=0)
            sources = frozenset().union(*(a.sources for a in args))
            vtype = TYPE_ANY
            nullable = True
            schema = self.schema
            if schema is not None and schema.has_function(expr.name):
                sig = schema.function(expr.name)
                if sig.arity != len(expr.args):
                    self.diag(
                        "TY002", ERROR,
                        f"function {expr.name} applied to {len(expr.args)} "
                        f"argument(s), declared with {sig.arity}",
                        subject=str(expr))
                vtype = getattr(sig, "returns", TYPE_ANY) or TYPE_ANY
                nullable = (not sig.total) or any(a.nullable for a in args)
                declared = getattr(sig, "arg_types", ()) or ()
                for pos, (want, got) in enumerate(zip(declared, args),
                                                  start=1):
                    if (want not in (TYPE_ANY, "") and got.vtype
                            not in (TYPE_ANY, TYPE_NEVER, want)):
                        self.diag(
                            "TY006", WARNING,
                            f"function {expr.name} argument {pos} has type "
                            f"{got.vtype}, signature declares {want}",
                            subject=str(expr))
            elif schema is not None:
                self.diag(
                    "TY001", WARNING,
                    f"function {expr.name} is not declared in the schema",
                    subject=str(expr),
                    suggestion=f"declare {expr.name}/{len(expr.args)} with "
                               "with_function() so totality and types are "
                               "known")
            return ColumnFact(vtype=vtype, nullable=nullable, depth=depth,
                              sources=sources)
        raise TypeError(f"not a column expression: {expr!r}")

    # -- condition narrowing ------------------------------------------------

    def narrow(self, columns: tuple[ColumnFact, ...],
               conds: frozenset[Condition], keys: frozenset,
               equal: frozenset[frozenset[int]] = frozenset(),
               ) -> tuple[tuple[ColumnFact, ...], frozenset,
                          frozenset[frozenset[int]]]:
        """Facts, keys and equal-column classes of the rows *surviving*
        ``conds`` over ``columns`` (whose classes are ``equal``)."""
        equal = _merge_classes(equal, conds)
        cols = list(columns)
        previous: list[ColumnFact] | None = None
        while previous != cols:
            previous = list(cols)
            self._narrow_once(cols, conds)
            self._narrow_classes(cols, equal)
        # const-pinned columns are redundant in keys
        pinned = frozenset(
            i + 1 for i, c in enumerate(cols) if c.is_const)
        if pinned:
            keys = frozenset(k - pinned for k in keys) | keys
        return tuple(cols), _minimize_keys(keys, len(cols)), equal

    def _narrow_classes(self, cols: list[ColumnFact],
                        equal: frozenset[frozenset[int]]) -> None:
        """Give every member of a class the meet of the members' types
        and any constant one of them is pinned to; two different
        constants leave the class empty (``never``)."""
        for members in equal:
            facts = [cols[i - 1] for i in members]
            vtype = reduce(meet_types, (f.vtype for f in facts), TYPE_ANY)
            pinned = [f.const for f in facts if f.is_const]
            if any(c != pinned[0] for c in pinned):
                vtype = TYPE_NEVER
            for i in members:
                fact = self._with_type(cols[i - 1], vtype)
                if pinned and vtype != TYPE_NEVER and not fact.is_const:
                    fact = replace(fact, const=pinned[0], is_const=True)
                cols[i - 1] = fact

    def _narrow_once(self, cols: list[ColumnFact],
                     conds: frozenset[Condition]) -> None:
        for cond in conds:
            lf = self.expr_fact(cond.left, tuple(cols))
            rf = self.expr_fact(cond.right, tuple(cols))
            if (isinstance(cond.left, CConst)
                    and isinstance(cond.right, CConst)):
                self.diag("TY005", INFO,
                          f"constant comparison {cond} left in the plan",
                          subject=str(cond),
                          suggestion="the optimizer's constant-folding pass "
                                     "decides it at plan time")
            if cond.op != "!=":
                if (lf.vtype not in (TYPE_ANY, TYPE_NEVER)
                        and rf.vtype not in (TYPE_ANY, TYPE_NEVER)
                        and lf.vtype != rf.vtype):
                    self.diag(
                        "TY003", WARNING,
                        f"comparison {cond} can never hold: "
                        f"{lf.vtype} vs {rf.vtype}",
                        subject=str(cond))
                # a row only survives if both operands are defined
                for operand in (cond.left, cond.right):
                    if isinstance(operand, Col):
                        idx = operand.index - 1
                        if cols[idx].nullable:
                            cols[idx] = replace(cols[idx], nullable=False)
                if cond.op in _ORDERINGS and (lf.nullable or rf.nullable):
                    self.diag(
                        "TY004", INFO,
                        f"ordering {cond} compares a possibly-UNDEFINED "
                        "operand; such rows never pass", subject=str(cond))
            if cond.op == "=":
                if isinstance(cond.left, Col) and isinstance(cond.right, Col):
                    li, ri = cond.left.index - 1, cond.right.index - 1
                    met = meet_types(cols[li].vtype, cols[ri].vtype)
                    cols[li] = self._with_type(cols[li], met)
                    cols[ri] = self._with_type(cols[ri], met)
                else:
                    for col_op, other_fact in ((cond.left, rf),
                                               (cond.right, lf)):
                        if isinstance(col_op, Col):
                            idx = col_op.index - 1
                            met = meet_types(cols[idx].vtype,
                                             other_fact.vtype)
                            if (other_fact.is_const and cols[idx].is_const
                                    and cols[idx].const != other_fact.const):
                                met = TYPE_NEVER  # pinned to two values
                            narrowed = self._with_type(cols[idx], met)
                            if (other_fact.is_const
                                    and not narrowed.is_const
                                    and met != TYPE_NEVER):
                                narrowed = replace(
                                    narrowed, nullable=False,
                                    const=other_fact.const, is_const=True)
                            cols[idx] = narrowed

    @staticmethod
    def _with_type(fact: ColumnFact, vtype: str) -> ColumnFact:
        return fact if vtype == fact.vtype else replace(fact, vtype=vtype)

    # -- structural findings ------------------------------------------------

    def plan_error(self, code: str, message: str, path: str,
                   node: AlgebraExpr, suggestion: str = "") -> None:
        self.diagnostics.append(Diagnostic(
            code, ERROR, message, path=path, subject=str(node),
            suggestion=suggestion))

    def valid_conds(self, node: Select | Join | AntiJoin, width: int,
                    path: str) -> frozenset[Condition]:
        """``node``'s conditions over columns ``@1..@width``; each other
        one is reported (PL003) and left out of narrowing."""
        valid = []
        for cond in node.conds:
            bad = [i for i in cond.columns() if i > width]
            if not bad:
                valid.append(cond)
                continue
            where = "selection" if isinstance(node, Select) else "join"
            what = "input" if isinstance(node, Select) else "joined"
            self.plan_error(
                "PL003",
                f"{where} condition {cond} refers to @{bad[0]} but "
                f"{what} arity is {width}",
                path, node, suggestion=f"valid columns are @1..@{width}")
        return (node.conds if len(valid) == len(node.conds)
                else frozenset(valid))

    # -- nodes --------------------------------------------------------------

    def infer(self, node: AlgebraExpr, path: str = "plan") -> NodeFacts | None:
        """Facts of ``node`` (reached at ``path``), or None when its
        arity cannot be determined.  Only typable nodes are memoized, so
        a malformed subplan is reported wherever it occurs."""
        cached = self.facts.get(node)
        if cached is not None:
            return cached
        result = self._infer(node, path)
        if result is not None:
            self.facts[node] = result
        return result

    def _infer(self, node: AlgebraExpr, path: str) -> NodeFacts | None:
        if isinstance(node, Rel):
            arity = self.catalog.get(node.name)
            if arity is None:
                known = ", ".join(sorted(self.catalog)) or "(none)"
                self.plan_error("PL004",
                                f"unknown relation {node.name!r} in plan",
                                path, node,
                                suggestion=f"catalog declares: {known}")
                return None
            types: tuple[str, ...] = ()
            if self.schema is not None and self.schema.has_relation(node.name):
                decl = self.schema.relation(node.name)
                types = getattr(decl, "types", ()) or ()
            cols = tuple(
                ColumnFact(
                    vtype=types[i - 1] if i <= len(types) else TYPE_ANY,
                    sources=frozenset({(node.name, i)}))
                for i in range(1, arity + 1))
            return NodeFacts(arity, cols)
        if isinstance(node, Lit):
            return self._infer_lit(node)
        if isinstance(node, Params):
            cols = tuple(
                ColumnFact(sources=frozenset({("<params>", i)}))
                for i in range(1, node.arity + 1))
            return NodeFacts(node.arity, cols)
        if isinstance(node, AdomK):
            # a set of values: the single column is trivially distinct
            # (the full-column key, kept implicit)
            fact = ColumnFact(depth=node.level,
                              sources=frozenset({("<adom>", node.level)}))
            return NodeFacts(1, (fact,))
        if isinstance(node, Select):
            child = self.infer(node.child, f"{path}.child")
            if child is None:
                return None
            conds = self.valid_conds(node, child.arity, path)
            cols, keys, equal = self.narrow(child.columns, conds,
                                            child.keys, child.equal)
            return NodeFacts(child.arity, cols, keys, equal)
        if isinstance(node, Project):
            child = self.infer(node.child, f"{path}.child")
            if child is None:
                # the width is still known: dependent checks go on
                return NodeFacts(len(node.exprs),
                                 tuple(ColumnFact() for _ in node.exprs))
            for e in node.exprs:
                bad = [i for i in colexpr_columns(e) if i > child.arity]
                if bad:
                    self.plan_error(
                        "PL001",
                        f"projection expression {e} refers to @{bad[0]} but "
                        f"child arity is {child.arity}",
                        path, node,
                        suggestion=f"valid columns are @1..@{child.arity}")
            cols = tuple(self.expr_fact(e, child.columns)
                         for e in node.exprs)
            # keys survive when every member column is kept as a bare Col
            position: dict[int, int] = {}
            for out, e in enumerate(node.exprs, start=1):
                if isinstance(e, Col) and e.index not in position:
                    position[e.index] = out
            keys = set()
            for k in child.keys:
                if all(i in position for i in k):
                    keys.add(frozenset(position[i] for i in k))
            # outputs that are bare copies of one class are equal
            class_of = {i: min(c) for c in child.equal for i in c}
            copies: dict[int, set[int]] = {}
            for out, e in enumerate(node.exprs, start=1):
                if isinstance(e, Col):
                    copies.setdefault(class_of.get(e.index, e.index),
                                      set()).add(out)
            equal = frozenset(frozenset(c) for c in copies.values()
                              if len(c) > 1)
            return NodeFacts(len(node.exprs), cols,
                             _minimize_keys(keys, len(node.exprs)), equal)
        if isinstance(node, (Join, Product, AntiJoin)):
            left = self.infer(node.left, f"{path}.left")
            right = self.infer(node.right, f"{path}.right")
            if left is None or right is None:
                return None
            cols = left.columns + right.columns
            width = left.arity + right.arity
            if isinstance(node, AntiJoin):
                # conditions hold over joined rows: narrowing them reports
                # their diagnostics; the survivors are left rows
                self.narrow(cols, self.valid_conds(node, width, path),
                            frozenset())
                if node.arity != left.arity:
                    self.plan_error(
                        "PL002", f"anti-join declares arity {node.arity}, "
                                 f"its left input has {left.arity}",
                        path, node)
                    return None
                return left
            keys = self._compose_keys(left, right)
            equal = left.equal | frozenset(
                frozenset(i + left.arity for i in c) for c in right.equal)
            if isinstance(node, Join):
                cols, keys, equal = self.narrow(
                    cols, self.valid_conds(node, width, path), keys, equal)
            return NodeFacts(width, cols, keys, equal)
        if isinstance(node, (Union, Diff)):
            left = self.infer(node.left, f"{path}.left")
            right = self.infer(node.right, f"{path}.right")
            if left is None or right is None:
                return left if right is None else right
            if left.arity != right.arity:
                op = "union" if isinstance(node, Union) else "difference"
                self.plan_error(
                    "PL002",
                    f"{op} of mismatched arities: left is {left.arity}, "
                    f"right is {right.arity}",
                    path, node,
                    suggestion="project both operands to a common column "
                               "list")
                return None
            if isinstance(node, Diff):
                return left
            cols = tuple(a.merge(b)
                         for a, b in zip(left.columns, right.columns))
            # columns equal on both sides
            equal = frozenset(a & b for a in left.equal for b in right.equal
                              if len(a & b) > 1)
            return NodeFacts(left.arity, cols, equal=equal)
        if isinstance(node, Enumerate):
            child = self.infer(node.child, f"{path}.child")
            if child is None:
                return None
            for e in node.inputs:
                bad = [i for i in colexpr_columns(e) if i > child.arity]
                if bad:
                    self.plan_error(
                        "PL005",
                        f"enumerate input {e} refers to @{bad[0]} but child "
                        f"arity is {child.arity}",
                        path, node)
            input_facts = [self.expr_fact(e, child.columns)
                           for e in node.inputs]
            depth = 1 + max((f.depth for f in input_facts), default=0)
            sources = frozenset().union(
                *(f.sources for f in input_facts)) if input_facts \
                else frozenset()
            out = tuple(ColumnFact(depth=depth, sources=sources)
                        for _ in range(node.out_count))
            return NodeFacts(child.arity + node.out_count,
                             child.columns + out, equal=child.equal)
        self.plan_error("PL004", f"not an algebra expression: {node!r}",
                        path, node)
        return None

    def _infer_lit(self, node: Lit) -> NodeFacts:
        rows = list(node.rows)
        if not rows:
            cols = tuple(ColumnFact(vtype=TYPE_NEVER)
                         for _ in range(node.arity))
            # the empty relation has at most one row (zero), so the
            # empty column set is (vacuously) a key
            return NodeFacts(node.arity, cols,
                             frozenset({frozenset()})
                             if node.arity else frozenset())
        cols = []
        keys = set()
        for i in range(node.arity):
            values = [row[i] for row in rows]
            defined = [v for v in values if v is not UNDEFINED]
            nullable = len(defined) != len(values)
            vtype = TYPE_NEVER
            for v in defined:
                vtype = join_types(vtype, value_type(v))
            if not defined:
                vtype = TYPE_ANY
            distinct = set(values)
            is_const = (len(distinct) == 1
                        and values[0] is not UNDEFINED)
            cols.append(ColumnFact(
                vtype=vtype, nullable=nullable,
                const=values[0] if is_const else None, is_const=is_const))
            if len(distinct) == len(rows):
                keys.add(frozenset({i + 1}))
        if len(rows) == 1 and node.arity:
            keys.add(frozenset())
        return NodeFacts(node.arity, tuple(cols),
                         _minimize_keys(keys, node.arity))

    def _compose_keys(self, left: NodeFacts,
                      right: NodeFacts) -> frozenset[frozenset[int]]:
        """Keys of a join/product: a left key plus a right key (either
        possibly the implicit full-column key) determines the row."""
        full_left = frozenset(range(1, left.arity + 1))
        full_right = frozenset(range(1, right.arity + 1))
        left_keys = set(left.keys) | {full_left}
        right_keys = set(right.keys) | {full_right}
        composed = set()
        for kl in left_keys:
            for kr in right_keys:
                composed.add(kl | frozenset(i + left.arity for i in kr))
        return _minimize_keys(composed, left.arity + right.arity)


#: Memo for whole-plan inferences.  Inference is pure in (plan,
#: catalog, schema), and the validator re-infers the same plan objects
#: across pipeline phases (simplify-phase TV003, post-optimize TV003,
#: the executor's typed-facts pass), so a small cache turns the
#: always-on validation path from four inferences per run into one or
#: two.  Bounded FIFO: plans are session-scoped, so simple eviction
#: suffices.
_INFER_CACHE: dict[object, PlanTypes] = {}
_INFER_CACHE_MAX = 256


def infer_plan_types(plan: AlgebraExpr, catalog: Mapping[str, int],
                     schema: DatabaseSchema | None = None) -> PlanTypes:
    """Infer :class:`NodeFacts` for every node of ``plan`` bottom-up.

    ``catalog`` maps relation names to arities (as everywhere in the
    engine); ``schema``, when given, additionally contributes declared
    column types and scalar-function signatures, enabling the TY001 /
    TY002 / TY006 checks.  Inference records problems — type findings
    and structural ones alike — as diagnostics and never raises;
    structurally identical subplans share one inference (and one
    diagnostic).  Results are memoized per (plan, catalog, schema) — all
    three are immutable values.
    """
    # DatabaseSchema compares by identity; key on its declared content
    # so structurally equal schemas from separate translations share
    # cache entries.
    schema_key = (None if schema is None
                  else (tuple(schema.relations), tuple(schema.functions)))
    key = (plan, tuple(sorted(catalog.items())), schema_key)
    cached = _INFER_CACHE.get(key)
    if cached is not None:
        return cached
    inferencer = _Inferencer(catalog, schema)
    root = inferencer.infer(plan)
    result = PlanTypes(root=root, facts=inferencer.facts,
                       diagnostics=inferencer.diagnostics)
    if len(_INFER_CACHE) >= _INFER_CACHE_MAX:
        _INFER_CACHE.pop(next(iter(_INFER_CACHE)))
    _INFER_CACHE[key] = result
    return result


def sanitize_plan(expr: AlgebraExpr, catalog: Mapping[str, int],
                  expected_arity: int | None = None) -> list[Diagnostic]:
    """The structural findings (``PL0xx``) of inferring ``expr``; empty
    means the plan is well-formed (and, when ``expected_arity`` is
    given, produces rows of exactly that width)."""
    types = infer_plan_types(expr, catalog)
    out = [d for d in types.diagnostics if d.code.startswith("PL")]
    if (expected_arity is not None and types.root is not None
            and types.root.arity != expected_arity):
        out.append(Diagnostic(
            "PL006", ERROR,
            f"plan produces rows of arity {types.root.arity}, expected "
            f"{expected_arity}",
            path="plan", subject=str(expr),
            suggestion="a rewrite dropped or duplicated an output column"))
    return out


def check_plan(expr: AlgebraExpr, catalog: Mapping[str, int],
               phase: str = "",
               expected_arity: int | None = None) -> None:
    """Raise :class:`PlanInvariantError` if ``expr`` is malformed.

    ``phase`` names the pipeline stage that produced the plan, so the
    error pinpoints the culprit.
    """
    diagnostics = sanitize_plan(expr, catalog, expected_arity)
    if diagnostics:
        where = f" after {phase}" if phase else ""
        raise PlanInvariantError(f"invalid algebra plan{where}",
                                 diagnostics=diagnostics)


def _node_label(node: AlgebraExpr) -> str:
    if isinstance(node, Rel):
        return f"rel {node.name}"
    if isinstance(node, Lit):
        return f"lit/{node.arity} ({len(node.rows)} rows)"
    if isinstance(node, Params):
        return f"params/{node.arity}"
    if isinstance(node, AdomK):
        return f"adom^{node.level}"
    if isinstance(node, Select):
        return f"select [{', '.join(sorted(str(c) for c in node.conds))}]"
    if isinstance(node, Project):
        return f"project [{', '.join(str(e) for e in node.exprs)}]"
    if isinstance(node, (Join, AntiJoin)):
        label = "join" if isinstance(node, Join) else "anti-join"
        return f"{label} [{', '.join(sorted(str(c) for c in node.conds))}]"
    if isinstance(node, Product):
        return "product"
    if isinstance(node, Union):
        return "union"
    if isinstance(node, Diff):
        return "diff"
    if isinstance(node, Enumerate):
        return (f"enumerate {node.enumerator}"
                f"[{', '.join(str(e) for e in node.inputs)}]"
                f" +{node.out_count}")
    return type(node).__name__.lower()


def render_typed_plan(plan: AlgebraExpr, types: PlanTypes) -> str:
    """The plan as an indented tree, one line per node, each annotated
    with its inferred column facts — the ``repro typecheck`` view."""
    lines: list[str] = []

    def emit(node: AlgebraExpr, prefix: str, child_prefix: str) -> None:
        facts = types.facts_of(node)
        lines.append(f"{prefix}{_node_label(node)}  :: {facts.describe()}")
        inputs = children(node)
        for i, child in enumerate(inputs):
            last = i == len(inputs) - 1
            branch = "└─ " if last else "├─ "
            cont = "   " if last else "│  "
            emit(child, child_prefix + branch, child_prefix + cont)

    emit(plan, "", "")
    return "\n".join(lines)
