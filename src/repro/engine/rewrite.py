"""The rewrite engine: one rule set, run to a fixed point, every change
recorded (translation → **rewrite** → planning).

Every plan change the system makes after compilation is a named rule
applied by one bottom-up driver (:class:`_Pass`).  The driver rewrites a
node's inputs first, then tries the phase's rules for the node's kind
until none fires; a subtree where nothing fired comes back as the same
object, and a subtree it has already normalized is never walked again.
Each firing is recorded as a :class:`RewriteStep` ``(rule, detail,
before, after)``, which the translation validator
(:mod:`repro.analysis.validate`) replays independently.

**Normalization** — the cleanup the paper's translation ends with, so
translated plans read like the paper's hand-written ones.  Every phase
includes these six rules:

* ``project-cascade`` — ``project(A, project(B, e))`` composes;
* ``project-identity`` — ``project([@1..@n], e)`` over an arity-``n``
  input is ``e``;
* ``select-merge`` — cascading selections merge, an empty selection
  disappears;
* ``select-join`` — a selection over a product or join folds into the
  join's conditions, and a join without conditions is a product;
* ``unit-product`` — the one-row arity-0 relation is the neutral
  element of product and join;
* ``anti-join`` — T15's generalized difference ``e - project([@1..@n],
  join(c, e, X))`` is ``AntiJoin(n, c, e, X)``, the only place the
  anti-join node is created.

:func:`simplify` runs normalization alone; the translator calls it on
every compiled plan.

**Optimization** — :func:`optimize_plan` runs four phases, each the
normalization rules plus its own, over the translated plan (the paper
leaves evaluation order among equals free, and that freedom is where an
evaluator wins or loses its constant factors):

1. **fold** — ``const op const`` conditions are decided at plan time
   (``fold-const``) and empty literal relations propagate through the
   operators that annihilate on them (``fold-empty``);
2. **reorder** — each maximal Join/Product region is flattened into
   (leaves, conditions) and rebuilt left-deep from the
   estimated-smallest leaf, preferring connected extensions, with every
   condition attached at the earliest join where its columns are
   available and a restoring projection keeping the region's column
   order (``join-reorder``);
3. **pushdown** — single-side join conditions move below the join,
   selections distribute through unions and into difference, anti-join
   and :class:`~repro.algebra.ast.Enumerate` inputs
   (``pushdown-select``), projections distribute through unions and
   dead columns are pruned below joins and products
   (``pushdown-project``);
4. **build side** — :class:`~repro.engine.operators.HashJoinOp` builds
   on its right input, so a join whose left input is estimated smaller
   is swapped under a projection restoring the column order
   (``build-side``).

Last, structurally repeated subplans are reported to the planner, which
computes each **once** behind a shared
:class:`~repro.engine.operators.MaterializeOp` (``cse``).

The optimizer is on by default; ``REPRO_OPTIMIZE=0`` (or
``--no-optimize``) disables it entirely, so the engine runs the plans
exactly as translated.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    AntiJoin,
    CConst,
    Col,
    ColExpr,
    Condition,
    Diff,
    Enumerate,
    Join,
    Lit,
    Product,
    Project,
    Select,
    Union,
    arity_of,
    children,
    colexpr_columns,
    compare_values,
    map_columns,
    map_condition,
    with_children,
)
from repro.analysis.typeinfer import check_plan, verify_plans_enabled
from repro.analysis.validate import check_rewrites
from repro.core.schema import DatabaseSchema
from repro.engine.stats import InstanceStats, estimate_cardinality
from repro.errors import EvaluationError

__all__ = [
    "RewriteStep",
    "OptimizationResult",
    "choose_build_sides",
    "optimize_enabled",
    "optimize_plan",
    "shared_subplans",
    "simplify",
]

#: Environment variable gating the optimizer (default: enabled).
OPTIMIZE_ENV = "REPRO_OPTIMIZE"


def optimize_enabled(override: bool | None = None) -> bool:
    """Resolve the optimizer switch: explicit override, else the
    ``REPRO_OPTIMIZE`` environment variable, else on."""
    if override is not None:
        return override
    raw = os.environ.get(OPTIMIZE_ENV, "").strip().lower()
    return raw not in {"0", "false", "no", "off"}


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One applied rewrite, for the trace / EXPLAIN output — and for
    the translation validator (:mod:`repro.analysis.validate`), which
    replays each step's soundness obligation from its payload.

    ``before`` is the redex (rebuilt over already-rewritten children),
    ``after`` its replacement; ``data`` carries rule-specific evidence
    (for ``fold-const``: the decided condition and the decision).  All
    three default empty so bare ``RewriteStep(rule, detail)`` values —
    and their rendering — are unchanged.
    """

    rule: str
    detail: str
    before: AlgebraExpr | None = None
    after: AlgebraExpr | None = None
    data: tuple[object, ...] = ()

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    """Outcome of :func:`optimize_plan`."""

    plan: AlgebraExpr
    steps: tuple[RewriteStep, ...]
    #: Structurally repeated subplans the planner should compute once.
    shared: frozenset[AlgebraExpr]


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

#: What a rule returns when it fires: the replacement, a one-line
#: detail for the trace, and rule-specific evidence for the validator.
Fired = tuple[AlgebraExpr, str, tuple[object, ...]]


@dataclass(frozen=True, slots=True)
class _Rule:
    name: str
    kinds: tuple[type[AlgebraExpr], ...]
    apply: Callable[[AlgebraExpr, "_Pass"], Fired | None]


#: A phase: for each node kind, the rules to try, in order.
_Phase = Mapping[type[AlgebraExpr], tuple[_Rule, ...]]


def _phase(*rules: _Rule) -> _Phase:
    table: dict[type[AlgebraExpr], tuple[_Rule, ...]] = {}
    for rule in rules:
        for kind in rule.kinds:
            table[kind] = table.get(kind, ()) + (rule,)
    return table


def _in_region(node: AlgebraExpr, inside: bool) -> bool:
    """Whether ``node``'s inputs belong to the Join/Product region
    ``node`` is part of (``inside``: ``node``'s parent is)."""
    return (isinstance(node, (Join, Product))
            or (inside and _region_projection(node)))


class _Pass:
    """One run of a phase over a plan.

    :meth:`run` is the bottom-up fixed-point driver.  ``normal`` maps
    the ids of nodes already in normal form to the nodes (which keeps
    them alive, so ids are not reused); the driver returns them
    untouched.  In a ``regions`` phase every node learns whether its
    parent is part of a Join/Product region (``inside``), so join
    reordering fires at region roots only.
    """

    def __init__(self, phase: _Phase, catalog: Mapping[str, int],
                 steps: list[RewriteStep],
                 stats: InstanceStats | None = None,
                 regions: bool = False) -> None:
        self.phase = phase
        self.catalog = catalog
        self.steps = steps
        self.stats = stats
        self.regions = regions
        self.inside = False
        self.normal: dict[int, AlgebraExpr] = {}
        #: Region roots join reordering built (never reordered again).
        self.reordered: dict[int, AlgebraExpr] = {}

    def arity(self, node: AlgebraExpr) -> int:
        return arity_of(node, self.catalog)

    def estimate(self, node: AlgebraExpr) -> float:
        assert self.stats is not None, "cost-based rule run without stats"
        return estimate_cardinality(node, self.stats)

    def run(self, node: AlgebraExpr, inside: bool = False) -> AlgebraExpr:
        if id(node) in self.normal:
            return node
        inputs = children(node)
        if inputs:
            inner = self.regions and _in_region(node, inside)
            first = self.run(inputs[0], inner)
            rewritten = ((first,) if len(inputs) == 1
                         else (first, self.run(inputs[1], inner)))
            if first is not inputs[0] or rewritten[-1] is not inputs[-1]:
                node = with_children(node, rewritten)
        self.inside = inside
        for rule in self.phase.get(type(node), ()):
            fired = rule.apply(node, self)
            if fired is not None:
                after, detail, data = fired
                self.steps.append(RewriteStep(rule.name, detail, node, after,
                                              data))
                return self.run(after, inside)
        if not inside:
            # a region's interior may recur as a region root elsewhere
            self.normal[id(node)] = node
        return node


# ---------------------------------------------------------------------------
# Normalization rules
# ---------------------------------------------------------------------------

def _identity(exprs: Sequence[ColExpr]) -> bool:
    return all(isinstance(e, Col) and e.index == i
               for i, e in enumerate(exprs, start=1))


def _is_unit(node: AlgebraExpr) -> bool:
    """The arity-0 one-row literal: the neutral element of product/join."""
    return isinstance(node, Lit) and node.arity == 0 and node.rows == {()}


def _project_cascade(node: AlgebraExpr, p: _Pass) -> Fired | None:
    assert isinstance(node, Project)
    inner = node.child
    if not isinstance(inner, Project):
        return None
    exprs = inner.exprs
    composed = tuple(map_columns(e, lambda i: exprs[i - 1])
                     for e in node.exprs)
    return (Project(composed, inner.child), "composed two projections", ())


def _project_identity(node: AlgebraExpr, p: _Pass) -> Fired | None:
    assert isinstance(node, Project)
    if not _identity(node.exprs) or p.arity(node.child) != len(node.exprs):
        return None
    return (node.child, "dropped an identity projection", ())


def _select_merge(node: AlgebraExpr, p: _Pass) -> Fired | None:
    assert isinstance(node, Select)
    if not node.conds:
        return (node.child, "dropped an empty selection", ())
    if isinstance(node.child, Select):
        return (Select(node.child.conds | node.conds, node.child.child),
                "merged two selections", ())
    return None


def _select_join(node: AlgebraExpr, p: _Pass) -> Fired | None:
    if isinstance(node, Join):
        if node.conds:
            return None
        return (Product(node.left, node.right),
                "a join without conditions is a product", ())
    assert isinstance(node, Select)
    child = node.child
    if isinstance(child, Product):
        return (Join(node.conds, child.left, child.right),
                "selection over a product is a join", ())
    if isinstance(child, Join):
        return (Join(child.conds | node.conds, child.left, child.right),
                "selection merged into the join", ())
    return None


def _unit_product(node: AlgebraExpr, p: _Pass) -> Fired | None:
    assert isinstance(node, (Join, Product))
    conds = node.conds if isinstance(node, Join) else frozenset()
    if _is_unit(node.left):
        other = node.right
    elif _is_unit(node.right):
        other = node.left
    else:
        return None
    return (Select(conds, other) if conds else other,
            "dropped the one-row arity-0 input", ())


def _anti_join(node: AlgebraExpr, p: _Pass) -> Fired | None:
    assert isinstance(node, Diff)
    right = node.right
    if not (isinstance(right, Project) and isinstance(right.child, Join)
            and _identity(right.exprs) and right.child.left == node.left):
        return None
    return (AntiJoin(len(right.exprs), right.child.conds, node.left,
                     right.child.right),
            "T15's generalized difference is an anti-join", ())


NORMALIZE = (
    _Rule("project-cascade", (Project,), _project_cascade),
    _Rule("project-identity", (Project,), _project_identity),
    _Rule("select-merge", (Select,), _select_merge),
    _Rule("select-join", (Select, Join), _select_join),
    _Rule("unit-product", (Join, Product), _unit_product),
    _Rule("anti-join", (Diff,), _anti_join),
)


# ---------------------------------------------------------------------------
# Fold: constant conditions and empty inputs
# ---------------------------------------------------------------------------

def _is_empty(node: AlgebraExpr) -> bool:
    return isinstance(node, Lit) and not node.rows


def _empty(arity: int) -> Lit:
    return Lit(arity, frozenset())


def _without(node: Select | Join | AntiJoin,
             cond: Condition) -> AlgebraExpr:
    conds = node.conds - {cond}
    if isinstance(node, Select):
        return Select(conds, node.child)
    if isinstance(node, Join):
        return Join(conds, node.left, node.right)
    return AntiJoin(node.arity, conds, node.left, node.right)


def _fold_const(node: AlgebraExpr, p: _Pass) -> Fired | None:
    """Decide one const-vs-const condition: a tautology is dropped, a
    contradiction empties a selection or join and makes an anti-join
    exclude nothing."""
    assert isinstance(node, (Select, Join, AntiJoin))
    for cond in node.conds:
        if isinstance(cond.left, CConst) and isinstance(cond.right, CConst):
            if compare_values(cond.op, cond.left.value, cond.right.value):
                return (_without(node, cond), f"dropped tautology {cond}",
                        (cond, True))
            after = (node.left if isinstance(node, AntiJoin)
                     else _empty(p.arity(node)))
            return (after, f"{cond} is statically false", (cond, False))
    return None


def _fold_empty(node: AlgebraExpr, p: _Pass) -> Fired | None:
    if isinstance(node, Select):
        if _is_empty(node.child):
            return (node.child, "selection can never pass", ())
    elif isinstance(node, Project):
        if _is_empty(node.child):
            return (_empty(len(node.exprs)), "projection over empty input",
                    ())
    elif isinstance(node, (Join, Product)):
        if _is_empty(node.left) or _is_empty(node.right):
            what = ("join can never produce a row" if isinstance(node, Join)
                    else "product with an empty input")
            return (_empty(p.arity(node)), what, ())
    elif isinstance(node, Union):
        if _is_empty(node.left):
            return (node.right, "union with an empty input", ())
        if _is_empty(node.right):
            return (node.left, "union with an empty input", ())
    elif isinstance(node, AntiJoin):
        if _is_empty(node.left):
            return (node.left, "anti-join over empty context", ())
        if _is_empty(node.right):
            return (node.left, "anti-join excludes nothing", ())
    elif isinstance(node, Diff):
        if _is_empty(node.right):
            return (node.left, "difference of nothing", ())
        if _is_empty(node.left):
            return (node.left, "difference over empty input", ())
    elif isinstance(node, Enumerate):
        if _is_empty(node.child):
            return (_empty(p.arity(node)), "enumeration over empty input",
                    ())
    return None


FOLD = _phase(
    _Rule("fold-const", (Select, Join, AntiJoin), _fold_const),
    _Rule("fold-empty", (Select, Project, Join, Product, Union, AntiJoin,
                         Diff, Enumerate), _fold_empty),
    *NORMALIZE)


# ---------------------------------------------------------------------------
# Pushdown: selections and projections move toward the scans
# ---------------------------------------------------------------------------

def _pushdown_select(node: AlgebraExpr, p: _Pass) -> Fired | None:
    if isinstance(node, Join):
        left_arity = p.arity(node.left)
        push_left, push_right, keep = [], [], []
        for c in node.conds:
            cols = c.columns()
            if all(i <= left_arity for i in cols):
                push_left.append(c)
            elif all(i > left_arity for i in cols):
                push_right.append(map_condition(
                    c, lambda i: Col(i - left_arity)))
            else:
                keep.append(c)
        if not push_left and not push_right:
            return None
        left, right = node.left, node.right
        if push_left:
            left = Select(frozenset(push_left), left)
        if push_right:
            right = Select(frozenset(push_right), right)
        after = (Join(frozenset(keep), left, right) if keep
                 else Product(left, right))
        return (after, f"{len(push_left) + len(push_right)} condition(s) "
                       "below join", ())
    assert isinstance(node, Select)
    conds, child = node.conds, node.child
    if isinstance(child, Union):
        return (Union(Select(conds, child.left), Select(conds, child.right)),
                "selection through union", ())
    if isinstance(child, AntiJoin):
        return (AntiJoin(child.arity, child.conds,
                         Select(conds, child.left), child.right),
                "selection into anti-join input", ())
    if isinstance(child, Diff):
        return (Diff(Select(conds, child.left), child.right),
                "selection into difference input", ())
    if isinstance(child, Enumerate):
        inner_arity = p.arity(child.child)
        inside = frozenset(c for c in conds
                           if all(i <= inner_arity for i in c.columns()))
        if inside:
            outside = conds - inside
            pushed = Enumerate(child.enumerator, child.inputs,
                               child.out_count, Select(inside, child.child))
            return (Select(outside, pushed) if outside else pushed,
                    f"{len(inside)} condition(s) below enumerate", ())
    return None


def _pushdown_project(node: AlgebraExpr, p: _Pass) -> Fired | None:
    assert isinstance(node, Project)
    child = node.child
    if isinstance(child, Union):
        return (Union(Project(node.exprs, child.left),
                      Project(node.exprs, child.right)),
                "projection through union", ())
    if isinstance(child, (Join, Product)):
        return _prune_join_columns(node.exprs, child, p)
    return None


def _prune_join_columns(exprs: Sequence[ColExpr], child: Join | Product,
                        p: _Pass) -> Fired | None:
    """Dead-column elimination below ``Project(exprs, Join/Product)``.

    Columns referenced by neither the projection nor the join
    conditions are dropped from the children (sound under set
    semantics: rows agreeing on every *needed* column contribute the
    same output tuples, so deduplicating them early is harmless — and
    usually a win).
    """
    conds = child.conds if isinstance(child, Join) else frozenset()
    left_arity = p.arity(child.left)
    right_arity = p.arity(child.right)
    needed: set[int] = set()
    for e in exprs:
        needed |= colexpr_columns(e)
    for c in conds:
        needed |= c.columns()
    keep_left = [i for i in range(1, left_arity + 1) if i in needed]
    keep_right = [i for i in range(left_arity + 1,
                                   left_arity + right_arity + 1)
                  if i in needed]
    if len(keep_left) == left_arity and len(keep_right) == right_arity:
        return None
    position = {col: pos for pos, col in
                enumerate(keep_left + keep_right, start=1)}

    def renumber(i: int) -> ColExpr:
        return Col(position[i])

    new_left = (child.left if len(keep_left) == left_arity
                else Project(tuple(Col(i) for i in keep_left), child.left))
    new_right = (child.right if len(keep_right) == right_arity
                 else Project(tuple(Col(i - left_arity) for i in keep_right),
                              child.right))
    new_conds = frozenset(map_condition(c, renumber) for c in conds)
    new_child = (Join(new_conds, new_left, new_right)
                 if isinstance(child, Join)
                 else Product(new_left, new_right))
    dropped = left_arity + right_arity - len(keep_left) - len(keep_right)
    return (Project(tuple(map_columns(e, renumber) for e in exprs),
                    new_child),
            f"pruned {dropped} dead column(s) below "
            f"{'join' if isinstance(child, Join) else 'product'}", ())


PUSHDOWN = _phase(
    _Rule("pushdown-select", (Select, Join), _pushdown_select),
    _Rule("pushdown-project", (Project,), _pushdown_project),
    *NORMALIZE)


# ---------------------------------------------------------------------------
# Reorder: greedy join order per maximal Join/Product region
# ---------------------------------------------------------------------------

def _region_projection(n: AlgebraExpr) -> bool:
    """A pure column shuffle sitting on a join: transparent to the
    region flattener.  (Translated plans interleave joins with
    column-pruning projections; under set semantics the kept columns
    determine the final answer, so the shuffle can be deferred to the
    region's restoring projection.)"""
    return (isinstance(n, Project)
            and all(isinstance(e, Col) for e in n.exprs)
            and isinstance(n.child, (Join, Product, Project)))


def _flatten_region(
        node: AlgebraExpr, catalog: Mapping[str, int],
) -> tuple[list[AlgebraExpr], list[Condition], tuple[int, ...]]:
    """Flatten a maximal Join/Product region into its non-join leaves,
    all conditions in region coordinates (the concatenation of the
    leaves' columns), and the region's output columns as a tuple of
    region coordinates.  Pure-``Col`` projections between joins are
    flattened through — they only relabel coordinates."""
    leaves: list[AlgebraExpr] = []
    conds: list[Condition] = []
    next_col = 0

    def walk(n: AlgebraExpr) -> tuple[int, ...]:
        nonlocal next_col
        if isinstance(n, (Join, Product)):
            out = walk(n.left) + walk(n.right)
            if isinstance(n, Join):
                conds.extend(map_condition(c, lambda i: Col(out[i - 1]))
                             for c in n.conds)
            return out
        if _region_projection(n):
            assert isinstance(n, Project)
            out = walk(n.child)
            return tuple(out[e.index - 1] for e in n.exprs
                         if isinstance(e, Col))
        leaves.append(n)
        width = arity_of(n, catalog)
        out = tuple(range(next_col + 1, next_col + width + 1))
        next_col += width
        return out

    outcols = walk(node)
    return leaves, conds, outcols


def _greedy_join_order(leaves: Sequence[AlgebraExpr],
                       conds: Sequence[Condition],
                       outcols: Sequence[int], p: _Pass,
                       ) -> tuple[AlgebraExpr, list[int], list[float]]:
    """Left-deep greedy order: start from the estimated-smallest leaf,
    extend with the estimated-cheapest join, preferring connected
    extensions; every condition attaches at the earliest join where all
    of its columns are available.  Returns the rebuilt region wrapped
    in a projection restoring the region's original output columns,
    the leaf order, and the leaf estimates."""
    arities = [p.arity(leaf) for leaf in leaves]
    starts: list[int] = []
    offset = 0
    for a in arities:
        starts.append(offset)
        offset += a

    def leaf_of(col: int) -> int:
        for idx in range(len(leaves)):
            if starts[idx] < col <= starts[idx] + arities[idx]:
                return idx
        raise AssertionError(f"column @{col} outside join region")

    cond_leaves = [frozenset(leaf_of(i) for i in c.columns()) for c in conds]
    estimates = [p.estimate(leaf) for leaf in leaves]

    start = min(range(len(leaves)), key=lambda i: (estimates[i], i))
    col_map: dict[int, int] = {
        starts[start] + j: j for j in range(1, arities[start] + 1)
    }
    current = leaves[start]
    current_arity = arities[start]
    placed = {start}
    order = [start]
    applied = [False] * len(conds)

    def remap(cond: Condition, mapping: dict[int, int]) -> Condition:
        return map_condition(cond, lambda i: Col(mapping[i]))

    ready = frozenset(remap(conds[k], col_map)
                      for k in range(len(conds))
                      if cond_leaves[k] <= placed)
    for k in range(len(conds)):
        if cond_leaves[k] <= placed:
            applied[k] = True
    if ready:
        # built merged, as normalization would leave it
        current = (Select(current.conds | ready, current.child)
                   if isinstance(current, Select) else Select(ready, current))

    while len(placed) < len(leaves):
        best: tuple[tuple[bool, float, int], int, list[int], AlgebraExpr,
                    dict[int, int]] | None = None
        for cand in range(len(leaves)):
            if cand in placed:
                continue
            usable = [k for k in range(len(conds))
                      if not applied[k]
                      and cond_leaves[k] <= placed | {cand}]
            trial_map = dict(col_map)
            for j in range(1, arities[cand] + 1):
                trial_map[starts[cand] + j] = current_arity + j
            mapped = frozenset(remap(conds[k], trial_map) for k in usable)
            trial: AlgebraExpr = (Join(mapped, current, leaves[cand])
                                  if mapped
                                  else Product(current, leaves[cand]))
            key = (not usable, p.estimate(trial), cand)
            if best is None or key < best[0]:
                best = (key, cand, usable, trial, trial_map)
        assert best is not None
        _, cand, usable, current, col_map = best
        current_arity += arities[cand]
        placed.add(cand)
        order.append(cand)
        for k in usable:
            applied[k] = True

    restore = tuple(Col(col_map[g]) for g in outcols)
    p.reordered[id(current)] = current
    return Project(restore, current), order, estimates


def _join_reorder(node: AlgebraExpr, p: _Pass) -> Fired | None:
    if p.inside or id(node) in p.reordered:
        return None  # not a region root, or already this rule's output
    leaves, conds, outcols = _flatten_region(node, p.catalog)
    if len(leaves) < 3:
        return None
    after, order, estimates = _greedy_join_order(leaves, conds, outcols, p)
    assert isinstance(after, Project)
    if (order == sorted(order) and _identity(after.exprs)
            and after.child == node):
        return None
    return (after, f"{len(leaves)}-way region evaluated in leaf order "
                   f"{order} (estimated rows: "
                   f"{', '.join(f'{e:.0f}' for e in estimates)})", ())


REORDER = _phase(_Rule("join-reorder", (Join, Product), _join_reorder),
                 *NORMALIZE)


# ---------------------------------------------------------------------------
# Build side: hash joins build on the estimated-smaller input
# ---------------------------------------------------------------------------

def _build_side(node: AlgebraExpr, p: _Pass) -> Fired | None:
    """``join(conds, L, R)`` with R as the new outer input when L is
    estimated smaller, wrapped in a projection restoring the original
    L-then-R column order (columns of the old left move right by the new
    left's arity, and vice versa)."""
    assert isinstance(node, Join)
    left_rows = p.estimate(node.left)
    right_rows = p.estimate(node.right)
    if left_rows >= right_rows:
        return None
    left_arity = p.arity(node.left)
    right_arity = p.arity(node.right)

    def swap(i: int) -> ColExpr:
        return Col(i + right_arity if i <= left_arity else i - left_arity)

    swapped = Join(frozenset(map_condition(c, swap) for c in node.conds),
                   node.right, node.left)
    restore = tuple([Col(right_arity + i) for i in range(1, left_arity + 1)]
                    + [Col(i) for i in range(1, right_arity + 1)])
    return (Project(restore, swapped),
            f"build-side swap: est left {left_rows:.0f} < "
            f"est right {right_rows:.0f} rows", ())


BUILD_SIDE = _phase(_Rule("build-side", (Join,), _build_side), *NORMALIZE)


# ---------------------------------------------------------------------------
# Common subplans
# ---------------------------------------------------------------------------

def shared_subplans(plan: AlgebraExpr) -> frozenset[AlgebraExpr]:
    """Structurally repeated subplans worth computing once: anything
    that does work.  Scans (Rel/Lit/Params) are excluded — re-reading
    them is as cheap as re-reading a materialization.

    Occurrences *inside* an already-repeated subplan are not counted
    again (the whole subplan is shared, so its parts come for free).
    """
    counts: Counter[AlgebraExpr] = Counter()
    stack = [plan]
    while stack:
        node = stack.pop()
        inputs = children(node)
        if inputs or isinstance(node, AdomK):
            seen = counts[node] + 1  # each lookup hashes the whole subtree
            counts[node] = seen
            if seen > 1:
                continue
        stack.extend(inputs[::-1])
    return frozenset(node for node, n in counts.items() if n >= 2)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

SIMPLIFY = _phase(*NORMALIZE)


def simplify(expr: AlgebraExpr, catalog: Mapping[str, int],
             steps: list[RewriteStep] | None = None) -> AlgebraExpr:
    """Normalize ``expr``: the normalization rules, to a fixed point.
    Every rewrite preserves the evaluated relation exactly; each one is
    appended to ``steps`` when a list is given."""
    return _Pass(SIMPLIFY, catalog, [] if steps is None else steps).run(expr)


def choose_build_sides(expr: AlgebraExpr, stats: InstanceStats,
                       catalog: Mapping[str, int],
                       steps: list[RewriteStep] | None = None,
                       ) -> AlgebraExpr:
    """The build-side phase alone: swap join inputs so the
    estimated-smaller side is the build (right) side.  Output evaluates
    identically to the input."""
    return _Pass(BUILD_SIDE, catalog, [] if steps is None else steps,
                 stats).run(expr)


def optimize_plan(expr: AlgebraExpr, stats: InstanceStats,
                  catalog: Mapping[str, int],
                  verify: bool | None = None,
                  schema: DatabaseSchema | None = None) -> OptimizationResult:
    """Run the optimizer's phases over ``expr``.

    Order: fold, reorder, pushdown, build side (each with the
    normalization rules), then shared-subplan detection.  Reordering
    runs before pushdown: normalization has merged selections into the
    join nodes, so Join/Product regions are maximal there — column
    pruning would interpose projections and split them.

    The result evaluates to exactly the same relation as the input
    (property-tested against both the unoptimized plan and the reference
    calculus evaluator, and — under ``verify``, which defers to the same
    module-wide default as plan verification — *certified* per run by
    the translation validator, :mod:`repro.analysis.validate`: every
    recorded step's obligation is replayed and
    :class:`~repro.errors.RewriteValidationError` raised on any
    violation).  ``schema``, when given, feeds declared column types and
    function signatures to the validator's column-fact refinement check.

    If a phase fails with an :class:`~repro.errors.EvaluationError` (an
    un-typable plan), the steps recorded up to that point are attached
    to the exception as ``rewrite_steps`` so callers falling back to the
    unoptimized plan can report what was attempted.
    """
    steps: list[RewriteStep] = []
    try:
        plan = _Pass(FOLD, catalog, steps, stats).run(expr)
        plan = _Pass(REORDER, catalog, steps, stats, regions=True).run(plan)
        plan = _Pass(PUSHDOWN, catalog, steps, stats).run(plan)
        plan = _Pass(BUILD_SIDE, catalog, steps, stats).run(plan)
        shared = shared_subplans(plan)
        if shared:
            steps.append(RewriteStep(
                "cse", f"{len(shared)} repeated subplan(s) computed once"))
    except EvaluationError as err:
        err.rewrite_steps = tuple(steps)
        raise
    if verify_plans_enabled(verify):
        check_plan(plan, catalog, phase="optimize",
                   expected_arity=arity_of(expr, catalog))
        check_rewrites(expr, plan, steps, shared, catalog, schema=schema,
                       phase="optimize")
    return OptimizationResult(plan, tuple(steps), shared)

