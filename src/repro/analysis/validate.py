"""Translation validation: certify every plan rewrite.

The rewrite engine (:mod:`repro.engine.rewrite`) is property-tested on
sampled instances; this module *certifies* each run statically, in the
translation-validation style: every recorded
:class:`~repro.engine.rewrite.RewriteStep` — translate-time
normalization and optimizer phases alike — carries the redex it
replaced (``before``) and its replacement (``after``), and the
validator independently discharges the rule's soundness obligation —
plus three global obligations over the whole run.  A violation is
reported as a :class:`~repro.analysis.diagnostics.Diagnostic` with a
stable ``TV0xx`` code naming the offending rule and node:

=====  ========  ====================================================
code   severity  obligation
=====  ========  ====================================================
TV001  error     the pass changed the root arity
TV002  error     the pass introduced a relation scan the input lacked
TV003  error     root column facts are not a refinement (typeinfer)
TV004  error     a constant-/empty-fold decision does not replay
TV005  error     join-reorder column-provenance bijection failed
TV006  error     a pushdown guard or distribution shape is violated
TV007  error     a build-side swap is not neutral (wrong restore map)
TV008  error     a "shared" subplan occurs fewer than twice
TV009  error     a recorded step carries no replayable payload
TV010  info      bijection search budget exceeded; step accepted
TV011  error     a normalization step's replacement does not replay
=====  ========  ====================================================

:func:`validate_rewrites` returns the diagnostics;
:func:`check_rewrites` raises
:class:`~repro.errors.RewriteValidationError` when any has error
severity.  The checkers are deliberately *independent*
re-derivations of each rule's specification — they share no code with
the rewrites they are judging.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Mapping,
                    Sequence)

from repro.algebra.ast import (
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
    Product,
    Project,
    Rel,
    Select,
    Union,
    arity_of,
    colexpr_columns,
    compare_values,
    walk_algebra,
)
from repro.algebra.printer import to_algebra_text
from repro.analysis.diagnostics import ERROR, INFO, Diagnostic, has_errors
from repro.analysis.typeinfer import infer_plan_types, refinement_violations
from repro.core.schema import DatabaseSchema
from repro.errors import EvaluationError, RewriteValidationError

if TYPE_CHECKING:
    # Runtime import would close the repro.engine <-> repro.analysis
    # cycle (the rewrite pass imports this module); annotations are
    # strings here.
    from repro.engine.rewrite import RewriteStep

__all__ = [
    "check_rewrites",
    "refinement_diagnostics",
    "validate_rewrites",
]

#: The normalization rules, each checked by :func:`_check_normalization`.
NORMALIZATION_RULES = frozenset({
    "project-cascade", "project-identity", "select-merge", "select-join",
    "unit-product", "anti-join"})

#: Bound on the permutations tried when matching duplicated leaves in a
#: reordered join region.  Exceeding it yields TV010 (info), never a
#: false alarm.
BIJECTION_BUDGET = 720


def _subject(node: AlgebraExpr | None, limit: int = 120) -> str:
    if node is None:
        return ""
    text = to_algebra_text(node)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _is_empty(node: AlgebraExpr) -> bool:
    return isinstance(node, Lit) and not node.rows


def _shift(expr: ColExpr, mapping: Callable[[int], int]) -> ColExpr:
    """Remap column coordinates in a ColExpr (independent re-derivation
    of the optimizer's shift, kept local on purpose)."""
    if isinstance(expr, Col):
        return Col(mapping(expr.index))
    if isinstance(expr, CConst):
        return expr
    if not isinstance(expr, CApp):
        raise TypeError(f"not a column expression: {expr!r}")
    return CApp(expr.name, tuple(_shift(a, mapping) for a in expr.args))


def _substitute(expr: ColExpr, exprs: Sequence[ColExpr]) -> ColExpr:
    """``expr`` with each ``@i`` replaced by ``exprs[i-1]`` (independent
    re-derivation of projection composition)."""
    if isinstance(expr, Col):
        return exprs[expr.index - 1]
    if isinstance(expr, CApp):
        return CApp(expr.name, tuple(_substitute(a, exprs)
                                     for a in expr.args))
    return expr


def _shift_cond(cond: Condition,
                mapping: Callable[[int], int]) -> Condition:
    return Condition(_shift(cond.left, mapping), cond.op,
                     _shift(cond.right, mapping))


# ---------------------------------------------------------------------------
# Per-rule obligations
# ---------------------------------------------------------------------------

def _check_fold_const(step: RewriteStep,
                      catalog: Mapping[str, int]) -> str | None:
    data = getattr(step, "data", ())
    if len(data) != 2:
        return "no recorded (condition, decision) payload"
    cond, decision = data
    if not isinstance(cond, Condition):
        return f"payload is not a condition: {cond!r}"
    if not (isinstance(cond.left, CConst) and isinstance(cond.right, CConst)):
        return f"folded condition {cond} is not constant-vs-constant"
    actual = compare_values(cond.op, cond.left.value, cond.right.value)
    if actual is not bool(decision):
        return (f"recorded decision {decision} for {cond} does not replay "
                f"(evaluates to {actual})")
    before, after = step.before, step.after
    if before is None and after is None:
        return None  # a decision without a plan change
    if not isinstance(before, (Select, Join, AntiJoin)) or after is None \
            or cond not in before.conds:
        return f"redex does not hold the folded condition {cond}"
    if decision:
        rest = before.conds - {cond}
        want: AlgebraExpr
        if isinstance(before, Select):
            want = Select(rest, before.child)
        elif isinstance(before, Join):
            want = Join(rest, before.left, before.right)
        else:
            want = AntiJoin(before.arity, rest, before.left, before.right)
        return None if after == want else "tautology fold changed more " \
                                          "than the condition set"
    if isinstance(before, AntiJoin):
        want = before.left
    else:
        want = Lit(arity_of(before, catalog), frozenset())
    return None if after == want else ("contradiction fold does not "
                                       "return the empty plan")


def _is_unit(node: AlgebraExpr) -> bool:
    return (isinstance(node, Lit) and node.arity == 0
            and node.rows == frozenset({()}))


def _check_normalization(rule: str, before: AlgebraExpr, after: AlgebraExpr,
                         catalog: Mapping[str, int]) -> str | None:
    """Each normalization rule's specification, re-derived: the one
    replacement its redex admits."""
    want: AlgebraExpr | None = None
    if rule == "project-cascade":
        if isinstance(before, Project) and isinstance(before.child, Project):
            inner = before.child
            if any(i > len(inner.exprs) for e in before.exprs
                   for i in colexpr_columns(e)):
                return "outer projection refers past the inner one"
            want = Project(tuple(_substitute(e, inner.exprs)
                                 for e in before.exprs), inner.child)
    elif rule == "project-identity":
        if isinstance(before, Project):
            width = arity_of(before.child, catalog)
            if before.exprs != tuple(Col(i) for i in range(1, width + 1)):
                return "projection is not the identity on its input"
            want = before.child
    elif rule == "select-merge":
        if isinstance(before, Select) and not before.conds:
            want = before.child
        elif isinstance(before, Select) and isinstance(before.child, Select):
            want = Select(before.conds | before.child.conds,
                          before.child.child)
    elif rule == "select-join":
        if isinstance(before, Join) and not before.conds:
            want = Product(before.left, before.right)
        elif isinstance(before, Select) and isinstance(before.child, Product):
            want = Join(before.conds, before.child.left, before.child.right)
        elif isinstance(before, Select) and isinstance(before.child, Join):
            want = Join(before.conds | before.child.conds,
                        before.child.left, before.child.right)
    elif rule == "unit-product":
        if isinstance(before, (Join, Product)):
            conds = before.conds if isinstance(before, Join) else frozenset()
            for unit, other in ((before.left, before.right),
                                (before.right, before.left)):
                if _is_unit(unit):
                    want = Select(conds, other) if conds else other
                    break
    elif rule == "anti-join":
        right = before.right if isinstance(before, Diff) else None
        if isinstance(right, Project) and isinstance(right.child, Join):
            assert isinstance(before, Diff)
            width = arity_of(before.left, catalog)
            if right.exprs != tuple(Col(i) for i in range(1, width + 1)):
                return "subtrahend does not project the context's columns"
            if right.child.left != before.left:
                return "the joined context is not the difference's left input"
            want = AntiJoin(width, right.child.conds, before.left,
                            right.child.right)
    if want is None:
        return f"unrecognized {rule} redex {type(before).__name__}"
    if after != want:
        return f"replacement is not what {rule} derives from the redex"
    return None


def _check_fold_empty(before: AlgebraExpr, after: AlgebraExpr,
                      catalog: Mapping[str, int]) -> str | None:
    if isinstance(before, Select):
        if not _is_empty(before.child):
            return "selection input is not empty"
        want = Lit(arity_of(before.child, catalog), frozenset())
        return None if after == want else "replacement is not the empty plan"
    if isinstance(before, Project):
        if not _is_empty(before.child):
            return "projection input is not empty"
        want = Lit(len(before.exprs), frozenset())
        return None if after == want else "replacement is not the empty plan"
    if isinstance(before, (Join, Product)):
        if not (_is_empty(before.left) or _is_empty(before.right)):
            return "neither join input is empty"
        width = (arity_of(before.left, catalog)
                 + arity_of(before.right, catalog))
        want = Lit(width, frozenset())
        return None if after == want else "replacement is not the empty plan"
    if isinstance(before, Union):
        if _is_empty(before.left) and after == before.right:
            return None
        if _is_empty(before.right) and after == before.left:
            return None
        return "union fold does not return the non-empty side"
    if isinstance(before, AntiJoin):
        if after == before.left and (_is_empty(before.left)
                                     or _is_empty(before.right)):
            return None
        return "anti-join fold keeps the wrong side"
    if isinstance(before, Diff):
        if _is_empty(before.right) and after == before.left:
            return None
        if _is_empty(before.left) and after == before.left:
            return None
        return "difference fold keeps the wrong side"
    if isinstance(before, Enumerate):
        if not _is_empty(before.child):
            return "enumeration input is not empty"
        want = Lit(arity_of(before.child, catalog) + before.out_count,
                   frozenset())
        return None if after == want else "replacement is not the empty plan"
    return f"unrecognized empty-fold redex {type(before).__name__}"


def _check_select_pushdown(before: AlgebraExpr, after: AlgebraExpr,
                           catalog: Mapping[str, int]) -> str | None:
    if isinstance(before, Select):
        child = before.child
        conds = before.conds
        if isinstance(child, Union):
            want = Union(Select(conds, child.left),
                         Select(conds, child.right))
            return (None if after == want
                    else "selection did not distribute over both union "
                         "branches")
        if isinstance(child, AntiJoin):
            want_anti = AntiJoin(child.arity, child.conds,
                                 Select(conds, child.left), child.right)
            return (None if after == want_anti
                    else "selection did not land on the anti-join "
                         "context")
        if isinstance(child, Diff):
            want = Diff(Select(conds, child.left), child.right)
            return (None if after == want
                    else "selection must move to the difference's left "
                         "input only")
        if isinstance(child, Enumerate):
            if isinstance(after, Select):
                outside, enum = after.conds, after.child
            else:
                outside, enum = frozenset(), after
            if not isinstance(enum, Enumerate) or (
                    enum.enumerator, enum.inputs, enum.out_count) != (
                    child.enumerator, child.inputs, child.out_count):
                return "enumerate node changed across the pushdown"
            inner = enum.child
            if not isinstance(inner, Select) or inner.child != child.child:
                return "pushed selection does not sit on the enumerate input"
            inside = inner.conds
            inner_arity = arity_of(child.child, catalog)
            for c in inside:
                if any(i > inner_arity for i in c.columns()):
                    return (f"guard violated: pushed condition {c} "
                            "references enumerator output columns")
            if inside & outside:
                return "a condition appears both inside and outside"
            if (inside | outside) != conds:
                return "condition set changed across the pushdown"
            return None
        return "unrecognized selection-pushdown redex"
    if isinstance(before, Join):
        left, right = before.left, before.right
        left_arity = arity_of(left, catalog)
        right_arity = arity_of(right, catalog)
        if isinstance(after, Join):
            keep, new_left, new_right = after.conds, after.left, after.right
        elif isinstance(after, Product):
            keep, new_left, new_right = frozenset(), after.left, after.right
        else:
            return "join pushdown must produce a join or a product"

        def pushed(new: AlgebraExpr,
                   base: AlgebraExpr) -> frozenset[Condition] | None:
            if new == base:
                return frozenset()
            if isinstance(new, Select) and new.child == base:
                return new.conds
            return None

        push_left = pushed(new_left, left)
        push_right = pushed(new_right, right)
        if push_left is None or push_right is None:
            return "join inputs changed beyond adding a selection"
        for c in push_left:
            if any(i > left_arity for i in c.columns()):
                return (f"guard violated: left-pushed condition {c} "
                        "references right columns")
        for c in push_right:
            if any(i > right_arity for i in c.columns()):
                return (f"guard violated: right-pushed condition {c} is "
                        "out of range")
        push_right_orig = frozenset(
            _shift_cond(c, lambda i: i + left_arity) for c in push_right)
        if keep | push_left | push_right_orig != before.conds:
            return "condition set changed across the pushdown"
        return None
    return f"unrecognized selection-pushdown redex {type(before).__name__}"


def _check_project_pushdown(before: AlgebraExpr, after: AlgebraExpr,
                            catalog: Mapping[str, int]) -> str | None:
    if not isinstance(before, Project):
        return f"unrecognized projection-pushdown redex {type(before).__name__}"
    child = before.child
    if isinstance(child, Union):
        want = Union(Project(before.exprs, child.left),
                     Project(before.exprs, child.right))
        return (None if after == want
                else "projection did not distribute over both union "
                     "branches")
    if isinstance(child, (Join, Product)):
        if not isinstance(after, Project) or not isinstance(
                after.child, type(child)):
            return "pruning must preserve the project-over-join shape"
        new_child = after.child
        left_arity = arity_of(child.left, catalog)
        right_arity = arity_of(child.right, catalog)

        def kept(new: AlgebraExpr, base: AlgebraExpr, offset: int,
                 width: int) -> list[int] | None:
            if new == base:
                return list(range(offset + 1, offset + width + 1))
            if (isinstance(new, Project) and new.child == base
                    and all(isinstance(e, Col) for e in new.exprs)):
                idxs = [e.index for e in new.exprs]
                if (idxs == sorted(idxs) and len(set(idxs)) == len(idxs)
                        and all(1 <= i <= width for i in idxs)):
                    return [offset + i for i in idxs]
            return None

        keep_left = kept(new_child.left, child.left, 0, left_arity)
        keep_right = kept(new_child.right, child.right, left_arity,
                          right_arity)
        if keep_left is None or keep_right is None:
            return ("pruned children must keep an increasing subset of "
                    "their columns")
        mapping = {col: pos for pos, col in
                   enumerate(keep_left + keep_right, start=1)}
        try:
            want_exprs = tuple(_shift(e, mapping.__getitem__)
                               for e in before.exprs)
            old_conds = child.conds if isinstance(child, Join) \
                else frozenset()
            want_conds = frozenset(_shift_cond(c, mapping.__getitem__)
                                   for c in old_conds)
        except KeyError as missing:
            return (f"pruned column @{missing.args[0]} is still referenced "
                    "by the projection or the join conditions")
        if after.exprs != want_exprs:
            return "projection expressions were not remapped consistently"
        new_conds = new_child.conds if isinstance(new_child, Join) \
            else frozenset()
        if new_conds != want_conds:
            return "join conditions were not remapped consistently"
        return None
    return "unrecognized projection-pushdown redex"


def _relabel(cols: tuple[int, ...]) -> Callable[[int], int]:
    """Map a node's columns ``@1..@n`` to their region coordinates."""
    def column(i: int) -> int:
        return cols[i - 1]
    return column


def _region_projection(n: AlgebraExpr) -> bool:
    return (isinstance(n, Project)
            and all(isinstance(e, Col) for e in n.exprs)
            and isinstance(n.child, (Join, Product, Project)))


def _flatten(
        node: AlgebraExpr, catalog: Mapping[str, int],
) -> tuple[list[AlgebraExpr], list[Condition], tuple[int, ...]]:
    """Flatten a Join/Product region: (leaves, conditions in region
    coordinates, output columns as region coordinates).  Mirrors the
    optimizer's region semantics but is re-derived here.  ``Select``
    nodes are transparent — their conditions join the region's pool —
    because the greedy order attaches start-leaf conditions as a
    selection while the original region held them in join nodes."""
    leaves: list[AlgebraExpr] = []
    conds: list[Condition] = []
    next_col = 0

    def walk(n: AlgebraExpr) -> tuple[int, ...]:
        nonlocal next_col
        if isinstance(n, (Join, Product)):
            out = walk(n.left) + walk(n.right)
            if isinstance(n, Join):
                conds.extend(_shift_cond(c, _relabel(out)) for c in n.conds)
            return out
        if isinstance(n, Select):
            out = walk(n.child)
            conds.extend(_shift_cond(c, _relabel(out)) for c in n.conds)
            return out
        if _region_projection(n):
            out = walk(n.child)
            return tuple(out[e.index - 1] for e in n.exprs)
        leaves.append(n)
        width = arity_of(n, catalog)
        out = tuple(range(next_col + 1, next_col + width + 1))
        next_col += width
        return out

    outcols = walk(node)
    return leaves, conds, outcols


def _check_reorder(before: AlgebraExpr, after: AlgebraExpr,
                   catalog: Mapping[str, int]) -> str | None:
    b_leaves, b_conds, b_out = _flatten(before, catalog)
    a_leaves, a_conds, a_out = _flatten(after, catalog)
    if len(b_leaves) != len(a_leaves):
        return (f"region leaf count changed: {len(b_leaves)} -> "
                f"{len(a_leaves)}")
    if Counter(b_leaves) != Counter(a_leaves):
        return "region leaf multiset changed"
    groups: dict[AlgebraExpr, list[int]] = {}
    for idx, leaf in enumerate(a_leaves):
        groups.setdefault(leaf, []).append(idx)

    b_arities = [arity_of(leaf, catalog) for leaf in b_leaves]
    a_arities = [arity_of(leaf, catalog) for leaf in a_leaves]
    b_starts, a_starts = [], []
    off = 0
    for a in b_arities:
        b_starts.append(off)
        off += a
    off = 0
    for a in a_arities:
        a_starts.append(off)
        off += a

    def owner(col: int) -> int:
        for idx in range(len(b_leaves)):
            if b_starts[idx] < col <= b_starts[idx] + b_arities[idx]:
                return idx
        raise AssertionError(f"column @{col} outside region")

    a_cond_set = frozenset(a_conds)
    # enumerate assignments: for each group of equal leaves, a
    # permutation of the after-side indices
    group_items = [(leaf, [i for i, b in enumerate(b_leaves) if b == leaf],
                    positions)
                   for leaf, positions in groups.items()]
    budget = BIJECTION_BUDGET

    def assignments(i: int,
                    pi: dict[int, int]) -> Iterator[dict[int, int]]:
        nonlocal budget
        if budget <= 0:
            return
        if i == len(group_items):
            yield dict(pi)
            return
        _leaf, b_positions, a_positions = group_items[i]
        for perm in permutations(a_positions):
            budget -= 1
            if budget < 0:
                return
            for b_idx, a_idx in zip(b_positions, perm):
                pi[b_idx] = a_idx
            yield from assignments(i + 1, pi)

    for pi in assignments(0, {}):

        def remap(col: int, pi: dict[int, int] = pi) -> int:
            b_idx = owner(col)
            return a_starts[pi[b_idx]] + (col - b_starts[b_idx])

        try:
            mapped_conds = frozenset(_shift_cond(c, remap) for c in b_conds)
            mapped_out = tuple(remap(g) for g in b_out)
        except (KeyError, AssertionError):
            continue
        if mapped_conds == a_cond_set and mapped_out == a_out:
            return None
    if budget <= 0:
        return "__budget__"
    return ("no leaf bijection maps the region's conditions and output "
            "columns onto the reordered plan")


def _check_build_side(before: AlgebraExpr, after: AlgebraExpr,
                      catalog: Mapping[str, int]) -> str | None:
    if not isinstance(before, Join):
        return "build-side redex is not a join"
    left_arity = arity_of(before.left, catalog)
    right_arity = arity_of(before.right, catalog)

    def remap(i: int) -> int:
        return i + right_arity if i <= left_arity else i - left_arity

    want_conds = frozenset(_shift_cond(c, remap) for c in before.conds)
    restore = tuple(
        [Col(right_arity + i) for i in range(1, left_arity + 1)]
        + [Col(i) for i in range(1, right_arity + 1)])
    want = Project(restore,
                   Join(want_conds, before.right, before.left))
    if after != want:
        return ("swap is not neutral: expected the restoring projection "
                "over the condition-remapped swapped join")
    return None


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_CHECKERS = {
    "fold-empty": ("TV004", _check_fold_empty),
    "pushdown-select": ("TV006", _check_select_pushdown),
    "pushdown-project": ("TV006", _check_project_pushdown),
    "join-reorder": ("TV005", _check_reorder),
    "build-side": ("TV007", _check_build_side),
}


def refinement_diagnostics(before: AlgebraExpr, after: AlgebraExpr,
                           catalog: Mapping[str, int],
                           schema: DatabaseSchema | None = None,
                           path: str = "plan") -> list[Diagnostic]:
    """The TV003 obligation alone: ``after``'s root column facts must
    refine ``before``'s (malformed plans have no facts to compare; their
    structural findings are reported elsewhere)."""
    before_root = infer_plan_types(before, catalog, schema).root
    after_root = infer_plan_types(after, catalog, schema).root
    if before_root is None or after_root is None:
        return []
    problems = refinement_violations(after_root, before_root)
    if not problems:
        return []
    return [Diagnostic(
        code="TV003", severity=ERROR,
        message="root column facts regressed: " + "; ".join(problems),
        path=path, subject=_subject(after))]


def validate_rewrites(original: AlgebraExpr, plan: AlgebraExpr,
                      steps: Sequence[RewriteStep],
                      shared: Iterable[AlgebraExpr],
                      catalog: Mapping[str, int],
                      schema: DatabaseSchema | None = None) -> list[Diagnostic]:
    """Certify one optimizer run: ``original`` is the input plan,
    ``plan``/``steps``/``shared`` the recorded outcome.  Returns every
    violated obligation as a diagnostic (empty = certified)."""
    diagnostics: list[Diagnostic] = []
    try:
        before_arity = arity_of(original, catalog)
        after_arity = arity_of(plan, catalog)
    except EvaluationError as err:
        return [Diagnostic(
            code="TV009", severity=ERROR,
            message=f"plan is not typable, cannot validate: {err}",
            path="plan")]
    if before_arity != after_arity:
        diagnostics.append(Diagnostic(
            code="TV001", severity=ERROR,
            message=f"rewrite pass changed the root arity: "
                    f"{before_arity} -> {after_arity}",
            path="plan", subject=_subject(plan)))
    before_rels = {n.name for n in walk_algebra(original)
                   if isinstance(n, Rel)}
    after_rels = {n.name for n in walk_algebra(plan) if isinstance(n, Rel)}
    introduced = sorted(after_rels - before_rels)
    if introduced:
        diagnostics.append(Diagnostic(
            code="TV002", severity=ERROR,
            message=f"rewrite pass introduced relation scan(s) the input "
                    f"never read: {', '.join(introduced)}",
            path="plan"))
    diagnostics.extend(refinement_diagnostics(
        original, plan, catalog, schema, path="plan"))

    for index, step in enumerate(steps):
        rule = getattr(step, "rule", "")
        path = f"rewrites[{index}]"
        if rule == "fold-const":
            try:
                problem = _check_fold_const(step, catalog)
            except EvaluationError as err:
                problem = f"redex is not typable: {err}"
            if problem is not None:
                diagnostics.append(Diagnostic(
                    code="TV004", severity=ERROR,
                    message=f"{rule} rewrite failed its obligation: "
                            f"{problem}",
                    path=path, subject=str(step)))
            continue
        if rule == "cse":
            continue  # certified via the shared-subplan check below
        if rule not in _CHECKERS and rule not in NORMALIZATION_RULES:
            diagnostics.append(Diagnostic(
                code="TV009", severity=ERROR,
                message=f"unknown rewrite rule {rule!r}: no obligation "
                        "to discharge",
                path=path, subject=str(step)))
            continue
        before = getattr(step, "before", None)
        after = getattr(step, "after", None)
        if before is None or after is None:
            diagnostics.append(Diagnostic(
                code="TV009", severity=ERROR,
                message=f"{rule} rewrite recorded no before/after redex, "
                        "cannot replay its obligation",
                path=path, subject=str(step)))
            continue
        try:
            if rule in NORMALIZATION_RULES:
                code = "TV011"
                problem = _check_normalization(rule, before, after, catalog)
            else:
                code, checker = _CHECKERS[rule]
                problem = checker(before, after, catalog)
        except EvaluationError as err:
            problem = f"redex is not typable: {err}"
        if problem == "__budget__":
            diagnostics.append(Diagnostic(
                code="TV010", severity=INFO,
                message=f"{rule} bijection search exceeded its budget; "
                        "step accepted without a certificate",
                path=path, subject=_subject(before)))
        elif problem is not None:
            diagnostics.append(Diagnostic(
                code=code, severity=ERROR,
                message=f"{rule} rewrite failed its obligation: {problem}",
                path=path, subject=_subject(before)))

    for sub in shared:
        occurrences = sum(1 for n in walk_algebra(plan) if n == sub)
        if occurrences < 2:
            diagnostics.append(Diagnostic(
                code="TV008", severity=ERROR,
                message=f"cse rewrite failed its obligation: subplan "
                        f"marked shared occurs {occurrences} time(s) in "
                        "the final plan",
                path="plan.shared", subject=_subject(sub)))
    return diagnostics


def check_rewrites(original: AlgebraExpr, plan: AlgebraExpr,
                   steps: Sequence[RewriteStep],
                   shared: Iterable[AlgebraExpr],
                   catalog: Mapping[str, int],
                   schema: DatabaseSchema | None = None,
                   phase: str = "optimize") -> None:
    """Raise :class:`~repro.errors.RewriteValidationError` when any
    validation obligation fails with error severity."""
    diagnostics = validate_rewrites(original, plan, steps, shared, catalog,
                                    schema)
    if has_errors(diagnostics):
        raise RewriteValidationError(
            f"translation validation failed ({phase} phase)",
            diagnostics=[d for d in diagnostics if d.is_error])
