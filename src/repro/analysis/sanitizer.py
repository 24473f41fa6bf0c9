"""The algebra plan sanitizer: static schema/arity inference over plans.

``sanitize_plan`` runs a bottom-up arity inference over an
:class:`~repro.algebra.ast.AlgebraExpr` and reports every structural
violation as a :class:`~repro.analysis.diagnostics.Diagnostic` —
unlike :func:`repro.algebra.ast.arity_of`, which raises on the first
problem, the sanitizer recovers (an unknown arity propagates as "skip
the dependent checks") and collects all of them:

=======  ==========================================================
code     finding
=======  ==========================================================
PL001    projection expression refers to an out-of-range column
PL002    union/difference/anti-join of mismatched arities
PL003    selection/join condition refers to a missing column
PL004    unknown relation name in the plan
PL005    enumerate input refers to an out-of-range column
PL006    plan arity differs from the declared/expected arity
=======  ==========================================================

``check_plan`` raises :class:`~repro.errors.PlanInvariantError` when
anything is found; the translation pipeline calls it after every phase
and the simplifier after every rewrite round when plan verification is
on.  Verification follows the observability subsystem's zero-overhead
pattern: a module-level default (off) that the test suite switches on
globally via :func:`set_verify_plans`, plus a per-call override on
``translate_query(..., verify_plans=...)``.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    AntiJoin,
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
    colexpr_columns,
)
from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.errors import PlanInvariantError

__all__ = [
    "sanitize_plan",
    "check_plan",
    "set_verify_plans",
    "verify_plans_enabled",
]

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


def _diag(code: str, message: str, path: str, node: AlgebraExpr,
          suggestion: str = "") -> Diagnostic:
    return Diagnostic(code, ERROR, message, path=path, subject=str(node),
                      suggestion=suggestion)


def _infer(expr: AlgebraExpr, catalog: Mapping[str, int],
           out: list[Diagnostic], path: str) -> int | None:
    """Bottom-up arity inference with error recovery.

    Returns the node's output arity, or None when it cannot be
    determined (the violation is already recorded in ``out``; checks
    that depend on the unknown arity are skipped rather than cascading).
    """
    if isinstance(expr, Rel):
        if expr.name not in catalog:
            known = ", ".join(sorted(catalog)) or "(none)"
            out.append(_diag("PL004", f"unknown relation {expr.name!r} in plan",
                             path, expr,
                             suggestion=f"catalog declares: {known}"))
            return None
        return catalog[expr.name]
    if isinstance(expr, Lit):
        return expr.arity
    if isinstance(expr, AdomK):
        return 1
    if isinstance(expr, Params):
        return expr.arity
    if isinstance(expr, Enumerate):
        child = _infer(expr.child, catalog, out, f"{path}.child")
        if child is None:
            return None
        for e in expr.inputs:
            bad = [i for i in colexpr_columns(e) if i > child or i < 1]
            if bad:
                out.append(_diag(
                    "PL005",
                    f"enumerate input {e} refers to @{bad[0]} but child "
                    f"arity is {child}",
                    path, expr))
        return child + expr.out_count
    if isinstance(expr, Project):
        child = _infer(expr.child, catalog, out, f"{path}.child")
        if child is not None:
            for e in expr.exprs:
                bad = [i for i in colexpr_columns(e) if i > child or i < 1]
                if bad:
                    out.append(_diag(
                        "PL001",
                        f"projection expression {e} refers to @{bad[0]} but "
                        f"child arity is {child}",
                        path, expr,
                        suggestion=f"valid columns are @1..@{child}"))
        return len(expr.exprs)
    if isinstance(expr, Select):
        child = _infer(expr.child, catalog, out, f"{path}.child")
        if child is None:
            return None
        for cond in expr.conds:
            bad = [i for i in cond.columns() if i > child or i < 1]
            if bad:
                out.append(_diag(
                    "PL003",
                    f"selection condition {cond} refers to @{bad[0]} but "
                    f"input arity is {child}",
                    path, expr,
                    suggestion=f"valid columns are @1..@{child}"))
        return child
    if isinstance(expr, (Join, AntiJoin)):
        left = _infer(expr.left, catalog, out, f"{path}.left")
        right = _infer(expr.right, catalog, out, f"{path}.right")
        if left is None or right is None:
            return None
        total = left + right
        for cond in expr.conds:
            bad = [i for i in cond.columns() if i > total or i < 1]
            if bad:
                out.append(_diag(
                    "PL003",
                    f"join condition {cond} refers to @{bad[0]} but joined "
                    f"arity is {total}",
                    path, expr,
                    suggestion=f"valid columns are @1..@{total}"))
        if isinstance(expr, AntiJoin) and expr.arity != left:
            out.append(_diag("PL002", f"anti-join declares arity "
                             f"{expr.arity}, its left input has {left}",
                             path, expr))
            return None
        return total if isinstance(expr, Join) else left
    if isinstance(expr, (Union, Diff)):
        op = "union" if isinstance(expr, Union) else "difference"
        left = _infer(expr.left, catalog, out, f"{path}.left")
        right = _infer(expr.right, catalog, out, f"{path}.right")
        if left is None or right is None:
            return left if right is None else right
        if left != right:
            out.append(_diag(
                "PL002",
                f"{op} of mismatched arities: left is {left}, right is "
                f"{right}",
                path, expr,
                suggestion="project both operands to a common column list"))
            return None
        return left
    if isinstance(expr, Product):
        left = _infer(expr.left, catalog, out, f"{path}.left")
        right = _infer(expr.right, catalog, out, f"{path}.right")
        if left is None or right is None:
            return None
        return left + right
    out.append(_diag("PL004", f"not an algebra expression: {expr!r}",
                     path, expr))
    return None


def sanitize_plan(expr: AlgebraExpr, catalog: Mapping[str, int],
                  expected_arity: int | None = None,
                  root: str = "plan") -> list[Diagnostic]:
    """All structural violations in ``expr``; empty means the plan is
    well-formed (and, when ``expected_arity`` is given, produces rows of
    exactly that width)."""
    out: list[Diagnostic] = []
    arity = _infer(expr, catalog, out, root)
    if (expected_arity is not None and arity is not None
            and arity != expected_arity):
        out.append(_diag(
            "PL006",
            f"plan produces rows of arity {arity}, expected "
            f"{expected_arity}",
            root, expr,
            suggestion="a rewrite dropped or duplicated an output column"))
    return out


def check_plan(expr: AlgebraExpr, catalog: Mapping[str, int],
               phase: str = "",
               expected_arity: int | None = None) -> None:
    """Raise :class:`PlanInvariantError` if ``expr`` is malformed.

    ``phase`` names the pipeline stage (or simplifier round) that
    produced the plan, so the error pinpoints the culprit.
    """
    diagnostics = sanitize_plan(expr, catalog, expected_arity)
    if diagnostics:
        where = f" after {phase}" if phase else ""
        raise PlanInvariantError(f"invalid algebra plan{where}",
                                 diagnostics=diagnostics)
