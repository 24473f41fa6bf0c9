"""Paper-style rendering of algebra plans.

``to_algebra_text`` prints plans in the notation of the paper, e.g.::

    project([g(f(@1))], R)
    R - project([@1,@2,@3], join({@2==@4, @3==@5}, R, S))

``explain`` renders an indented operator tree for longer plans.
"""

from __future__ import annotations

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    AntiJoin,
    Enumerate,
    Params,
    Diff,
    Join,
    Lit,
    Product,
    Project,
    Rel,
    Select,
    Union,
)

__all__ = ["to_algebra_text", "explain"]


def _conds_text(conds) -> str:
    return "{" + ", ".join(sorted(str(c) for c in conds)) + "}"


def to_algebra_text(expr: AlgebraExpr) -> str:
    """Single-line, paper-style rendering."""
    if isinstance(expr, Rel):
        return expr.name
    if isinstance(expr, Lit):
        rows = sorted(expr.rows, key=repr)
        inner = ", ".join(
            "(" + ", ".join(repr(v) for v in row) + ")" for row in rows
        )
        return f"lit[{expr.arity}]{{{inner}}}"
    if isinstance(expr, AdomK):
        extras = ""
        if expr.extras:
            extras = ", extras=" + repr(sorted(expr.extras, key=repr))
        return f"Adom^{expr.level}({extras.lstrip(', ')})" if extras else f"Adom^{expr.level}"
    if isinstance(expr, Params):
        return f"params[{expr.arity}]"
    if isinstance(expr, Enumerate):
        inputs = ",".join(str(e) for e in expr.inputs)
        return (f"enumerate[{expr.enumerator}]([{inputs}], "
                f"{to_algebra_text(expr.child)})")
    if isinstance(expr, Project):
        exprs = ",".join(str(e) for e in expr.exprs)
        return f"project([{exprs}], {to_algebra_text(expr.child)})"
    if isinstance(expr, Select):
        return f"select({_conds_text(expr.conds)}, {to_algebra_text(expr.child)})"
    if isinstance(expr, Join):
        return (f"join({_conds_text(expr.conds)}, "
                f"{to_algebra_text(expr.left)}, {to_algebra_text(expr.right)})")
    if isinstance(expr, Union):
        return f"({to_algebra_text(expr.left)} + {to_algebra_text(expr.right)})"
    if isinstance(expr, Diff):
        return f"({to_algebra_text(expr.left)} - {to_algebra_text(expr.right)})"
    if isinstance(expr, AntiJoin):
        # T15's generalized difference, spelled out as in the paper
        left = to_algebra_text(expr.left)
        identity = ",".join(f"@{i}" for i in range(1, expr.arity + 1))
        return (f"({left} - project([{identity}], join("
                f"{_conds_text(expr.conds)}, {left}, "
                f"{to_algebra_text(expr.right)})))")
    if isinstance(expr, Product):
        return f"({to_algebra_text(expr.left)} x {to_algebra_text(expr.right)})"
    raise TypeError(f"not an algebra expression: {expr!r}")


def explain(expr: AlgebraExpr, indent: int = 0) -> str:
    """Indented multi-line operator tree."""
    pad = "  " * indent
    if isinstance(expr, Rel):
        return f"{pad}Rel {expr.name}"
    if isinstance(expr, Lit):
        return f"{pad}Lit arity={expr.arity} rows={len(expr.rows)}"
    if isinstance(expr, AdomK):
        return f"{pad}Adom level={expr.level} extras={len(expr.extras)}"
    if isinstance(expr, Params):
        return f"{pad}Params arity={expr.arity}"
    if isinstance(expr, Enumerate):
        inputs = ", ".join(str(e) for e in expr.inputs)
        return (f"{pad}Enumerate {expr.enumerator}({inputs}) +{expr.out_count}\n"
                + explain(expr.child, indent + 1))
    if isinstance(expr, Project):
        exprs = ", ".join(str(e) for e in expr.exprs)
        return f"{pad}Project [{exprs}]\n" + explain(expr.child, indent + 1)
    if isinstance(expr, Select):
        return f"{pad}Select {_conds_text(expr.conds)}\n" + explain(expr.child, indent + 1)
    if isinstance(expr, (Join, AntiJoin)):
        return (f"{pad}{type(expr).__name__} {_conds_text(expr.conds)}\n"
                + explain(expr.left, indent + 1) + "\n"
                + explain(expr.right, indent + 1))
    for cls, label in ((Union, "Union"), (Diff, "Diff"), (Product, "Product")):
        if isinstance(expr, cls):
            return (f"{pad}{label}\n"
                    + explain(expr.left, indent + 1) + "\n"
                    + explain(expr.right, indent + 1))
    raise TypeError(f"not an algebra expression: {expr!r}")
