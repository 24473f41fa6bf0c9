"""The extended relational algebra (coordinate positions, scalar
functions via extended projection).

* :mod:`repro.algebra.ast` — expression nodes and static arity checking;
* :mod:`repro.algebra.evaluator` — reference evaluation with row stats;
* :mod:`repro.algebra.printer` — paper-style plan rendering.

Plan rewriting (normalization and optimization) lives in
:mod:`repro.engine.rewrite`.
"""

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    CApp,
    CConst,
    Col,
    ColExpr,
    Condition,
    Diff,
    Join,
    Lit,
    Product,
    Project,
    Rel,
    Select,
    Union,
    algebra_function_names,
    algebra_size,
    arity_of,
    colexpr_columns,
    walk_algebra,
)
from repro.algebra.evaluator import EvalStats, eval_colexpr, evaluate
from repro.algebra.printer import explain, to_algebra_text

__all__ = [
    "AlgebraExpr", "Rel", "Lit", "Project", "Select", "Join",
    "Union", "Diff", "Product", "AdomK",
    "ColExpr", "Col", "CConst", "CApp", "Condition",
    "arity_of", "algebra_size", "algebra_function_names",
    "walk_algebra", "colexpr_columns",
    "evaluate", "eval_colexpr", "EvalStats",
    "to_algebra_text", "explain",
]
