"""repro — Safety and Translation of Calculus Queries with Scalar Functions.

A full reproduction of Escobar-Molano, Hull & Jacobs (PODS 1993):
relational calculus with scalar functions, finiteness dependencies and
reduced covers, the em-allowed safety criterion, and the generalized
van Gelder–Topor translation into an extended relational algebra.

Quickstart::

    from repro import parse_query, translate_query, evaluate, Instance, Interpretation

    q = parse_query("{ x | R(x) & exists y (f(x) = y & ~R(y)) }")
    result = translate_query(q)           # refuses non-em-allowed queries
    print(result.plan)                    # extended algebra

    I = Instance.of(R=[(1,), (2,)])
    F = Interpretation({"f": lambda v: v + 1})
    answer = evaluate(result.plan, I, F, schema=result.schema)

Package map:

* :mod:`repro.core` — calculus syntax: terms, formulas, queries, parser;
* :mod:`repro.data` — relations, instances, interpretations, term closures;
* :mod:`repro.finds` — finiteness dependencies and reduced covers;
* :mod:`repro.safety` — pushnot, bd, em-allowed, and comparator criteria;
* :mod:`repro.analysis` — structured diagnostics, the formula linter,
  plan type inference with structural checks, and the translation
  validator;
* :mod:`repro.algebra` — the extended algebra and its evaluator;
* :mod:`repro.translate` — the four-step translation (T1–T16);
* :mod:`repro.semantics` — reference evaluation and EDI checking;
* :mod:`repro.engine` — physical operators for performance experiments;
* :mod:`repro.obs` — span tracing, metrics, and EXPLAIN ANALYZE profiles;
* :mod:`repro.workloads` — the paper's query gallery and benchmark families.
"""

from repro.algebra import evaluate, to_algebra_text
from repro.analysis import (
    Diagnostic,
    lint_formula,
    lint_query,
    lint_source,
    render_diagnostics,
    sanitize_plan,
)
from repro.core import (
    CalculusQuery,
    DatabaseSchema,
    parse_formula,
    parse_query,
    to_text,
)
from repro.data import Instance, Interpretation, Relation
from repro.errors import (
    EvaluationError,
    NotEmAllowedError,
    ParseError,
    PlanInvariantError,
    ReproError,
    SafetyError,
    SchemaError,
    SourceSpan,
    TransformationStuckError,
    TranslationError,
)
from repro.obs import (
    ExecutionProfile,
    MetricsRegistry,
    SpanTracer,
    render_explain_analyze,
)
from repro.safety import bd, em_allowed, em_allowed_query
from repro.semantics import edi_witness, evaluate_query
from repro.translate import translate_query, translate_query_adom

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # syntax
    "parse_query", "parse_formula", "to_text", "CalculusQuery", "DatabaseSchema",
    # data
    "Instance", "Relation", "Interpretation",
    # safety analysis
    "bd", "em_allowed", "em_allowed_query",
    # static analysis
    "Diagnostic", "SourceSpan", "render_diagnostics",
    "lint_formula", "lint_query", "lint_source", "sanitize_plan",
    # translation
    "translate_query", "translate_query_adom", "to_algebra_text",
    # evaluation
    "evaluate", "evaluate_query", "edi_witness",
    # observability
    "SpanTracer", "MetricsRegistry", "ExecutionProfile",
    "render_explain_analyze",
    # errors
    "ReproError", "ParseError", "SchemaError", "SafetyError",
    "NotEmAllowedError", "TranslationError", "TransformationStuckError",
    "PlanInvariantError", "EvaluationError",
]
