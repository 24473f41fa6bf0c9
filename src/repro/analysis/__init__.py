"""Static analysis over both IRs: diagnostics, linter, plan analysis
(type inference with structural checks), and translation validation.

Four layers (see DESIGN.md S19 and S23):

* :mod:`repro.analysis.diagnostics` — the :class:`Diagnostic` value
  type, severity order, compiler-style text rendering, and JSON export;
* :mod:`repro.analysis.linter` — a rule registry over the calculus IR
  (schema misuse, quantifier hygiene, trivial/contradictory atoms,
  explanatory em-allowed safety rules);
* :mod:`repro.analysis.typeinfer` — the abstract interpreter assigning
  each plan node per-column facts (value type, nullability, function
  depth / ``term_k`` finiteness certificate, constants, provenance,
  keys), reporting structural ``PL0xx`` and type ``TY0xx`` diagnostics;
  its structural findings are the plan check the translation pipeline
  and the optimizer run after every phase behind ``verify_plans``;
* :mod:`repro.analysis.validate` — the translation validator replaying
  every recorded rewrite step and discharging per-rule soundness
  obligations (``TV0xx``).

Only the diagnostics core is imported eagerly: the safety layer
(:mod:`repro.safety.em_allowed`) imports it, while the linter imports
the safety layer back — the remaining names load lazily via module
``__getattr__`` to keep that cycle open.
"""

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Diagnostic,
    diagnostics_to_dict,
    diagnostics_to_json,
    has_errors,
    max_severity,
    render_diagnostic,
    render_diagnostics,
    save_diagnostics,
    sort_diagnostics,
)

__all__ = [
    # diagnostics (eager)
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "Diagnostic",
    "has_errors",
    "max_severity",
    "sort_diagnostics",
    "render_diagnostic",
    "render_diagnostics",
    "diagnostics_to_dict",
    "diagnostics_to_json",
    "save_diagnostics",
    # linter (lazy)
    "Linter",
    "LintRule",
    "LintTarget",
    "DEFAULT_LINTER",
    "REGISTERED_RULE_CODES",
    "lint_formula",
    "lint_query",
    "lint_source",
    # typeinfer (lazy)
    "sanitize_plan",
    "check_plan",
    "set_verify_plans",
    "verify_plans_enabled",
    "ColumnFact",
    "FinitenessCertificate",
    "NodeFacts",
    "PlanTypes",
    "infer_plan_types",
    "refinement_violations",
    "render_typed_plan",
    # validate (lazy)
    "check_rewrites",
    "refinement_diagnostics",
    "validate_rewrites",
]

_LINTER_NAMES = frozenset({
    "Linter", "LintRule", "LintTarget", "DEFAULT_LINTER",
    "REGISTERED_RULE_CODES", "lint_formula", "lint_query", "lint_source",
})
_TYPEINFER_NAMES = frozenset({
    "ColumnFact", "FinitenessCertificate", "NodeFacts", "PlanTypes",
    "infer_plan_types", "refinement_violations", "render_typed_plan",
    "sanitize_plan", "check_plan", "set_verify_plans",
    "verify_plans_enabled",
})
_VALIDATE_NAMES = frozenset({
    "check_rewrites", "refinement_diagnostics", "validate_rewrites",
})


def __getattr__(name: str) -> object:
    if name in _LINTER_NAMES:
        from repro.analysis import linter
        return getattr(linter, name)
    if name in _TYPEINFER_NAMES:
        from repro.analysis import typeinfer
        return getattr(typeinfer, name)
    if name in _VALIDATE_NAMES:
        from repro.analysis import validate
        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
