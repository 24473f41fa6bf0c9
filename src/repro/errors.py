"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch a single base class at API boundaries.  The sub-hierarchy follows
the pipeline: building and parsing queries, static safety analysis,
translation into the algebra, and evaluation.

This module also defines :class:`SourceSpan`, the line/column location
type shared by :class:`ParseError` and the structured diagnostics of
:mod:`repro.analysis` — it lives here (the leaf of the import graph) so
both can use it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A region of a source text: 1-based line and column, plus length.

    ``from_offset`` converts the flat character offsets the tokenizer
    produces; ``underline`` renders the classic two-line excerpt with a
    caret run under the offending characters::

        { x | R(x
              ^^
    """

    line: int
    column: int
    length: int = 1

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1 or self.length < 1:
            raise ValueError(
                f"spans are 1-based and non-empty, got {self.line}:{self.column}+{self.length}")

    @classmethod
    def from_offset(cls, text: str, offset: int, length: int = 1) -> "SourceSpan":
        """The span covering ``text[offset:offset+length]``."""
        offset = max(0, min(offset, len(text)))
        before = text[:offset]
        line = before.count("\n") + 1
        column = offset - (before.rfind("\n") + 1) + 1
        return cls(line, column, max(1, length))

    def underline(self, source: str) -> str:
        """The source line of this span with a caret run beneath it."""
        lines = source.splitlines() or [""]
        row = lines[self.line - 1] if self.line <= len(lines) else ""
        width = min(self.length, max(1, len(row) - self.column + 1)) or 1
        carets = " " * (self.column - 1) + "^" * max(1, width)
        return f"{row}\n{carets}"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class SchemaError(ReproError):
    """A relation or function is used inconsistently with its declaration.

    Raised for arity mismatches, duplicate declarations, and references to
    undeclared relation or function names when validating against a
    :class:`repro.core.schema.DatabaseSchema`.
    """


class ParseError(ReproError):
    """The textual query syntax is malformed.

    Carries the flat ``position`` (for programmatic use), the source
    ``text``, and — when both are known — a :class:`SourceSpan` in
    ``span``; the rendered message includes a caret-underlined excerpt.
    """

    def __init__(self, message: str, position: int = -1, text: str = "",
                 length: int = 1):
        self.position = position
        self.text = text
        self.span: SourceSpan | None = None
        if position >= 0 and text:
            self.span = SourceSpan.from_offset(text, position, length)
            message = (f"{message} (line {self.span.line}, "
                       f"column {self.span.column})\n"
                       + _indent(self.span.underline(text)))
        super().__init__(message)


def _indent(block: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in block.splitlines())


class FormulaError(ReproError):
    """A formula or query AST is structurally invalid.

    Examples: an ``Exists`` that binds no variables, an output term of a
    query mentioning a variable that is not free in the body.
    """


class SafetyError(ReproError):
    """A query fails a safety requirement (e.g. it is not em-allowed)."""


class NotEmAllowedError(SafetyError):
    """The query is not embedded-allowed, so translation is refused.

    The ``reasons`` attribute lists the specific violations found as
    plain strings (unbounded free variables, quantified variables not
    bounded in their scope); ``diagnostics`` carries the same
    information as structured :class:`repro.analysis.Diagnostic`
    objects when the caller built them.  ``str(err)`` renders the full
    problem list, one bullet per violation.
    """

    def __init__(self, message: str, reasons: list = None,
                 diagnostics: list = None):
        self.diagnostics = list(diagnostics or [])
        if reasons is None and self.diagnostics:
            reasons = [d.message for d in self.diagnostics]
        self.reasons = [str(r) for r in (reasons or [])]
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        if not self.reasons:
            return message
        bullets = "\n".join(f"  - {r}" for r in self.reasons)
        return f"{message}\n{bullets}"


class TranslationError(ReproError):
    """The translation pipeline could not produce an algebra query.

    For em-allowed input this indicates a bug (the paper proves the
    algorithm total on em-allowed queries); it is raised deliberately by
    the ablated rule sets used in the T10-necessity experiment.
    """


class TransformationStuckError(TranslationError):
    """No transformation in the active rule set applies, yet the formula
    is not in the target normal form.

    Used by the E4 experiment: running the RANF driver with T10 removed
    gets stuck on the q4 family exactly as the paper describes.
    """


class PlanInvariantError(TranslationError):
    """Plan verification found a structurally invalid plan.

    Raised only under ``verify_plans=True`` (see
    :func:`repro.analysis.typeinfer.check_plan`): a translation or
    rewrite phase emitted a plan with out-of-range coordinates, mismatched
    union/difference arities, or conditions over missing columns.  The
    ``diagnostics`` attribute lists every violation found.
    """

    def __init__(self, message: str, diagnostics: list = None):
        self.diagnostics = list(diagnostics or [])
        if self.diagnostics:
            bullets = "; ".join(d.message for d in self.diagnostics)
            message = f"{message}: {bullets}"
        super().__init__(message)


class RewriteValidationError(PlanInvariantError):
    """The translation validator refused an optimizer rewrite.

    Raised by :func:`repro.analysis.validate.check_rewrites` when a
    recorded :class:`~repro.engine.rewrite.RewriteStep` fails its
    per-rule soundness obligation or the rewrite pass as a whole
    violates a global one (root arity, relation provenance, column-fact
    refinement).  The ``diagnostics`` attribute carries the ``TV0xx``
    findings naming the offending rule and node.
    """


class EvaluationError(ReproError):
    """Evaluation of a calculus or algebra query failed.

    Raised for unknown relation names, arity mismatches discovered at
    run time, and function applications outside the supplied
    interpretation.
    """


class UnsafeEvaluationError(EvaluationError):
    """Direct calculus evaluation required an infinite range.

    The reference evaluator ranges quantified variables over a finite
    universe; this error signals that a caller asked for genuinely
    unbounded evaluation (e.g. evaluating a non-domain-independent query
    with ``range_policy='refuse'``).
    """
