"""The diagnostics core: structured, renderable analysis results.

Every static check in the library — the formula linter, the explanatory
em-allowed rules, and the algebra plan sanitizer — reports its findings
as :class:`Diagnostic` values instead of flat strings: a stable code
(``EM001``, ``LN104``, ``PL002``), a severity, a human message, a
location (a formula path like ``body[1].exists``, a plan path like
``plan.union.left``, or a :class:`~repro.errors.SourceSpan` when source
text is known), and an optional concrete ``suggestion``.

Rendering follows the familiar compiler style::

    error[EM001] free variables ['y'] are not bounded
      --> body (line 1, column 9)
      { x, y | ~R2(x, y) }
              ^
      in: ~R2(x, y)
      help: add a conjunct that bounds y, e.g. a finite relation atom

JSON export mirrors the :mod:`repro.obs.export` bundle conventions —
one dict with optional sections, serialized stably — so lint output and
profiling output can travel through the same tooling.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.errors import SourceSpan

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "Diagnostic",
    "has_errors",
    "max_severity",
    "render_diagnostic",
    "render_diagnostics",
    "diagnostics_to_dict",
    "diagnostics_to_json",
    "save_diagnostics",
]

#: Severity levels, most severe first.  Plain strings (not an enum) so
#: diagnostics serialize naturally and comparisons read literally.
ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES = (ERROR, WARNING, INFO)

_RANK = {severity: i for i, severity in enumerate(SEVERITIES)}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding of a static check.

    * ``code`` — stable identifier (``EM...`` safety, ``LN...`` lint,
      ``PL...`` plan sanitizer); tools filter and suppress by it;
    * ``severity`` — one of :data:`SEVERITIES`;
    * ``message`` — the one-line human statement of the problem;
    * ``path`` — structural location (formula or plan path), may be "";
    * ``span`` — source location when the input came from text;
    * ``subject`` — the offending subformula / plan node, printed;
    * ``suggestion`` — a concrete fix, when the rule knows one.
    """

    code: str
    severity: str
    message: str
    path: str = ""
    span: SourceSpan | None = None
    subject: str = ""
    suggestion: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _RANK:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}")
        if not self.code:
            raise ValueError("diagnostic needs a code")

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; optional fields are omitted when empty."""
        out: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.path:
            out["path"] = self.path
        if self.span is not None:
            out["span"] = {"line": self.span.line, "column": self.span.column,
                           "length": self.span.length}
        if self.subject:
            out["subject"] = self.subject
        if self.suggestion:
            out["suggestion"] = self.suggestion
        return out

    def __str__(self) -> str:
        return f"{self.severity}[{self.code}] {self.message}"


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any diagnostic has error severity."""
    return any(d.is_error for d in diagnostics)


def max_severity(diagnostics: Iterable[Diagnostic]) -> str | None:
    """The most severe level present, or None for an empty list."""
    best: str | None = None
    for d in diagnostics:
        if best is None or _RANK[d.severity] < _RANK[best]:
            best = d.severity
    return best


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Stable order: severity first, then code, then path."""
    return sorted(diagnostics, key=lambda d: (_RANK[d.severity], d.code, d.path))


def render_diagnostic(diagnostic: Diagnostic, source: str = "") -> str:
    """Render one diagnostic in the compiler style, with a
    caret-underlined excerpt when a span and the source are known."""
    lines = [str(diagnostic)]
    location = diagnostic.path
    if diagnostic.span is not None:
        where = (f"line {diagnostic.span.line}, "
                 f"column {diagnostic.span.column}")
        location = f"{location} ({where})" if location else where
    if location:
        lines.append(f"  --> {location}")
    if diagnostic.span is not None and source:
        for row in diagnostic.span.underline(source).splitlines():
            lines.append(f"  {row}")
    if diagnostic.subject:
        lines.append(f"  in: {diagnostic.subject}")
    if diagnostic.suggestion:
        lines.append(f"  help: {diagnostic.suggestion}")
    return "\n".join(lines)


def render_diagnostics(diagnostics: Iterable[Diagnostic],
                       source: str = "") -> str:
    """All diagnostics (sorted most severe first) plus a summary line."""
    diagnostics = sort_diagnostics(diagnostics)
    if not diagnostics:
        return "no problems found"
    blocks = [render_diagnostic(d, source) for d in diagnostics]
    counts = {s: sum(1 for d in diagnostics if d.severity == s)
              for s in SEVERITIES}
    summary = ", ".join(f"{n} {s}{'s' if n != 1 else ''}"
                        for s, n in counts.items() if n)
    return "\n".join(blocks) + f"\n{summary}"


def diagnostics_to_dict(diagnostics: Iterable[Diagnostic],
                        source: str = "") -> dict[str, Any]:
    """The lint bundle: diagnostics plus a severity summary.

    Mirrors :func:`repro.obs.export.export_bundle`: one dict with
    sections, empty sections omitted.
    """
    diagnostics = sort_diagnostics(diagnostics)
    bundle: dict[str, Any] = {
        "diagnostics": [d.to_dict() for d in diagnostics],
        "summary": {s: sum(1 for d in diagnostics if d.severity == s)
                    for s in SEVERITIES},
    }
    if source:
        bundle["source"] = source
    return bundle


def diagnostics_to_json(diagnostics: Iterable[Diagnostic],
                        source: str = "",
                        indent: int | None = 2) -> str:
    """The bundle serialized as a JSON string."""
    return json.dumps(diagnostics_to_dict(diagnostics, source), indent=indent)


def save_diagnostics(path: str | pathlib.Path,
                     diagnostics: Iterable[Diagnostic],
                     source: str = "") -> None:
    """Write the bundle to ``path`` as JSON."""
    pathlib.Path(path).write_text(
        diagnostics_to_json(diagnostics, source) + "\n")
