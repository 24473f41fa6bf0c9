"""In-memory span recording for the traced benchmark run.

A span is one timed call into a layer: ``(span_id, parent_id,
request_id, name, start_ns, end_ns)``.  Spans nest through a stack, are
kept in a list while the run lasts, and are written out (one JSON
object per line) only when the run ends.  A span's *self time* is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import NamedTuple

__all__ = ["Span", "SpanRecorder", "self_times", "write_spans"]


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    request_id: int
    name: str
    start_ns: int
    end_ns: int


class _Open:
    __slots__ = ("recorder", "name", "span_id", "parent_id", "start_ns")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Open":
        rec = self.recorder
        rec._next_id += 1
        self.span_id = rec._next_id
        self.parent_id = rec._stack[-1] if rec._stack else None
        rec._stack.append(self.span_id)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        rec = self.recorder
        rec._stack.pop()
        rec.spans.append(Span(self.span_id, self.parent_id, rec.request_id,
                              self.name, self.start_ns, end))
        return False


class SpanRecorder:
    """Collects spans; ``request_id`` tags every span opened meanwhile."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def add_child(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a closed span under the currently open one (for phases
        timed by someone else, such as ``translate_query``'s tracer)."""
        self._next_id += 1
        self.spans.append(Span(self._next_id, self._stack[-1],
                               self.request_id, name, start_ns, end_ns))


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_ns, span.end_ns))
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            end = min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.end_ns - span.start_ns - covered
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, in completion order."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")
