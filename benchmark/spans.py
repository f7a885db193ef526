"""In-memory spans for the benchmark's traced run.

A span records one call: a name, start and end (perf_counter
nanoseconds), the span that caused it and the message it belongs to.
Spans stay in memory while the run measures and are written out as JSON
lines when it ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    msg_id: int

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    @contextmanager
    def span(self, name: str, msg_id: int, parent: int | None = None):
        """Span around a block; yields the id its child spans name as parent."""
        span_id = self._new_id()
        start = perf_counter_ns()
        try:
            yield span_id
        finally:
            self.spans.append(Span(span_id, name, start, perf_counter_ns(), parent, msg_id))

    def call(self, name: str, parent: int | None, msg_id: int, fn, *args):
        """fn(*args) inside a span of its own."""
        span_id = self._new_id()
        start = perf_counter_ns()
        result = fn(*args)
        self.spans.append(Span(span_id, name, start, perf_counter_ns(), parent, msg_id))
        return result

    def self_ns(self) -> dict[int, int]:
        """Each span's duration minus the part its child spans cover."""
        own = {s.span_id: s.ns for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ns
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")
