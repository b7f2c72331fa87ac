"""In-memory spans for the traced benchmark run.

A span records (name, start, end, parent span, op id) plus optional work
counts.  Spans stay in a list while the run measures and are written once,
after it ends, so tracing does no I/O inside the timed region.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = None


class Tracer:
    """Collects spans; `span(name)` is a context manager whose parent is
    the innermost span still open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = None

    def span(self, name: str, **counts) -> "_SpanContext":
        return _SpanContext(self, name, counts or None)

    def count(self, **counts) -> None:
        """Add work counts to the innermost open span."""
        s = self.spans[self._open[-1]]
        if s.counts is None:
            s.counts = {}
        for key, value in counts.items():
            s.counts[key] = s.counts.get(key, 0) + value

    def write(self, path: str, header: dict) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: t for t, n in enumerate(names)}
        doc = {
            "header": header,
            "names": names,
            "fields": ["name", "start", "end", "parent", "op", "counts"],
            "spans": [[index[s.name], s.start, s.end, s.parent, s.op, s.counts]
                      for s in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class _SpanContext:
    __slots__ = ("tracer", "name", "counts", "sid")

    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.sid = len(tr.spans)
        span = Span(self.name, 0.0, parent, tr.op)
        span.counts = self.counts
        tr.spans.append(span)
        tr._open.append(self.sid)
        span.start = perf_counter()
        return span

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr.spans[self.sid].end = end
        tr._open.pop()
        return False


def nesting_errors(spans: list[Span]) -> list[str]:
    """Every span must lie inside its parent's interval and share its op."""
    errors = []
    for sid, s in enumerate(spans):
        if s.end is None or s.end < s.start:
            errors.append("span %d (%s) is not closed" % (sid, s.name))
            continue
        if s.parent is None:
            continue
        p = spans[s.parent]
        if p.op != s.op:
            errors.append("span %d (%s) has op %r, parent op %r"
                          % (sid, s.name, s.op, p.op))
        if s.start < p.start or s.end > p.end:
            errors.append("span %d (%s) leaves its parent %d (%s)"
                          % (sid, s.name, s.parent, p.name))
    return errors


def layer_totals(spans: list[Span], ops) -> tuple[dict, dict, dict]:
    """Per span name over the given op ids: total seconds, call count, and
    summed work counts (keyed by count name)."""
    ops = set(ops)
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for s in spans:
        if s.op not in ops:
            continue
        seconds[s.name] = seconds.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in (s.counts or {}).items():
            work[key] = work.get(key, 0) + value
    return seconds, calls, work


def coverage(spans: list[Span], root: str) -> float:
    """Share of the root spans' time covered by their direct children."""
    roots = {sid for sid, s in enumerate(spans) if s.name == root}
    root_s = sum(spans[sid].end - spans[sid].start for sid in roots)
    child_s = sum(s.end - s.start for s in spans if s.parent in roots)
    return child_s / root_s if root_s > 0 else 0.0
