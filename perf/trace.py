"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, name, trace, parent, start, end)`` on the
``time.perf_counter`` clock.  Spans nest through a context variable, so
each asyncio task keeps its own parent chain; a span opened with no
parent starts a new trace and every descendant carries that trace id.
Nothing leaves memory until the benchmark ends and passes the span
records to :func:`write`.

A span's *self time* is its duration minus the part of its interval
that its children cover.  Children that overlap each other (concurrent
requests under one parent) are counted once, so self time never goes
below zero and never exceeds the span's own duration.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "NULL_TRACER", "write"]


@dataclass
class Span:
    id: int
    name: str
    trace: int
    parent: int | None
    start: float
    end: float | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one
    attribute test per span."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perf_span", default=None)

    @contextlib.contextmanager
    def span(self, name, start=None):
        """Time the ``with`` body as span ``name``.

        ``start`` backdates the span (an open-loop request is timed from
        its due time, not from when the generator got round to it).
        """
        if not self.enabled:
            yield None
            return
        parent = self._current.get()
        span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            trace=parent.trace if parent is not None else span_id,
            parent=parent.id if parent is not None else None,
            start=time.perf_counter() if start is None else start,
        )
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(span)

    def self_times(self):
        """``{span id: self seconds}`` for every finished span."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.id] = span.duration - covered
        return out

    def self_seconds(self, name):
        """Self time of each span called ``name``, in recording order."""
        own = self.self_times()
        return [own[span.id] for span in self.spans if span.name == name]

    def durations(self, name):
        return [span.duration for span in self.spans if span.name == name]

    def records(self, **tags):
        """Every finished span as a JSON-ready dict, self time included;
        ``tags`` are added to each (spans from several processes stay
        apart by a tag, since their ids restart at 1)."""
        own = self.self_times()
        return [
            {
                **tags,
                "id": span.id,
                "name": span.name,
                "trace": span.trace,
                "parent": span.parent,
                "start": span.start,
                "end": span.end,
                "self": own[span.id],
            }
            for span in self.spans
        ]


def write(path, spans, **extra):
    """Write span records (see :meth:`Tracer.records`) plus ``extra`` as
    one JSON object."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump({**extra, "spans": spans}, handle)
    os.replace(tmp, path)


#: Shared disabled tracer for untraced work.
NULL_TRACER = Tracer(enabled=False)
