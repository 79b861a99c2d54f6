"""Structured spans and events on the discrete-event clock.

Every record carries a virtual-time timestamp (integer microseconds from
the simulator), so two runs with the same seed produce byte-identical
event streams.  Spans are recorded as a *pair* of records — ``span_begin``
at open and ``span_end`` at close — which keeps the trace buffer sorted by
timestamp even for spans that stay open across many sim events (a tenant's
whole waypoint, a container's lifetime).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List


class TraceRecord(dict):
    """One trace line; a plain dict so JSON export is free."""

    __slots__ = ()


class Span:
    """An open span.  ``end()`` (or exiting the context) closes it.

    The attrs dict starts out *shared* with the ``span_begin`` record
    (lazy payload: most spans are never annotated, so most spans never
    copy).  The first mutation — ``annotate()`` or ``end(**attrs)`` —
    copies it, so the begin record always keeps its as-of-open view.
    """

    __slots__ = ("_tracer", "span_id", "name", "attrs", "t_start", "closed",
                 "_shared")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 t_start: int, attrs: Dict[str, Any], shared: bool = False):
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.attrs = attrs
        self.t_start = t_start
        self.closed = False
        self._shared = shared

    def _own_attrs(self) -> Dict[str, Any]:
        if self._shared:
            self.attrs = dict(self.attrs)
            self._shared = False
        return self.attrs

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes that will ship with the ``span_end`` record."""
        if self.closed:
            # The end record already references attrs; mutating it now
            # would rewrite recorded history.
            return
        self._own_attrs().update(attrs)

    def end(self, **attrs: Any) -> int:
        """Close the span; returns its duration in sim microseconds."""
        if self.closed:
            return 0
        self.closed = True
        if attrs:
            self._own_attrs().update(attrs)
        return self._tracer._end_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<Span #{self.span_id} {self.name!r} {state}>"


class Tracer:
    """Buffers timestamped events and spans for one registry."""

    def __init__(self, clock: Callable[[], int]):
        self._clock = clock
        self._span_ids = itertools.count(1)
        self.records: List[TraceRecord] = []
        #: (name, duration_us) of every closed span, for the report.
        self.closed_spans: List[tuple] = []
        #: run-level context stamped on every record while set (e.g. the
        #: schedule id during exploration).  Empty = no ``ctx`` field, so
        #: default traces are byte-identical to pre-context ones.
        self._context: Dict[str, Any] = {}

    def set_context(self, **attrs: Any) -> None:
        """Replace the run-level context carried by subsequent records.

        Calling with no attributes clears it.  Exploration runs set
        ``schedule=<id>`` here so every trace line names the same-tick
        schedule it was recorded under (see docs/EXPLORATION.md).
        """
        self._context = dict(attrs)

    def event(self, name: str, /, **attrs: Any) -> TraceRecord:
        record = TraceRecord(t=self._clock(), kind="event", name=name,
                             attrs=attrs)
        if self._context:
            record["ctx"] = self._context
        self.records.append(record)
        return record

    def span(self, name: str, /, **attrs: Any) -> Span:
        # The kwargs dict is fresh per call, so the span and its begin
        # record can share it until the span is first annotated (the span
        # copies on write) — one allocation instead of three.
        span = Span(self, next(self._span_ids), name, self._clock(),
                    attrs, shared=True)
        record = TraceRecord(
            t=span.t_start, kind="span_begin", name=name, id=span.span_id,
            attrs=attrs)
        if self._context:
            record["ctx"] = self._context
        self.records.append(record)
        return span

    def _end_span(self, span: Span) -> int:
        t_end = self._clock()
        duration = t_end - span.t_start
        # span.attrs is immutable from here on (the span is closed), so
        # the end record references it without copying.
        record = TraceRecord(
            t=t_end, kind="span_end", name=span.name, id=span.span_id,
            dur_us=duration, attrs=span.attrs)
        if self._context:
            record["ctx"] = self._context
        self.records.append(record)
        self.closed_spans.append((span.name, duration))
        return duration

    def reset(self) -> None:
        self.records = []
        self.closed_spans = []
        self._span_ids = itertools.count(1)


class NullSpan:
    """Shared no-op span for disabled telemetry."""

    __slots__ = ()
    name = ""
    closed = True

    def annotate(self, **attrs: Any) -> None:
        pass

    def end(self, **attrs: Any) -> int:
        return 0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = NullSpan()
