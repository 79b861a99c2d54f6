"""Telemetry for the onboard stack: metrics, spans, exporters.

One process-wide registry serves every instrumented module, and one
module flag, :data:`on`, switches it.  Telemetry is **off by default**:
the module-level helpers then return the shared no-op instruments
(``NULL_COUNTER``, ``NULL_SPAN``, ...) without touching the registry.
Hot call sites read the flag themselves, so telemetry that is off costs
them one module attribute load and no call::

    if obs.on:
        obs.counter("binder.transactions", service=...).inc()

Cold call sites stay unguarded (``obs.event("vdc.created", ...)``) and
get the no-op instrument.  The registry interns instruments itself (see
:meth:`~repro.obs.registry.TelemetryRegistry.intern`), so no call site
keeps its own memo.

Typical use::

    import repro.obs as obs

    obs.enable(system.sim)          # timestamps from the sim clock
    ...  # run the workload
    obs.export_jsonl("trace.jsonl")
    print(obs.render_report())

or set ``ANDRONE_TRACE=/path/to/trace.jsonl`` in the environment —
:class:`~repro.core.androne.AnDroneSystem` calls :func:`auto_enable`
at construction and the examples export on exit (see "Tracing a flight"
in the README).  The metric/span vocabulary is documented in
``docs/METRICS.md``.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.export import (
    parse_jsonl,
    render_report as _render_report,
    trace_records,
    validate_records,
    write_jsonl,
)
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    percentile,
)
from repro.obs.registry import TelemetryRegistry
from repro.obs.tracer import NULL_SPAN, Span, Tracer

#: Environment variable that switches tracing on for the examples/tools.
TRACE_ENV = "ANDRONE_TRACE"

#: The telemetry switch.  Read it as ``obs.on`` (never ``from repro.obs
#: import on``, which copies the value once); set it only through
#: :func:`enable`, :func:`disable` and :func:`reset`.
on = False

#: The real registry; it always exists, so post-run export works even
#: after :func:`disable`.
_registry = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    """The process-wide registry (whether or not telemetry is on)."""
    return _registry


def enable(clock_source=None) -> TelemetryRegistry:
    """Switch telemetry on; ``clock_source`` is a Simulator or callable."""
    global on
    if clock_source is not None:
        _registry.bind_clock(clock_source)
    on = True
    return _registry


def disable() -> None:
    """Switch telemetry off; recorded state is kept for export."""
    global on
    on = False


def reset() -> None:
    """Switch telemetry off and drop all recorded state (test isolation)."""
    global _registry, on
    _registry = TelemetryRegistry()
    on = False


def set_trace_context(**attrs) -> None:
    """Stamp run-level context (e.g. ``schedule="storm:random:3"``) onto
    every subsequent trace record; call with no attrs to clear.  Applies
    to the real registry whether or not telemetry is currently enabled,
    so explorers can tag a run before :func:`enable`."""
    _registry.tracer.set_context(**attrs)


def clear_trace_context() -> None:
    """Remove the run-level trace context (records revert to ctx-free)."""
    _registry.tracer.set_context()


def auto_enable(clock_source=None) -> Optional[str]:
    """Enable telemetry iff ``ANDRONE_TRACE`` is set in the environment.

    Returns the requested trace path (the env value) when enabled, else
    None.  Idempotent: a second system in the same process re-binds the
    clock to its own simulator.
    """
    path = os.environ.get(TRACE_ENV)
    if path:
        enable(clock_source)
        return path
    return None


# -- instrument/trace helpers (the API instrumented modules use) -------------
def counter(name: str, /, **labels: object):
    if on:
        return _registry.intern(Counter, name, labels)
    return NULL_COUNTER


def gauge(name: str, /, **labels: object):
    if on:
        return _registry.intern(Gauge, name, labels)
    return NULL_GAUGE


def histogram(name: str, /, unit: str = "", **labels: object):
    if on:
        return _registry.intern(Histogram, name, labels, unit=unit)
    return NULL_HISTOGRAM


def event(name: str, /, **attrs: object):
    if on:
        return _registry.event(name, **attrs)
    return None


def span(name: str, /, **attrs: object):
    if on:
        return _registry.span(name, **attrs)
    return NULL_SPAN


# -- exporters ----------------------------------------------------------------
def export_jsonl(target, include_snapshot: bool = True) -> int:
    """Write the registry's trace + snapshot to ``target`` (path/file)."""
    return write_jsonl(_registry, target, include_snapshot=include_snapshot)


def render_report() -> str:
    """Human-readable summary of everything recorded so far."""
    return _render_report(_registry)


__all__ = [
    "Counter", "Gauge", "Histogram", "Span", "Tracer", "TelemetryRegistry",
    "TRACE_ENV", "auto_enable", "clear_trace_context", "counter",
    "disable", "enable", "event", "export_jsonl", "gauge",
    "get_registry", "histogram", "parse_jsonl", "percentile",
    "render_report", "reset", "set_trace_context", "span", "trace_records",
    "validate_records", "write_jsonl",
]
