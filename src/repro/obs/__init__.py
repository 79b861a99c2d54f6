"""Telemetry for the onboard stack: metrics, spans, exporters.

One process-wide registry serves every instrumented module.  Telemetry is
**off by default**: the module-level helpers route to a shared
:class:`~repro.obs.registry.NullRegistry`, so an instrumented call site
(``obs.counter("binder.transactions", service=...).inc()``) costs a
single method call and no allocation until someone calls :func:`enable`.

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
from typing import Optional, Union

from repro.obs.export import (
    parse_jsonl,
    render_report as _render_report,
    trace_records,
    validate_records,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, percentile
from repro.obs.registry import NULL_REGISTRY, NullRegistry, TelemetryRegistry
from repro.obs.tracer import Span, Tracer

#: Environment variable that switches tracing on for the examples/tools.
TRACE_ENV = "ANDRONE_TRACE"

#: The real registry (always exists, so post-run export works even after
#: disable()) and the active routing target for the helpers below.
_registry = TelemetryRegistry()
_active: Union[TelemetryRegistry, NullRegistry] = NULL_REGISTRY


def get_registry() -> TelemetryRegistry:
    """The process-wide real registry (whether or not it is active)."""
    return _registry


def enabled() -> bool:
    return _active is _registry


def enable(clock_source=None) -> TelemetryRegistry:
    """Switch telemetry on; ``clock_source`` is a Simulator or callable."""
    global _active
    if clock_source is not None:
        _registry.bind_clock(clock_source)
    _active = _registry
    return _registry


def disable() -> None:
    """Route the helpers back to the null registry (state is kept)."""
    global _active
    _active = NULL_REGISTRY


def reset() -> None:
    """Disable and drop all recorded state (test isolation)."""
    global _registry, _active
    _registry = TelemetryRegistry()
    _active = NULL_REGISTRY


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


def active() -> Union[TelemetryRegistry, NullRegistry]:
    """The registry the helpers currently route to.

    Its *identity* is the cache-invalidation token hot paths use: it
    changes on every :func:`enable`/:func:`disable`/:func:`reset`, so an
    instrument memoized against one identity is never reused across a
    registry swap (see :class:`InstrumentCache`).
    """
    return _active


class InstrumentCache:
    """Per-call-site memo for instrument lookups (hot-path interning).

    The module helpers re-derive the sorted, stringified label key on
    every call; a call site firing thousands of times with the same
    labels can memoize the returned instrument under a small hashable
    key instead::

        counter = self._tx_counters.get(node)
        if counter is None:
            counter = self._tx_counters.put(node, obs.counter(
                "binder.transactions", service=..., ns=..., container=...))
        counter.inc()

    The memo is keyed to the active registry's identity, so
    ``enable()``/``disable()``/``reset()`` invalidate it wholesale and a
    cached instrument can never leak counts into the wrong registry.
    Instances belong on the objects that own the call site (never at
    module/class level, where every run in the process would share
    it — the fork-safety lint rule applies to this cache like any other
    mutable state).
    """

    __slots__ = ("_registry", "_memo")

    def __init__(self) -> None:
        self._registry: object = None
        self._memo: dict = {}

    def get(self, key):
        """The memoized instrument, or None after a registry swap/miss."""
        if _active is not self._registry:
            self._registry = _active
            self._memo = {}
            return None
        return self._memo.get(key)

    def put(self, key, instrument):
        self._memo[key] = instrument
        return instrument


# -- instrument/trace helpers (the API instrumented modules use) -------------
def counter(name: str, /, **labels: object):
    return _active.counter(name, **labels)


def gauge(name: str, /, **labels: object):
    return _active.gauge(name, **labels)


def histogram(name: str, /, unit: str = "", **labels: object):
    return _active.histogram(name, unit=unit, **labels)


def event(name: str, /, **attrs: object):
    return _active.event(name, **attrs)


def span(name: str, /, **attrs: object):
    return _active.span(name, **attrs)


# -- exporters ----------------------------------------------------------------
def export_jsonl(target, include_snapshot: bool = True) -> int:
    """Write the registry's trace + snapshot to ``target`` (path/file)."""
    return write_jsonl(_registry, target, include_snapshot=include_snapshot)


def render_report() -> str:
    """Human-readable summary of everything recorded so far."""
    return _render_report(_registry)


__all__ = [
    "Counter", "Gauge", "Histogram", "InstrumentCache", "Span", "Tracer",
    "TelemetryRegistry", "NullRegistry", "NULL_REGISTRY",
    "TRACE_ENV", "active", "auto_enable", "clear_trace_context", "counter",
    "disable", "enable", "enabled", "event", "export_jsonl", "gauge",
    "get_registry", "histogram", "parse_jsonl", "percentile",
    "render_report", "reset", "set_trace_context", "span", "trace_records",
    "validate_records", "write_jsonl",
]
