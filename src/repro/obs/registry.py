"""The telemetry registry: one home for instruments and the tracer.

A registry is bound to a clock — normally ``sim.now`` of the one
:class:`~repro.sim.simulator.Simulator` driving the process — and hands
out create-or-get instruments keyed by name + labels.  It interns
lookups by the call's own name and label items (when every label value
is a plain ``str``, ``int`` or ``None``), so a hot call site needs no
memo of its own.  While telemetry is off the module-level API in
:mod:`repro.obs` never reaches the registry.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    InstrumentKey,
    labels_key,
)
from repro.obs.tracer import Span, Tracer

#: Label value types whose equal values always stringify the same, and
#: never equal a value of another type in the set, so a lookup keyed by
#: the raw values names exactly one canonical instrument.  Other values
#: (bools, floats, enums, unhashables) take the canonical key each time.
_INTERNABLE = frozenset((str, int, type(None)))


def _zero_clock() -> int:
    return 0


class TelemetryRegistry:
    """Instruments plus a tracer, all on one (virtual) clock."""

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self._clock: Callable[[], int] = clock or _zero_clock
        #: canonical (name, sorted stringified labels) -> instrument
        self._instruments: Dict[InstrumentKey, object] = {}
        #: (name, *label items in call order) -> instrument
        self._interned: Dict[tuple, object] = {}
        self.tracer = Tracer(self._now)

    # -- clock -----------------------------------------------------------------
    def bind_clock(self, source: Union[Callable[[], int], object]) -> None:
        """Bind the timestamp source: a callable, or anything with a
        ``now`` property (a :class:`~repro.sim.simulator.Simulator`)."""
        if callable(source):
            self._clock = source
        else:
            self._clock = lambda: source.now

    def _now(self) -> int:
        return int(self._clock())

    @property
    def now(self) -> int:
        return self._now()

    # -- instruments ------------------------------------------------------------
    def intern(self, cls, name: str, labels: Dict[str, object], **kw):
        """The ``cls`` instrument for ``name`` + ``labels``, created on
        first use (``kw`` goes to its constructor).  The module helpers
        in :mod:`repro.obs` call this with their own labels dict."""
        # The canonical key sorts and stringifies the labels; build it
        # only when this exact call shape has not been seen before.
        if _INTERNABLE.issuperset(map(type, labels.values())):
            fast = (name, *labels.items())
            instrument = self._interned.get(fast)
            if instrument is None:
                instrument = self._interned[fast] = self._canonical(
                    cls, name, labels, kw)
            return instrument
        return self._canonical(cls, name, labels, kw)

    def _canonical(self, cls, name: str, labels: Dict[str, object],
                   kw: Dict[str, object]):
        key = labels_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, dict(key[1]), **kw)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, /, **labels: object) -> Counter:
        return self.intern(Counter, name, labels)

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        return self.intern(Gauge, name, labels)

    def histogram(self, name: str, /, unit: str = "", **labels: object) -> Histogram:
        return self.intern(Histogram, name, labels, unit=unit)

    def instruments(self) -> Iterator[object]:
        """All instruments, sorted by (name, labels) for stable exports."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    # -- tracing ---------------------------------------------------------------
    def event(self, name: str, /, **attrs: object):
        return self.tracer.event(name, **attrs)

    def span(self, name: str, /, **attrs: object) -> Span:
        return self.tracer.span(name, **attrs)

    # -- lifecycle ---------------------------------------------------------------
    def reset(self) -> None:
        """Drop all instruments and buffered trace records (tests)."""
        self._instruments = {}
        self._interned = {}
        self.tracer.reset()

    def snapshot(self) -> List[dict]:
        """Point-in-time state of every instrument (plain dicts)."""
        rows = []
        for instrument in self.instruments():
            row = {"kind": instrument.kind, "name": instrument.name,
                   "labels": instrument.labels}
            row.update(instrument.snapshot())
            rows.append(row)
        return rows
