"""Metric instruments: counters, gauges, and histograms.

Instruments are created through a :class:`~repro.obs.registry.
TelemetryRegistry` and identified by a name plus a (sorted) label set, the
way Prometheus-style systems key time series.  A histogram keeps its raw
samples — benchmark runs are short enough that exact percentiles beat
bucketed approximations, and the exporter only ships the summary.

Every instrument has a ``Null`` twin with the same interface and no
state; the module-level API in :mod:`repro.obs` hands those out while
telemetry is off, so cold call sites need no guard of their own (hot
ones test ``obs.on`` and skip the call altogether).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

#: An instrument's identity: (name, ((label, value), ...)).
InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def labels_key(name: str, labels: Dict[str, object]) -> InstrumentKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def percentile(ordered: List[float], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = math.ceil(k)
    if lo == hi:
        return ordered[int(k)]
    value = ordered[lo] * (hi - k) + ordered[hi] * (k - lo)
    # Interpolation can overshoot its bracket by one ulp; clamp.
    return min(max(value, ordered[lo]), ordered[hi])


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name} {self.labels} = {self.value}>"


class Gauge:
    """A value that goes up and down (queue depth, tenants, joules left)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> dict:
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name} {self.labels} = {self.value}>"


class Histogram:
    """A distribution with exact p50/p95/p99.

    ``unit`` is documentation shipped with every export (``us`` for sim
    microseconds, ``ns-wall`` for wall-clock nanoseconds, ...).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "unit", "samples", "total")

    def __init__(self, name: str, labels: Dict[str, str], unit: str = ""):
        self.name = name
        self.labels = labels
        self.unit = unit
        self.samples: List[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.total += value

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        return percentile(sorted(self.samples), p)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def snapshot(self) -> dict:
        ordered = sorted(self.samples)
        return {
            "unit": self.unit,
            "count": len(ordered),
            "sum": self.total,
            "min": ordered[0] if ordered else 0.0,
            "p50": percentile(ordered, 50),
            "p95": percentile(ordered, 95),
            "p99": percentile(ordered, 99),
            "max": ordered[-1] if ordered else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} {self.labels} n={self.count}>"


class NullCounter:
    """No-op counter handed out while telemetry is disabled."""

    kind = "counter"
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def snapshot(self) -> dict:
        return {"value": 0}


class NullGauge:
    kind = "gauge"
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"value": 0.0}


class NullHistogram:
    kind = "histogram"
    __slots__ = ()
    count = 0
    mean = 0.0
    p50 = p95 = p99 = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"unit": "", "count": 0, "sum": 0.0, "min": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}


#: Shared no-op instruments: one instance each, label-blind.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()
