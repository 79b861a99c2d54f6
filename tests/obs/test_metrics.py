"""Instrument behaviour: counters, gauges, histogram percentiles, and the
telemetry-off mode."""

import pytest

import repro.obs as obs
from repro.obs.metrics import (NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM,
                               percentile)
from repro.obs.registry import TelemetryRegistry
from repro.obs.tracer import NULL_SPAN


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_median_of_odd_count(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_median_interpolates_even_count(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        ordered = [float(v) for v in range(1, 101)]
        assert percentile(ordered, 0) == 1.0
        assert percentile(ordered, 100) == 100.0

    def test_uniform_1_to_100(self):
        ordered = [float(v) for v in range(1, 101)]
        assert percentile(ordered, 50) == pytest.approx(50.5)
        assert percentile(ordered, 95) == pytest.approx(95.05)
        assert percentile(ordered, 99) == pytest.approx(99.01)

    def test_result_stays_inside_bracket(self):
        # Interpolation must never escape the two neighbouring samples.
        ordered = [0.1, 0.1, 0.1, 1e9]
        for p in (25, 50, 75, 90, 99):
            value = percentile(ordered, p)
            assert ordered[0] <= value <= ordered[-1]


class TestHistogram:
    def test_observe_and_summary(self):
        registry = TelemetryRegistry()
        h = registry.histogram("lat", unit="us")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.p50 == pytest.approx(50.5)
        assert h.p95 == pytest.approx(95.05)
        assert h.p99 == pytest.approx(99.01)

    def test_snapshot_fields(self):
        registry = TelemetryRegistry()
        h = registry.histogram("lat", unit="us", service="cam")
        h.observe(10.0)
        h.observe(30.0)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == 40.0
        assert snap["min"] == 10.0
        assert snap["max"] == 30.0
        assert snap["p50"] == 20.0
        assert snap["unit"] == "us"

    def test_empty_snapshot(self):
        h = TelemetryRegistry().histogram("lat")
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0


class TestInstrumentsAndLabels:
    def test_counter_accumulates(self):
        registry = TelemetryRegistry()
        c = registry.counter("reqs", service="cam")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set_and_add(self):
        g = TelemetryRegistry().gauge("tenants")
        g.set(3)
        g.add(-1)
        assert g.value == 2

    def test_same_labels_same_instrument(self):
        registry = TelemetryRegistry()
        a = registry.counter("reqs", service="cam", ns="vd1")
        b = registry.counter("reqs", ns="vd1", service="cam")  # order-free
        assert a is b

    def test_different_labels_different_instruments(self):
        registry = TelemetryRegistry()
        a = registry.counter("reqs", service="cam")
        b = registry.counter("reqs", service="gps")
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_label_values_stringified(self):
        registry = TelemetryRegistry()
        c = registry.counter("reqs", code=7)
        assert c.labels == {"code": "7"}

    def test_equal_values_that_print_differently_stay_apart(self):
        # 1 == True == 1.0, but each prints as its own label value.
        registry = TelemetryRegistry()
        values = [1, True, 1.0, "1", 1, True, 1.0]
        for value in values:
            registry.counter("reqs", code=value).inc()
        assert {c.labels["code"]: c.value for c in registry.instruments()} \
            == {"1": 3, "True": 2, "1.0": 2}

    def test_unhashable_label_values_work(self):
        registry = TelemetryRegistry()
        a = registry.counter("reqs", ids=[1, 2], service="cam")
        b = registry.counter("reqs", service="cam", ids=[1, 2])
        assert a is b
        assert a.labels == {"ids": "[1, 2]", "service": "cam"}

    def test_reset_drops_every_instrument(self):
        registry = TelemetryRegistry()
        registry.counter("reqs", service="cam").inc()
        registry.reset()
        assert registry.counter("reqs", service="cam").value == 0
        assert len(registry.snapshot()) == 1

    def test_snapshot_sorted_and_complete(self):
        registry = TelemetryRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.gauge("c").set(1.5)
        names = [row["name"] for row in registry.snapshot()]
        assert names == ["a", "b", "c"]


class TestDisabledMode:
    def test_disabled_by_default_after_reset(self):
        assert not obs.on
        assert obs.counter("x") is NULL_COUNTER
        assert obs.gauge("x") is NULL_GAUGE
        assert obs.histogram("x") is NULL_HISTOGRAM
        assert obs.span("x") is NULL_SPAN
        assert obs.event("x") is None

    def test_disabled_records_nothing(self):
        obs.counter("reqs", service="cam").inc(10)
        obs.histogram("lat").observe(5.0)
        obs.event("boom")
        with obs.span("work"):
            pass
        registry = obs.get_registry()
        assert registry.snapshot() == []
        assert registry.tracer.records == []

    def test_null_instruments_are_inert(self):
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(9)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_HISTOGRAM.count == 0
        assert NULL_SPAN.end() == 0

    def test_enable_routes_to_real_registry(self):
        obs.enable()
        obs.counter("reqs").inc()
        assert obs.on
        assert obs.get_registry().counter("reqs").value == 1

    def test_disable_keeps_recorded_state(self):
        obs.enable()
        obs.counter("reqs").inc()
        obs.disable()
        obs.counter("reqs").inc(100)  # dropped
        assert obs.get_registry().counter("reqs").value == 1

    def test_auto_enable_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        assert obs.auto_enable() is None
        assert not obs.on
        path = str(tmp_path / "t.jsonl")
        monkeypatch.setenv(obs.TRACE_ENV, path)
        assert obs.auto_enable() == path
        assert obs.on
