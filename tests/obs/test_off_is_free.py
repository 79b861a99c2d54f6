"""Telemetry that is off costs the HAL read path no call into repro.obs.

Every flight-container sensor read crosses binder: the guarded
``BinderProcess.transact``, then ``SystemService.handle_txn``.  Both
read ``obs.on`` and skip their instruments, so with telemetry off a
fault-free read makes no call to a ``repro.obs`` helper and none to a
no-op instrument.
"""

import pytest

import repro.obs as obs
from repro.core.drone_node import DroneNode
from repro.obs.metrics import NullCounter, NullGauge, NullHistogram
from repro.obs.tracer import NullSpan
from repro.security.fabric import SecurityFabric
from tests.util import HOME

READS = 200
HELPERS = ("counter", "gauge", "histogram", "event", "span")
NULL_METHODS = ((NullCounter, "inc"), (NullGauge, "set"), (NullGauge, "add"),
                (NullHistogram, "observe"), (NullSpan, "end"),
                (NullSpan, "__enter__"))


@pytest.fixture
def calls(monkeypatch):
    """Count every call to the obs helpers and the no-op instruments."""
    seen = []

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            seen.append(label)
            return fn(*args, **kwargs)
        return wrapper

    for name in HELPERS:
        monkeypatch.setattr(obs, name, counting(name, getattr(obs, name)))
    for cls, name in NULL_METHODS:
        monkeypatch.setattr(cls, name, counting(
            f"{cls.__name__}.{name}", getattr(cls, name)))
    return seen


def test_hal_imu_reads_make_no_obs_call_with_telemetry_off(calls):
    obs.reset()
    node = DroneNode(seed=3, home=HOME, sitl_rate_hz=50)
    SecurityFabric(node.sim, seed=3).protect_node(node)
    hal = node.sitl.autopilot.sensors
    hal.read_imu()          # first read resolves the service handle
    assert node.driver.rate_guard is not None
    del calls[:]
    for _ in range(READS):
        hal.read_imu()
    assert not obs.on
    assert calls == []


def test_the_patched_helpers_see_the_reads_once_telemetry_is_on(calls):
    """The counting patch is not vacuous: with telemetry on the same
    reads reach the helpers and land in the registry."""
    obs.reset()
    node = DroneNode(seed=3, home=HOME, sitl_rate_hz=50)
    hal = node.sitl.autopilot.sensors
    hal.read_imu()
    obs.enable()
    try:
        del calls[:]
        for _ in range(READS):
            hal.read_imu()
        assert calls.count("counter") >= READS
        flight = sum(i.value for i in obs.get_registry().instruments()
                     if i.name == "binder.transactions"
                     and i.labels["container"] == "flight")
        assert flight == READS
    finally:
        obs.reset()
