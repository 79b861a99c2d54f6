"""Per-tick binder work of the flight container's HAL bridge.

The autopilot's sensor schedule at 50 Hz is fixed: an IMU read every
control step, the barometer every 2nd step, the compass every 5th and a
GPS fix every 10th, each one binder transaction admitted by the node's
binder rate guard.  These tests pin that schedule per tick, so batching
reads into fewer transactions, or skipping ticks, fails here and not
only as a changed digest.
"""

from collections import Counter

import pytest

from repro.binder.driver import BinderProcess
from repro.core.drone_node import DroneNode
from repro.devices.barometer import Barometer
from repro.devices.gps import GpsReceiver
from repro.devices.imu import Imu
from repro.devices.magnetometer import Magnetometer
from repro.security.fabric import SecurityFabric
from repro.security.guards import RateGuard
from tests.util import HOME

RATE_HZ = 50
TICKS = 60
#: sensor -> read every this many control steps (first step reads all).
EVERY = {"imu": 1, "barometer": 2, "magnetometer": 5, "gps": 10}


@pytest.fixture
def recorded(monkeypatch):
    """A HAL-wired node under a binder guard, run for TICKS control steps.

    Returns ``(node, reads, lookups, admits)``: ``reads`` is a list of
    ``(tick, sensor)`` for every flight-container sensor transaction
    (``tick`` is the autopilot's 1-based control step), ``lookups`` the
    codes of its other transactions (service-handle lookups), ``admits``
    counts binder-guard ``try_admit`` calls per key.
    """
    node = DroneNode(seed=3, home=HOME, sitl_rate_hz=RATE_HZ)
    SecurityFabric(node.sim, seed=3).protect_node(node)
    guard = node.driver.rate_guard
    autopilot = node.sitl.autopilot
    reads = []
    lookups = []
    admits = Counter()
    transact = BinderProcess.transact
    try_admit = RateGuard.try_admit

    def recording_transact(proc, handle, code, data=None):
        if proc.container == "flight":
            tick = autopilot.fast_loop_count
            if code == "read":
                reads.append((tick, data["sensor"]))
            elif code == "native_get_location":
                reads.append((tick, "gps"))
            else:
                lookups.append(code)
        return transact(proc, handle, code, data)

    def counting_try_admit(self, key):
        if self is guard:
            admits[key] += 1
        return try_admit(self, key)

    monkeypatch.setattr(BinderProcess, "transact", recording_transact)
    monkeypatch.setattr(RateGuard, "try_admit", counting_try_admit)
    node.boot()
    period_us = 1_000_000 // RATE_HZ
    # The first tick runs at t=0; TICKS ticks end at (TICKS-1) periods.
    node.sim.run(until=(TICKS - 1) * period_us)
    assert autopilot.fast_loop_count == TICKS
    return node, reads, lookups, admits


class TestHalPerTickWork:
    def test_each_sensor_read_on_its_own_schedule(self, recorded):
        _, reads, _, _ = recorded
        per_tick = {tick: Counter() for tick in range(1, TICKS + 1)}
        for tick, sensor in reads:
            per_tick[tick][sensor] += 1
        for tick, counts in per_tick.items():
            expected = Counter({sensor: 1 for sensor, every in EVERY.items()
                                if (tick - 1) % every == 0})
            assert counts == expected, f"tick {tick}"

    def test_totals_over_the_run(self, recorded):
        node, reads, lookups, _ = recorded
        totals = Counter(sensor for _, sensor in reads)
        assert totals == {sensor: -(-TICKS // every)
                          for sensor, every in EVERY.items()}
        # One service-handle lookup per service, on its first read.
        assert lookups == ["get", "get"]
        assert node.sitl.autopilot.sensors.calls == len(reads)

    def test_every_transaction_passes_the_binder_guard(self, recorded):
        _, reads, lookups, admits = recorded
        assert admits["flight"] == len(reads) + len(lookups)


#: device method -> calls per HAL read of its sensor.  A HAL barometer
#: read samples the pressure twice: once for the reply's ``pressure_pa``
#: and once inside ``read_altitude`` for its ``altitude_m``.
DEVICE_CALLS = {
    ("imu", Imu, "read"): 1,
    ("barometer", Barometer, "read_pressure"): 2,
    ("barometer", Barometer, "read_altitude"): 1,
    ("magnetometer", Magnetometer, "read_heading"): 1,
    ("gps", GpsReceiver, "read_fix"): 1,
}


@pytest.fixture
def device_calls(monkeypatch):
    """Per-tick device method calls of a HAL-wired node over TICKS steps.

    Returns a ``{tick: Counter((class, method))}`` map.  The wrappers go
    on the classes, as perfbench's layer hooks do, so a reader that
    bypasses a device method (or samples it once too often) shows here.
    """
    node = DroneNode(seed=3, home=HOME, sitl_rate_hz=RATE_HZ)
    autopilot = node.sitl.autopilot
    per_tick = {tick: Counter() for tick in range(1, TICKS + 1)}

    def wrap(cls, method_name):
        original = getattr(cls, method_name)

        def counted(self, *args, **kwargs):
            per_tick[autopilot.fast_loop_count][cls.__name__, method_name] += 1
            return original(self, *args, **kwargs)
        return counted

    for _, cls, method_name in DEVICE_CALLS:
        monkeypatch.setattr(cls, method_name, wrap(cls, method_name))
    node.boot()
    node.sim.run(until=(TICKS - 1) * 1_000_000 // RATE_HZ)
    assert autopilot.fast_loop_count == TICKS
    return per_tick


class TestHalDeviceWork:
    def test_each_read_samples_its_device_once_per_value(self, device_calls):
        for tick, counts in device_calls.items():
            due = {sensor for sensor, every in EVERY.items()
                   if (tick - 1) % every == 0}
            for (sensor, cls, method_name), calls in DEVICE_CALLS.items():
                key = cls.__name__, method_name
                expected = calls if sensor in due else 0
                assert counts[key] == expected, (
                    f"tick {tick}: {cls.__name__}.{method_name} called "
                    f"{counts[key]} times, expected {expected}")
