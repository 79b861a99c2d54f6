"""The HAL bridge's fault contract, per sensor.

A transient failure is retried up to ``HalSensors.RETRY.max_attempts``
times; a read that still fails returns the last good sample of that
sensor and counts a hold.  The service fault hook fires before the
device is sampled, so a failed attempt draws nothing from the device's
noise stream: the read that finally succeeds returns exactly what a
fault-free twin node returns at the same point.
"""

import pytest

import repro.obs as obs
from repro.binder.driver import TransientBinderError
from repro.core.drone_node import DroneNode
from tests.util import HOME

SEED = 11


def _node() -> DroneNode:
    return DroneNode(seed=SEED, home=HOME, sitl_rate_hz=50)


def _counter(name: str, **labels) -> int:
    return sum(i.value for i in obs.get_registry().instruments()
               if i.name == name and i.labels == {k: str(v) for k, v in labels.items()})


def _fail_sensor(node: DroneNode, sensor: str, times: int):
    """Fail the next ``times`` SensorService reads of ``sensor``."""
    service = node.device_env.system_server.get("SensorService")
    left = [times]

    def hook(txn):
        if txn.data.get("sensor") == sensor and left[0] > 0:
            left[0] -= 1
            return f"{sensor}: injected"
        return None

    service.fault_hook = hook
    return left


READERS = {
    "imu": lambda hal: hal.read_imu(),
    "barometer": lambda hal: hal.read_baro_alt(),
    "magnetometer": lambda hal: hal.read_heading(),
    "gps": lambda hal: hal.read_gps(),
}


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


@pytest.fixture
def twins():
    """A node under test and a fault-free twin with its two baro reads."""
    node, twin = _node(), _node()
    twin_hal = twin.sitl.autopilot.sensors
    expected = [twin_hal.read_baro_alt(), twin_hal.read_baro_alt()]
    assert expected[0] != expected[1]
    return node, node.sitl.autopilot.sensors, expected


class TestRetryThenFresh:
    def test_two_transient_failures_retry_to_a_fresh_value(self, telemetry,
                                                           twins):
        node, hal, expected = twins
        assert hal.read_baro_alt() == expected[0]
        left = _fail_sensor(node, "barometer", 2)
        assert hal.read_baro_alt() == expected[1]
        assert left == [0]
        assert _counter("fault.retries", call="hal.barometer") == 2
        assert _counter("fault.retries_exhausted", call="hal.barometer") == 0
        assert _counter("fault.sensor_holds", sensor="barometer") == 0
        assert hal.held_samples == 0

    def test_binder_faults_retry_the_same_way(self, telemetry):
        node, twin = _node(), _node()
        expected = twin.sitl.autopilot.sensors.read_imu()
        left = [2]

        def hook(proc, target, code):
            if proc.container == "flight" and code == "read" and left[0] > 0:
                left[0] -= 1
                return TransientBinderError("injected")
            return None

        node.driver.fault_hook = hook
        assert node.sitl.autopilot.sensors.read_imu() == expected
        assert left == [0]
        assert _counter("fault.retries", call="hal.imu") == 2


class TestHoldLastSample:
    def test_three_failures_hold_the_last_sample(self, telemetry, twins):
        node, hal, expected = twins
        assert hal.read_baro_alt() == expected[0]
        _fail_sensor(node, "barometer", 3)
        assert hal.read_baro_alt() == expected[0]
        assert _counter("fault.retries", call="hal.barometer") == 2
        assert _counter("fault.retries_exhausted", call="hal.barometer") == 1
        assert _counter("fault.sensor_holds", sensor="barometer") == 1
        assert hal.held_samples == 1
        # The failed attempts drew no noise: the next read is the twin's
        # second sample.
        assert hal.read_baro_alt() == expected[1]

    def test_nothing_held_is_an_error(self):
        node = _node()
        _fail_sensor(node, "barometer", 3)
        with pytest.raises(RuntimeError, match="no sample held"):
            node.sitl.autopilot.sensors.read_baro_alt()


class TestSensorsAreIndependent:
    def test_a_failing_sensor_never_holds_another(self, telemetry):
        node, twin = _node(), _node()
        hal, twin_hal = node.sitl.autopilot.sensors, twin.sitl.autopilot.sensors
        first_baro = hal.read_baro_alt()
        assert first_baro == twin_hal.read_baro_alt()
        _fail_sensor(node, "barometer", 10 ** 6)
        for _ in range(3):
            for sensor in ("imu", "magnetometer", "gps"):
                assert READERS[sensor](hal) == READERS[sensor](twin_hal)
            assert hal.read_baro_alt() == first_baro
        assert hal.held_samples == 3
        for sensor in READERS:
            holds = _counter("fault.sensor_holds", sensor=sensor)
            assert holds == (3 if sensor == "barometer" else 0), sensor
            retries = _counter("fault.retries", call=f"hal.{sensor}")
            assert retries == (6 if sensor == "barometer" else 0), sensor
