"""SensorService: motion and environmental sensors (IMU, barometer,
magnetometer), multiplexed from the device container."""

from __future__ import annotations


from repro.android.permissions import Permission
from repro.android.services.base import SystemService
from repro.binder.objects import Transaction


def _read_imu(device, handle) -> dict:
    return {"status": "ok", "reading": device.read(handle).to_dict()}


def _read_barometer(device, handle) -> dict:
    # Two samples: the altitude is read (with its own noise) apart from
    # the pressure, as the device's two interfaces are.
    return {
        "status": "ok",
        "pressure_pa": device.read_pressure(handle),
        "altitude_m": device.read_altitude(handle),
    }


def _read_magnetometer(device, handle) -> dict:
    return {"status": "ok", "heading_rad": device.read_heading(handle)}


#: sensor -> reply builder for ``op_read``; the device methods are looked
#: up on each call, so a method patched on the device class still runs.
READERS = {
    "imu": _read_imu,
    "barometer": _read_barometer,
    "magnetometer": _read_magnetometer,
}


class SensorService(SystemService):
    name = "SensorService"
    androne_device = "sensors"
    required_permission = Permission.BODY_SENSORS

    SENSORS = tuple(READERS)

    def __init__(self, environment):
        super().__init__(environment)
        self._devices = {}
        self._handles = {}
        #: sensor -> (reply builder, device, open handle), filled by start().
        self._readers = {}

    def start(self, device_bus) -> None:
        for sensor in self.SENSORS:
            device = device_bus.get(sensor)
            self._devices[sensor] = device
            handle = self._handles[sensor] = device.open(self.name)
            self._readers[sensor] = (READERS[sensor], device, handle)

    def stop(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    # -- operations ----------------------------------------------------------------
    def op_list_sensors(self, txn: Transaction):
        return {"status": "ok", "sensors": sorted(self._devices)}

    def op_read(self, txn: Transaction):
        sensor = txn.data.get("sensor", "")
        reader = self._readers.get(sensor)
        if reader is None:
            return {"error": f"unknown sensor {sensor!r}"}
        self.attach_client(txn)
        read, device, handle = reader
        return read(device, handle)
