"""SensorService: motion and environmental sensors (IMU, barometer,
magnetometer), multiplexed from the device container."""

from __future__ import annotations


from repro.android.permissions import Permission
from repro.android.services.base import SystemService
from repro.binder.objects import Transaction


class SensorService(SystemService):
    name = "SensorService"
    androne_device = "sensors"
    required_permission = Permission.BODY_SENSORS

    SENSORS = ("imu", "barometer", "magnetometer")

    def __init__(self, environment):
        super().__init__(environment)
        self._devices = {}
        self._handles = {}

    def start(self, device_bus) -> None:
        for sensor in self.SENSORS:
            device = device_bus.get(sensor)
            self._devices[sensor] = device
            self._handles[sensor] = device.open(self.name)

    def stop(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    # -- operations ----------------------------------------------------------------
    def op_list_sensors(self, txn: Transaction):
        return {"status": "ok", "sensors": sorted(self._devices)}

    def op_read(self, txn: Transaction):
        sensor = txn.data.get("sensor", "")
        if sensor not in self._devices:
            return {"error": f"unknown sensor {sensor!r}"}
        self.attach_client(txn)
        device = self._devices[sensor]
        handle = self._handles[sensor]
        if sensor == "imu":
            reading = device.read(handle)
            return {"status": "ok", "reading": reading.to_dict()}
        if sensor == "barometer":
            return {
                "status": "ok",
                "pressure_pa": device.read_pressure(handle),
                "altitude_m": device.read_altitude(handle),
            }
        return {"status": "ok", "heading_rad": device.read_heading(handle)}
