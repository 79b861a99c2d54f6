"""LocationManagerService: GPS access for apps and the flight container.

Besides the standard Java-facing ``get_location``, this service exposes
the **native interface** the paper had to create for the flight
container's HAL bridge: "the NDK does not provide access to GPS, so a
native interface for Android's LocationManagerService had to be created"
(Section 4.3).
"""

from __future__ import annotations


from repro.android.permissions import Permission
from repro.android.services.base import SystemService
from repro.binder.objects import Transaction


class LocationManagerService(SystemService):
    name = "LocationManagerService"
    androne_device = "gps"
    required_permission = Permission.ACCESS_FINE_LOCATION

    def __init__(self, environment):
        super().__init__(environment)
        self._gps = None
        self._handle = None

    def start(self, device_bus) -> None:
        self._gps = device_bus.get("gps")
        self._handle = self._gps.open(self.name)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- operations -----------------------------------------------------------------
    def op_get_location(self, txn: Transaction):
        self.attach_client(txn)
        fix = self._gps.read_fix(self._handle)
        return {"status": "ok", "fix": fix.to_dict()}

    # The native (NDK-bridge) entry point used by the flight container's
    # HAL; identical data, but kept as a distinct code so the flight
    # container's access can be separately authorized and audited.
    def op_native_get_location(self, txn: Transaction):
        self.attach_client(txn)
        fix = self._gps.read_fix(self._handle)
        return {"status": "ok", "fix": fix.to_dict()}
