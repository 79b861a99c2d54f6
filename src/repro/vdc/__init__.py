"""The Virtual Drone Controller (VDC) and virtual drone definitions.

The VDC is "a daemon running natively on the host OS of the physical
drone responsible for managing virtual drone containers" (Section 4.4):
it creates containers from JSON definitions, manages device access (and
*revocation* — beyond Android's grant-once model), enforces energy and
time allotments, and saves virtual drones to the VDR for resumption.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "definition": ("VirtualDroneDefinition", "WaypointSpec", "DefinitionError"),
    "device_access": ("DeviceAccessPolicy", "TenantPhase"),
    "controller": ("VirtualDroneController", "VirtualDrone"),
})
