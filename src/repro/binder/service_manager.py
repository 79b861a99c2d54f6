"""The userspace ServiceManager (Binder's Context Manager).

Each container runs one; it registers itself as the Context Manager of its
device namespace, maintains the name → handle mapping, and implements the
AnDrone-specific flows from Figure 6:

* the **device container's** ServiceManager publishes any registration
  whose name is in the shared-service list to all namespaces via the
  ``PUBLISH_TO_ALL_NS`` ioctl;
* every **virtual drone's** ServiceManager forwards its ActivityManager
  registration to the device container via ``PUBLISH_TO_DEV_CON``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.binder.driver import BinderProcess, NodeRef
from repro.binder.objects import Transaction


class ServiceNotFoundError(KeyError):
    """Lookup of an unregistered service name."""


#: Service names the device container shares with all virtual drones
#: (paper Table 1).
SHARED_SERVICES = (
    "AudioFlinger",
    "CameraService",
    "LocationManagerService",
    "SensorService",
)

#: The registration every virtual drone forwards to the device container
#: for cross-container permission checks (Figure 6).
ACTIVITY_MANAGER = "ActivityManager"


class ServiceManager:
    """One container's service registry."""

    def __init__(
        self,
        proc: BinderProcess,
        is_device_container: bool = False,
    ):
        self.proc = proc
        self.container = proc.container
        self.is_device_container = is_device_container
        self._services: Dict[str, int] = {}  # name -> handle in *our* table
        self._self_ref = proc.create_node(self._handle_txn, f"servicemanager:{self.container}")
        proc.ioctl_set_context_mgr(self._self_ref)

    # -- userspace API (used in-process by the owning container) -----------------
    def register(self, name: str, ref: NodeRef) -> None:
        """Register a service owned by this container."""
        handle = self.proc._install_ref(ref.node)
        self._register(name, handle)

    def lookup_handle(self, name: str) -> int:
        """Return our handle for ``name`` (services use this in-process)."""
        if name not in self._services:
            raise ServiceNotFoundError(name)
        return self._services[name]

    def list_services(self) -> List[str]:
        return sorted(self._services)

    def has_service(self, name: str) -> bool:
        return name in self._services

    # -- Binder-facing handler ------------------------------------------------------
    def _handle_txn(self, txn: Transaction):
        if txn.code == "register":
            self._register(txn.data["name"], txn.data["service"])
            return {"status": "ok"}
        if txn.code == "get":
            name = txn.data["name"]
            if name not in self._services:
                return {"status": "not_found"}
            # Hand the caller a ref; the driver translates it on delivery of
            # the reply in real Binder — modeled here by returning the ref.
            return {"status": "ok", "service": self.proc.ref_for_handle(self._services[name])}
        if txn.code == "list":
            return {"status": "ok", "services": self.list_services()}
        return {"status": "unknown_code"}

    def _register(self, name: str, handle: int) -> None:
        self._services[name] = handle
        # Prune the registration when the service process dies, as the
        # real ServiceManager does via linkToDeath.
        def on_death(node, name=name, handle=handle):
            if self._services.get(name) == handle:
                del self._services[name]

        self.proc.link_to_death(handle, on_death)
        if self.is_device_container and name in SHARED_SERVICES:
            # Figure 6 top: share the service with every virtual drone.
            self.proc.ioctl_publish_to_all_ns(name, self.proc.ref_for_handle(handle))
        if not self.is_device_container and name == ACTIVITY_MANAGER:
            # Figure 6 bottom: make our ActivityManager reachable from the
            # device container for cross-container permission checks.
            self.proc.ioctl_publish_to_dev_con(name, self.proc.ref_for_handle(handle))

    def publish_shared_into(self, ns, via_driver) -> int:
        """Publish all currently-shared services into a newly created
        namespace (a virtual drone started after the device container)."""
        count = 0
        for name in SHARED_SERVICES:
            if name in self._services:
                node = self.proc._resolve(self._services[name])
                if via_driver.publish_to_namespace(ns, name, node, self.proc):
                    count += 1
        return count
