"""AndroidEnvironment: one container's Android Things userspace.

Wires together the Binder process, ServiceManager, ActivityManager and
SystemServer for a container, and hosts the VDC's device-policy hook when
the container is the device container.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.android.activity_manager import ActivityManager
from repro.android.app import App
from repro.android.manifest import AndroidManifest, AnDroneManifest
from repro.android.system_server import SystemServer
from repro.binder import BinderDriver, BinderError, ServiceManager
from repro.kernel.namespaces import Namespace


class AndroidEnvironment:
    """The Android userspace of one container."""

    def __init__(
        self,
        driver: BinderDriver,
        container_name: str,
        device_ns: Namespace,
        is_device_container: bool = False,
    ):
        self.driver = driver
        self.container_name = container_name
        self.device_ns = device_ns
        self.is_device_container = is_device_container
        #: VDC policy hook: (container, androne_device) -> bool.  Installed
        #: by the VDC on the *device container's* environment.
        self.permission_hook: Optional[Callable[[str, str], bool]] = None
        #: Cross-container checkPermission memo (device container only) —
        #: consulted by SystemService before the binder round trip and
        #: invalidated by the calling containers' ActivityManagers.
        from repro.android.permissions import PermissionCache

        self.permission_cache: Optional[PermissionCache] = \
            PermissionCache() if is_device_container else None

        self.binder_proc = driver.open(
            next(driver.pids), euid=1000, container=container_name,
            device_ns=device_ns
        )
        self.service_manager = ServiceManager(
            self.binder_proc, is_device_container=is_device_container
        )
        self.activity_manager = ActivityManager(container_name)
        am_ref = self.binder_proc.create_node(
            self.activity_manager.handle_txn, f"am:{container_name}"
        )
        try:
            self.service_manager.register("ActivityManager", am_ref)
        except BinderError:
            # Device container not up yet; core assembly retries after it is.
            self._pending_am_ref = am_ref
        else:
            self._pending_am_ref = None
        self.system_server = SystemServer(self)
        from repro.android.intents import IntentBus

        #: container-local broadcast bus (intents never cross containers).
        self.intents = IntentBus(container_name)
        self.apps: Dict[str, App] = {}

    def retry_am_forwarding(self) -> bool:
        """Re-register the ActivityManager after the device container is up."""
        if self._pending_am_ref is None:
            return True
        try:
            self.service_manager.register("ActivityManager", self._pending_am_ref)
        except BinderError:
            return False
        self._pending_am_ref = None
        return True

    # -- apps ------------------------------------------------------------------
    def install_app(
        self,
        android_manifest: AndroidManifest,
        androne_manifest: Optional[AnDroneManifest] = None,
        container=None,
    ) -> App:
        """Install an app: assign a uid, grant install-time permissions."""
        if android_manifest.package in self.apps:
            raise ValueError(f"app {android_manifest.package!r} already installed")
        uid = next(self.driver.uids)
        self.activity_manager.grant_install_permissions(
            android_manifest.package, uid, android_manifest.permissions
        )
        app = App(self, android_manifest, androne_manifest, uid=uid,
                  pid=next(self.driver.pids), container=container)
        self.apps[android_manifest.package] = app
        return app

    def uninstall_app(self, package: str) -> None:
        app = self.apps.pop(package, None)
        if app is not None:
            self.activity_manager.revoke_all(package)
            app.destroy()
