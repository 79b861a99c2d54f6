"""Android Things model.

Reproduces the Android userspace pieces AnDrone builds on: the
SystemServer that starts system services, the per-container
ActivityManager and its permission model, the four shared device services
(Table 1), app installation with manifests, and the activity lifecycle
(``onSaveInstanceState``) AnDrone uses to save and resume virtual drones.

The package is organised around :class:`~repro.android.environment.
AndroidEnvironment`: one per container, wiring a Binder process, a
ServiceManager, an ActivityManager, and a SystemServer together.  Virtual
drone containers run with device services *disabled* (AnDrone modifies
init and SystemServer, Section 4.2); the device container runs them with
exclusive device access and publishes them everywhere.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "permissions": ("Permission",),
    "manifest": ("AndroidManifest", "AnDroneManifest", "ManifestError"),
    "activity_manager": ("ActivityManager",),
    "system_server": ("SystemServer",),
    "environment": ("AndroidEnvironment",),
    "app": ("App", "AppState"),
})
