"""The three tenant workloads the soak harness drives.

* **survey** — the paper's waypoint mission: fly-to, photograph, deliver
  files, complete.  Exercises the VDC waypoint lifecycle, flight control,
  and cloud-storage offload.
* **storm** — a device-service call storm: bursts of camera / GPS /
  sensor reads at the waypoint.  Saturates the binder route and the
  cross-container permission-check path — the two hot paths the O(1)
  handle index and the :class:`~repro.android.permissions.PermissionCache`
  exist for.
* **camera-feed** — a continuous-device subscriber forwarding camera
  frames to a user front-end over the per-container VPN.  Exercises
  continuous-view VFC telemetry, suspension at other tenants' waypoints,
  and network fan-out.

Each installer follows the app-behaviour contract
(``installer(app, sdk, vdrone)``) and is restart-safe: progress lives in
``app.memory`` and dead instances stop scheduling (the chaos-flight
idiom), so chaos overlays with container crashes resume cleanly.
"""

from __future__ import annotations

from typing import Callable

import repro.obs as obs
from repro.binder.driver import TransientBinderError
from repro.security.errors import RateLimitError
from repro.sdk.listener import WaypointListener

PACKAGES = {
    "survey": "com.loadgen.survey",
    "storm": "com.loadgen.storm",
    "camera-feed": "com.loadgen.feed",
}

_MANIFESTS = {
    "survey": (
        """
<manifest package="com.loadgen.survey">
  <uses-permission name="android.permission.CAMERA"/>
  <uses-permission name="androne.permission.FLIGHT_CONTROL"/>
</manifest>
""",
        """
<androne-manifest package="com.loadgen.survey">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="flight-control" type="waypoint"/>
</androne-manifest>
""",
    ),
    "storm": (
        """
<manifest package="com.loadgen.storm">
  <uses-permission name="android.permission.CAMERA"/>
  <uses-permission name="android.permission.ACCESS_FINE_LOCATION"/>
  <uses-permission name="android.permission.BODY_SENSORS"/>
</manifest>
""",
        """
<androne-manifest package="com.loadgen.storm">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="gps" type="waypoint"/>
  <uses-permission name="sensors" type="waypoint"/>
</androne-manifest>
""",
    ),
    "camera-feed": (
        """
<manifest package="com.loadgen.feed">
  <uses-permission name="android.permission.CAMERA"/>
</manifest>
""",
        """
<androne-manifest package="com.loadgen.feed">
  <uses-permission name="camera" type="continuous"/>
</androne-manifest>
""",
    ),
}

#: The storm's rotating call set (service, code, data).
STORM_CALLS = (
    ("CameraService", "capture", {}),
    ("LocationManagerService", "get_location", {}),
    ("SensorService", "read", {"sensor": "imu"}),
    ("SensorService", "read", {"sensor": "barometer"}),
)


def manifests_for(workload: str):
    """(android_xml, androne_xml) for a workload's app."""
    return _MANIFESTS[workload]


def _call(app, workload: str, service: str, code: str, data: dict) -> str:
    """Call one device service and count its outcome under
    ``loadgen.calls``: ok, denied, error, transient (a binder failure)
    or throttled (a rate guard refused it)."""
    try:
        reply = app.call_service(service, code, dict(data))
    except TransientBinderError:
        outcome = "transient"
    except RateLimitError:  # repro-lint: disable=flow-exceptions
        # The throttle IS the outcome, counted below; the rate guard
        # already fed the pressure detector.
        outcome = "throttled"
    else:
        if reply.get("denied"):
            outcome = "denied"
        elif reply.get("transient"):
            outcome = "transient"
        elif reply.get("status") == "ok":
            outcome = "ok"
        else:
            outcome = "error"
    obs.counter("loadgen.calls", workload=workload, outcome=outcome).inc()
    return outcome


def _alive(app, vdrone) -> bool:
    """The chaos-flight liveness idiom: this app instance still owns its
    package slot (a restored instance takes over after a crash)."""
    return (not app.binder.closed
            and vdrone.env.apps.get(app.package) is app)


def survey_installer(scenario) -> Callable:
    """Photos every 1.5 s at the waypoint; files marked for upload."""
    photos = scenario.photos_per_waypoint

    def install(app, sdk, vdrone):
        sim = vdrone.container.kernel.sim

        class Surveyor(WaypointListener):
            def waypoint_active(self, waypoint):
                self.index = waypoint.index
                self.shoot()

            def shoot(self):
                if not _alive(app, vdrone):
                    return
                key = f"shots@{self.index}"
                outcome = _call(app, "survey", "CameraService", "capture", {})
                if outcome == "denied":
                    return
                if outcome != "ok":
                    sim.after(1_000_000, self.shoot)
                    return
                count = app.memory.get(key, 0) + 1
                app.memory[key] = count
                path = app.write_file(f"wp{self.index}-{count}.jpg",
                                      f"jpeg:{vdrone.name}:{self.index}:{count}")
                sdk.mark_file_for_user(path)
                if count >= photos:
                    sdk.waypoint_completed()
                else:
                    sim.after(1_500_000, self.shoot)

        sdk.register_waypoint_listener(Surveyor())

    return install


def storm_installer(scenario) -> Callable:
    """Bursts of 4 mixed device-service calls every 200 ms while at the
    waypoint, ``storm_calls`` total — the saturated hot path."""
    total = scenario.storm_calls

    def install(app, sdk, vdrone):
        sim = vdrone.container.kernel.sim

        class Storm(WaypointListener):
            def waypoint_active(self, waypoint):
                self.index = waypoint.index
                self.burst()

            def burst(self):
                if not _alive(app, vdrone):
                    return
                key = f"calls@{self.index}"
                fired = app.memory.get(key, 0)
                for _ in range(min(4, total - fired)):
                    if _call(app, "storm", *STORM_CALLS[
                            fired % len(STORM_CALLS)]) == "denied":
                        return
                    fired += 1
                    app.memory[key] = fired
                if fired >= total:
                    sdk.waypoint_completed()
                else:
                    sim.after(200_000, self.burst)

        sdk.register_waypoint_listener(Storm())

    return install


def feed_installer(scenario, attach_frontend) -> Callable:
    """Continuous camera subscriber: captures every 800 ms whenever the
    policy allows (it is suspended at other tenants' waypoints), forwards
    frames to the user front-end, and completes its waypoint after
    ``feed_frames`` frames sent while active there.

    ``attach_frontend(vdrone, package)`` is supplied by the harness and
    returns the drone-side :class:`~repro.sdk.frontend.AppFrontendChannel`.
    """
    frames_needed = scenario.feed_frames

    def install(app, sdk, vdrone):
        sim = vdrone.container.kernel.sim
        channel = attach_frontend(vdrone, app.package)

        class Feeder(WaypointListener):
            at_waypoint = False

            def waypoint_active(self, waypoint):
                self.index = waypoint.index
                self.at_waypoint = True
                app.memory.setdefault(f"frames@{waypoint.index}", 0)

            def waypoint_inactive(self, waypoint):
                self.at_waypoint = False

            def tick(self):
                if not _alive(app, vdrone):
                    return
                if _call(app, "camera-feed", "CameraService", "capture",
                         {}) == "ok":
                    total = app.memory.get("frames", 0) + 1
                    app.memory["frames"] = total
                    channel.push_camera_frame({"t_us": sim.now, "n": total})
                    obs.counter("loadgen.frames", tenant=vdrone.name).inc()
                    if self.at_waypoint:
                        key = f"frames@{self.index}"
                        here = app.memory.get(key, 0) + 1
                        app.memory[key] = here
                        if here >= frames_needed:
                            self.at_waypoint = False
                            sdk.waypoint_completed()
                sim.after(800_000, self.tick)

        feeder = Feeder()
        sdk.register_waypoint_listener(feeder)
        sim.after(800_000, feeder.tick)

    return install


def build_installers(scenario, attach_frontend) -> dict:
    """package -> installer for every workload in the scenario's mix."""
    installers = {}
    # sorted() so the installers dict (and everything that iterates it
    # downstream) has a schedule-independent insertion order.
    for workload in sorted(set(scenario.workload_mix)):
        if workload == "survey":
            installers[PACKAGES[workload]] = survey_installer(scenario)
        elif workload == "storm":
            installers[PACKAGES[workload]] = storm_installer(scenario)
        else:
            installers[PACKAGES[workload]] = feed_installer(
                scenario, attach_frontend)
    return installers
