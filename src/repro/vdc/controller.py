"""The VDC daemon.

Wires together everything on the drone: container runtime, Android
environments, the device-access policy (installed as the device
container's permission hook), per-tenant SDKs, VFCs, and the energy/time
allotment enforcement.  The cloud flight planner drives it with
``waypoint_reached`` / ``waypoint_left`` notifications; apps drive it
through the SDK's ``waypoint_completed``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro.obs as obs
from repro.android.environment import AndroidEnvironment
from repro.android.manifest import AndroidManifest, AnDroneManifest
from repro.containers.container import ContainerState
from repro.flight.geofence import Geofence
from repro.mavproxy.whitelist import TEMPLATES
from repro.sdk.androne_sdk import AndroneSdk
from repro.sdk.listener import Waypoint
from repro.sim import Periodic
from repro.vdc.definition import VirtualDroneDefinition
from repro.vdc.device_access import DeviceAccessPolicy, TenantPhase

#: Memory footprint of one Android Things virtual drone (Section 6.3).
VDRONE_MEMORY_KB = 185 * 1024

#: Restriction template of every tenant's VFC.
DEFAULT_TEMPLATE = TEMPLATES["standard"]

#: Container supervision: the heartbeat period, the consecutive missed
#: beats that trigger a restart from the latest checkpoint, and the
#: restarts after which a crash-looping tenant is force-finished.
HEARTBEAT_INTERVAL_US = 500_000
MISS_THRESHOLD = 2
MAX_RESTARTS = 3


class UnknownTenantError(KeyError):
    """A VDC operation named a tenant that does not exist.

    Subclasses ``KeyError`` so callers that caught the bare lookup error
    this used to surface as keep working.
    """

    def __init__(self, name: str):
        super().__init__(f"no virtual drone named {name!r}")
        self.tenant = name

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class TenantExistsError(ValueError):
    """Creating a virtual drone whose name is already live on this VDC.
    Subclasses ``ValueError`` so callers that caught the bare error this
    used to surface as keep working."""


class MissingManifestError(ValueError):
    """A definition names an app no manifest was supplied for.
    Subclasses ``ValueError`` for the same compatibility reason."""


class WaypointOrderError(ValueError):
    """A waypoint activation that contradicts mission state (already
    completed, or nothing left to visit).  Subclasses ``ValueError`` for
    the same compatibility reason."""


class VirtualDrone:
    """Everything belonging to one tenant on this drone."""

    def __init__(self, definition: VirtualDroneDefinition, container, env, sdk, vfc):
        self.definition = definition
        self.name = definition.name
        self.container = container
        self.env = env
        self.sdk = sdk
        self.vfc = vfc
        #: Index of the waypoint currently being serviced, if any.  The
        #: planner may visit a tenant's waypoints in any order (Section 4's
        #: stated limitation), so visits are tracked as a set.
        self.current_index: Optional[int] = None
        self.completed: set = set()
        #: package -> behaviour installer; re-run after a supervision
        #: restart to wire the restored apps back to the SDK.
        self.installers: Dict[str, Callable] = {}
        self.active_time_s = 0.0
        self._active_since_us: Optional[int] = None
        self.energy_baseline_j = 0.0
        self.finished = False
        self.force_finished_reason: Optional[str] = None
        self._warned_energy = False
        self._warned_time = False
        #: open telemetry spans (tenant lifetime / current waypoint).
        self._tenant_span = None
        self._waypoint_span = None

    def next_unvisited(self) -> Optional[int]:
        for index in range(len(self.definition.waypoints)):
            if index not in self.completed:
                return index
        return None

    def waypoint(self, index: int) -> Waypoint:
        spec = self.definition.waypoints[index]
        return Waypoint(index, spec.latitude, spec.longitude,
                        spec.altitude, spec.max_radius)


class VirtualDroneController:
    """The host daemon managing virtual drones (Section 4.4)."""

    def __init__(
        self,
        sim,
        kernel,
        runtime,
        driver,
        device_env: AndroidEnvironment,
        proxy,
        battery,
        base_image_tag: str = "android-things",
        vdr=None,
        cloud_storage=None,
    ):
        self.sim = sim
        self.kernel = kernel
        self.runtime = runtime
        self.driver = driver
        self.device_env = device_env
        self.proxy = proxy
        self.battery = battery
        self.base_image_tag = base_image_tag
        self.vdr = vdr
        self.cloud_storage = cloud_storage
        self.policy = DeviceAccessPolicy()
        device_env.permission_hook = self.policy.allows
        self.drones: Dict[str, VirtualDrone] = {}
        self.active_tenant: Optional[str] = None
        #: invoked with (tenant_name,) when a tenant finishes a waypoint
        #: (voluntarily or forced) — the flight planner listens here.
        self.on_waypoint_done: Optional[Callable[[str], None]] = None
        self._enforcement = Periodic(sim, 1_000_000, self._enforcement_tick)
        self.killed_processes: List[Tuple[str, int]] = []
        # --- container supervision (heartbeat + checkpoint/restart) ---
        self.supervision_enabled = False
        #: latest checkpoint per tenant, refreshed at waypoint boundaries.
        self.checkpoints: Dict[str, object] = {}
        self._checkpoint_seq: Dict[str, int] = {}
        self.restart_counts: Dict[str, int] = {}
        self._missed_beats: Dict[str, int] = {}
        self._crashed_at_us: Dict[str, int] = {}
        self._supervision = Periodic(sim, HEARTBEAT_INTERVAL_US,
                                     self._supervision_tick)
        self._restarting = False
        #: set by :meth:`stop` (the drone powered down after its last
        #: landing) and cleared by :meth:`start`.
        self._stopped = False

    # ------------------------------------------------------------ creation
    def create_virtual_drone(
        self,
        definition: VirtualDroneDefinition,
        app_manifests: Optional[Dict[str, Tuple[AndroidManifest, Optional[AnDroneManifest]]]] = None,
        resume_diff=None,
        completed_waypoints=None,
    ) -> VirtualDrone:
        """Create (or resume) a virtual drone from its definition."""
        name = definition.name
        if name in self.drones:
            raise TenantExistsError(f"virtual drone {name!r} already exists")
        if resume_diff is not None:
            container = self.runtime.import_container(
                name, self.base_image_tag, resume_diff, VDRONE_MEMORY_KB)
        else:
            container = self.runtime.create(name, self.base_image_tag, VDRONE_MEMORY_KB)
        container.start()
        env = self._tenant_environment(container)
        # Install the definition's apps.
        for package in definition.apps:
            manifests = (app_manifests or {}).get(package)
            if manifests is None:
                raise MissingManifestError(f"no manifests supplied for app {package!r}")
            android_manifest, androne_manifest = manifests
            app = env.install_app(android_manifest, androne_manifest, container=container)
            container.write_file(f"/data/app/{package}.apk", f"apk:{package}")
            app.create()
            app.resume()
        drone = self._register_drone(definition, container, env)
        if completed_waypoints:
            # Resumed flight: skip waypoints already serviced; anchor the
            # idle view at the next remaining one.
            drone.completed = set(completed_waypoints)
            remaining = drone.next_unvisited()
            if remaining is not None:
                drone.vfc.waypoint = definition.waypoints[remaining].geopoint()
        obs.event("vdc.tenant_created", tenant=name,
                  apps=len(definition.apps),
                  waypoints=len(definition.waypoints),
                  resumed=resume_diff is not None)
        obs.gauge("vdc.tenants").set(len(self.drones))
        if self.supervision_enabled:
            self.checkpoints[name] = self.checkpoint_virtual_drone(name)
        self.start()
        return drone

    def _tenant_environment(self, container) -> AndroidEnvironment:
        """Build a started tenant container's Android environment; create,
        restart and restore all come through here.

        The tenant's ActivityManager is forwarded to the device container,
        and its grant changes invalidate the device container's permission
        cache.  The environment assigns fresh uids, so cached answers for
        an earlier instance of the container are dropped first.  The
        device container's shared services are then published into the
        tenant's namespace.
        """
        name = container.name
        env = AndroidEnvironment(self.driver, name,
                                 container.namespaces.device_ns)
        env.retry_am_forwarding()
        cache = self.device_env.permission_cache
        env.activity_manager.on_permissions_changed = \
            lambda uids: cache.invalidate_uids(name, uids)
        cache.invalidate_container(name)
        self.device_env.service_manager.publish_shared_into(
            container.namespaces.device_ns, self.driver)
        env.system_server.start()
        return env

    def _register_drone(self, definition: VirtualDroneDefinition, container,
                        env: AndroidEnvironment) -> VirtualDrone:
        """Give a created or restored tenant its SDK, VFC and allotment
        baseline, and enter it in the tenant table and the device policy."""
        name = container.name
        sdk = AndroneSdk(name, self,
                         flight_controller_ip="10.99.0.2:5760",
                         intent_bus=env.intents)
        vfc = self.proxy.create_vfc(
            name,
            DEFAULT_TEMPLATE,
            waypoint=definition.waypoints[0].geopoint(),
            continuous_view=bool(definition.continuous_devices),
        )
        drone = VirtualDrone(definition, container, env, sdk, vfc)
        drone.energy_baseline_j = self.battery.drawn_by(name)
        self.drones[name] = drone
        self.policy.register(name, definition)
        drone._tenant_span = obs.span("vdc.tenant", tenant=name)
        return drone

    def get(self, name: str) -> VirtualDrone:
        return self._drone(name)

    def _drone(self, name: str) -> VirtualDrone:
        try:
            return self.drones[name]
        except KeyError:
            raise UnknownTenantError(name) from None

    # ------------------------------------------------------- waypoint events
    def waypoint_reached(self, name: str, index: Optional[int] = None) -> None:
        """Flight planner: the drone has arrived at one of ``name``'s
        waypoints (``index``; defaults to the first unvisited one)."""
        drone = self._drone(name)
        if drone.finished:
            return
        if index is None:
            index = drone.next_unvisited()
        if index is None or index in drone.completed:
            raise WaypointOrderError(f"{name}: waypoint {index} already completed")
        drone.current_index = index
        self.policy.enter_waypoint(name)
        self.active_tenant = name
        drone._active_since_us = self.sim.now
        drone._waypoint_span = obs.span("vdc.waypoint", tenant=name,
                                        index=index)
        # Suspend continuous-device tenants (privacy, Section 2).
        for other_name, other in self.drones.items():
            if other_name != name and self.policy.phase_of(other_name) is TenantPhase.SUSPENDED:
                if other.definition.continuous_devices:
                    other.sdk.notify_suspend_continuous()
        spec = drone.definition.waypoints[index]
        if drone.definition.wants_flight_control:
            fence = Geofence(center=spec.geopoint(), radius_m=spec.max_radius)
            drone.vfc.activate(fence)
        drone.sdk.notify_waypoint_active(drone.waypoint(index))

    def waypoint_completed(self, name: str) -> None:
        """SDK: the app reports it is done at the current waypoint."""
        drone = self._drone(name)
        if drone.finished or drone.current_index is None:
            # Late or duplicate completion — e.g. from an app instance
            # that died with its container and whose pre-crash callbacks
            # still fire after the restored instance already completed.
            obs.counter("vdc.duplicate_completions", tenant=name).inc()
            return
        self._leave_waypoint(name, forced=False)

    def force_finish(self, name: str, reason: str) -> None:
        """Allotment exhausted or external interruption (weather, ...)."""
        drone = self._drone(name)
        drone.force_finished_reason = reason
        obs.event("vdc.force_finish", tenant=name, reason=reason)
        if self.active_tenant == name:
            self._leave_waypoint(name, forced=True)
        else:
            drone.finished = True
            self.policy.finish(name)
            self._close_tenant_span(drone)

    def demote_tenant(self, name: str, reason: str) -> None:
        """Security demotion: the simplex controller decided ``name`` is
        abusing a shared resource while holding the drone (e.g. a binder
        flood that never completes its waypoint).  The tenant loses its
        turn immediately — same semantics as an exhausted allotment — so
        the tour moves on to honest tenants instead of waiting out the
        abuser's full time allotment."""
        drone = self._drone(name)
        if drone.finished:
            return
        obs.event("vdc.tenant_demoted", tenant=name, reason=reason)
        self.force_finish(name, f"security demotion: {reason}")

    def _leave_waypoint(self, name: str, forced: bool) -> None:
        drone = self._drone(name)
        index = drone.current_index
        if index is None:
            index = drone.next_unvisited() or 0
        # Accumulate active time against the allotment.
        if drone._active_since_us is not None:
            drone.active_time_s += (self.sim.now - drone._active_since_us) / 1e6
            drone._active_since_us = None
        drone.sdk.notify_waypoint_inactive(drone.waypoint(index))
        if not forced:
            drone.completed.add(index)
        # else: an interrupted waypoint stays incomplete — the task is
        # re-attempted when the virtual drone resumes (Section 2).
        drone.current_index = None
        self.policy.leave_waypoint(name)
        if forced:
            self.policy.finish(name)
        if drone._waypoint_span is not None:
            drone._waypoint_span.end(forced=forced)
            drone._waypoint_span = None
        obs.event("vdc.waypoint_done", tenant=name, index=index,
                  forced=forced)
        obs.gauge("vdc.active_time_s", tenant=name).set(drone.active_time_s)
        obs.gauge("vdc.energy_used_j", tenant=name).set(self.energy_used(name))
        remaining = drone.next_unvisited()
        finished = forced or remaining is None
        if finished:
            drone.finished = True
            self.policy.finish(name)
            drone.vfc.finish()
            self._close_tenant_span(drone)
        else:
            drone.vfc.deactivate(drone.definition.waypoints[remaining].geopoint())
        if (self.supervision_enabled and not finished
                and drone.container.state is ContainerState.RUNNING):
            # Refresh the restart point at the waypoint boundary, so a
            # later crash resumes from here instead of replaying work.
            self.checkpoints[name] = self.checkpoint_virtual_drone(name)
        self._revoke_device_access(name)
        if self.active_tenant == name:
            self.active_tenant = None
        # Resume suspended continuous tenants.
        for other_name, other in self.drones.items():
            if other_name != name and other.definition.continuous_devices \
                    and self.policy.phase_of(other_name) is TenantPhase.BETWEEN:
                other.sdk.notify_resume_continuous()
        if self.on_waypoint_done is not None:
            self.on_waypoint_done(name)

    def _close_tenant_span(self, drone: VirtualDrone) -> None:
        if drone._tenant_span is not None:
            drone._tenant_span.end(
                waypoints_completed=len(drone.completed),
                forced_reason=drone.force_finished_reason or "")
            drone._tenant_span = None

    # ----------------------------------------------------------- revocation
    def _revoke_device_access(self, name: str) -> None:
        """Enforce revocation (Section 4.4): apps were asked to stop via
        the SDK; any process still attached to a device service gets its
        sessions dropped and is terminated."""
        drone = self._drone(name)
        for service in self.device_env.system_server.services.values():
            lingering = service.clients_from(name)
            # Only kill for devices the tenant no longer may use.
            if lingering and not self.policy.allows(name, service.androne_device):
                service.drop_container(name)
                for uid in lingering:
                    self.killed_processes.append((name, uid))
                    obs.event("vdc.process_killed", tenant=name, uid=uid,
                              service=service.name)
                    for app in drone.env.apps.values():
                        if app.uid == uid:
                            app.destroy()

    # ----------------------------------------------------------- allotments
    def energy_used(self, name: str) -> float:
        drone = self._drone(name)
        return self.battery.drawn_by(name) - drone.energy_baseline_j

    def energy_left(self, name: str) -> float:
        drone = self._drone(name)
        return max(0.0, drone.definition.energy_allotted_j - self.energy_used(name))

    def time_used(self, name: str) -> float:
        drone = self._drone(name)
        used = drone.active_time_s
        if drone._active_since_us is not None:
            used += (self.sim.now - drone._active_since_us) / 1e6
        return used

    def time_left(self, name: str) -> float:
        drone = self._drone(name)
        return max(0.0, drone.definition.max_duration_s - self.time_used(name))

    def _enforcement_tick(self) -> None:
        for name, drone in list(self.drones.items()):
            if drone.finished:
                continue
            energy_left = self.energy_left(name)
            time_left = self.time_left(name)
            allot = drone.definition
            if not drone._warned_energy and energy_left < 0.25 * allot.energy_allotted_j:
                drone._warned_energy = True
                obs.event("vdc.allotment_warning", tenant=name, kind="energy",
                          left=round(energy_left, 3))
                drone.sdk.notify_low_energy(energy_left)
            if not drone._warned_time and time_left < 0.25 * allot.max_duration_s:
                drone._warned_time = True
                obs.event("vdc.allotment_warning", tenant=name, kind="time",
                          left=round(time_left, 3))
                drone.sdk.notify_low_time(time_left)
            if self.active_tenant == name and (energy_left <= 0.0 or time_left <= 0.0):
                reason = "energy allotment exhausted" if energy_left <= 0.0 \
                    else "time allotment exhausted"
                self.force_finish(name, reason)

    # ------------------------------------------------ supervision/recovery
    def enable_supervision(self) -> None:
        """Start heartbeat supervision of tenant containers.

        Every ``HEARTBEAT_INTERVAL_US`` the VDC checks each unfinished
        tenant's container; after ``MISS_THRESHOLD`` consecutive missed
        beats the container is restarted from its latest checkpoint.  A
        tenant already restarted ``MAX_RESTARTS`` times is force-finished
        as a crash loop.  Off by default: an unsupervised VDC behaves
        exactly as before this layer existed.
        """
        self.supervision_enabled = True
        for name, drone in self.drones.items():
            if not drone.finished and name not in self.checkpoints:
                self.checkpoints[name] = self.checkpoint_virtual_drone(name)
        if not (self._restarting or self._stopped):
            self._supervision.start(delay=HEARTBEAT_INTERVAL_US)

    def _supervision_tick(self) -> None:
        for name, drone in list(self.drones.items()):
            if drone.finished:
                continue
            if drone.container.state is ContainerState.RUNNING:
                self._missed_beats[name] = 0
                continue
            misses = self._missed_beats.get(name, 0) + 1
            self._missed_beats[name] = misses
            obs.event("vdc.heartbeat_missed", tenant=name, misses=misses)
            if misses < MISS_THRESHOLD:
                continue
            self._missed_beats[name] = 0
            restarts = self.restart_counts.get(name, 0)
            if restarts >= MAX_RESTARTS:
                self.force_finish(name, "container crash loop")
                continue
            self.restart_counts[name] = restarts + 1
            self.restart_virtual_drone(name)

    def crash_container(self, name: str) -> None:
        """Fault injection: kill a tenant's container where it stands.

        Models a container runtime crash: every process dies, so the
        container's Binder fds close (firing death notifications in the
        device container) and the container stops.  Recovery is the
        supervision loop's job.
        """
        drone = self._drone(name)
        if drone.container.state is not ContainerState.RUNNING:
            return
        self._crashed_at_us[name] = self.sim.now
        obs.event("fault.container_crashed", tenant=name)
        obs.counter("fault.container_crashes", tenant=name).inc()
        for app in drone.env.apps.values():
            app.binder.close()
        drone.env.binder_proc.close()
        drone.container.stop()

    def restart_virtual_drone(self, name: str) -> VirtualDrone:
        """Restart a crashed tenant container from its latest checkpoint.

        The VirtualDrone identity (SDK, VFC, allotment accounting,
        waypoint progress) survives; only the container and its Android
        environment are rebuilt.  Restored apps get their behaviour
        installers re-run and, if a waypoint was being serviced, the
        active-waypoint notification is re-delivered so the task resumes.
        """
        from repro.containers.checkpoint import CheckpointMissingError, \
            restore_container

        drone = self._drone(name)
        image = self.checkpoints.get(name)
        if image is None:
            raise CheckpointMissingError(name)

        self.runtime.remove(name)
        container, env = restore_container(
            image, self.runtime, self._tenant_environment, VDRONE_MEMORY_KB)
        drone.container = container
        drone.env = env
        # Pre-crash app instances are gone: drop their listeners, rewire
        # the SDK to the restored environment, and reinstall behaviours.
        drone.sdk.clear_listeners()
        drone.sdk.intent_bus = env.intents
        for package, installer in drone.installers.items():
            app = env.apps.get(package)
            if app is not None:
                installer(app, drone.sdk, drone)
        crashed_at = self._crashed_at_us.pop(name, None)
        if crashed_at is not None:
            obs.histogram("fault.recovery_us", unit="us-sim",
                          kind="container-restart").observe(
                float(self.sim.now - crashed_at))
        obs.event("vdc.container_restarted", tenant=name,
                  restarts=self.restart_counts.get(name, 0),
                  checkpoint=image.checkpoint_id)
        obs.counter("fault.container_restarts", tenant=name).inc()
        if drone.current_index is not None and not drone.finished:
            drone.sdk.notify_waypoint_active(drone.waypoint(drone.current_index))
        return drone

    def simulate_restart(self, downtime_s: float = 0.5) -> None:
        """Fault injection: the VDC daemon dies and init restarts it.

        Tenant containers are independent processes and keep running;
        what stops is the daemon itself, so allotment enforcement and
        container supervision pause for ``downtime_s`` and then resume
        (the daemon re-reads its tenant table on startup).
        """
        if self._restarting:
            return
        self._restarting = True
        obs.event("vdc.restart", phase="down", downtime_s=downtime_s)
        obs.counter("fault.vdc_restarts").inc()
        self._enforcement.stop()
        self._supervision.stop()

        def come_back():
            self._restarting = False
            obs.event("vdc.restart", phase="up")
            if not self._stopped:
                self.start()

        self.sim.after(int(downtime_s * 1e6), come_back)

    # ------------------------------------------------------ daemon loops
    def start(self) -> None:
        """Run allotment enforcement (once there are tenants) and, when
        enabled, supervision.  A restart in progress starts them when
        the daemon comes back."""
        self._stopped = False
        if self._restarting:
            return
        if self.drones:
            self._enforcement.start()
        if self.supervision_enabled:
            self._supervision.start()

    def stop(self) -> None:
        """Stop enforcement and supervision until the next :meth:`start`;
        a restart whose downtime outlasts this does not bring them back."""
        self._stopped = True
        self._enforcement.stop()
        self._supervision.stop()

    # ------------------------------------------------ checkpoint migration
    def checkpoint_virtual_drone(self, name: str):
        """Transparent (CRIU-style) checkpoint of a virtual drone — the
        alternative migration path the paper cites (Section 4.4).  Unlike
        the lifecycle path, apps are not asked to cooperate."""
        from repro.containers.checkpoint import checkpoint_container

        drone = self._drone(name)
        # Run-scoped id, not the process-wide default: replayed runs must
        # name their checkpoints identically for traces to match.
        seq = self._checkpoint_seq.get(name, 0) + 1
        self._checkpoint_seq[name] = seq
        return checkpoint_container(drone.container, drone.env,
                                    self.base_image_tag,
                                    checkpoint_id=f"ckpt-{name}-{seq}")

    def restore_virtual_drone(self, image,
                              definition: VirtualDroneDefinition) -> VirtualDrone:
        """Restore a checkpointed virtual drone onto this drone."""
        from repro.containers.checkpoint import restore_container

        container, env = restore_container(
            image, self.runtime, self._tenant_environment, VDRONE_MEMORY_KB)
        drone = self._register_drone(definition, container, env)
        obs.event("vdc.tenant_restored", tenant=container.name)
        obs.gauge("vdc.tenants").set(len(self.drones))
        return drone

    # --------------------------------------------------------- flight end
    def save_to_vdr(self, tenants: Iterable[str]) -> Dict[str, str]:
        """End of a flight: for each of ``tenants`` (the tenants it
        carried), stop apps (saving instance state), commit the
        container, store it in the VDR, and upload marked files.

        Returns a map of tenant name to VDR entry id.
        """
        stored: Dict[str, str] = {}
        for name in tenants:
            drone = self._drone(name)
            for app in list(drone.env.apps.values()):
                if app.state.value in ("resumed", "paused", "created"):
                    app.stop()
            base_id, diff = self.runtime.export(name, comment=f"flight-end:{name}")
            if self.cloud_storage is not None:
                for path in drone.sdk.marked_files:
                    content = drone.container.read_file(path)
                    if content is not None:
                        self.cloud_storage.put(name, path, content)
            if self.vdr is not None:
                has_work_left = drone.next_unvisited() is not None
                entry_id = self.vdr.store(
                    name, drone.definition, self.base_image_tag, diff,
                    resumable=has_work_left,
                    completed_waypoints=frozenset(drone.completed),
                )
                stored[name] = entry_id
                obs.event("vdc.saved_to_vdr", tenant=name, entry=entry_id,
                          resumable=has_work_left)
        return stored
