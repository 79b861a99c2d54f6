"""FleetHarness: drive a :class:`FleetScenario` through the real stack.

One shared :class:`~repro.sim.Simulator` hosts F physical drones flying
*concurrently* (``AnDroneSystem.fly`` in one process per drone), each
multiplexing T virtual drones ordered at the portal and brought up by
the same ``plan_orders`` / ``start_tenant`` steps as
``AnDroneSystem.fly_orders``.  Every tenant gets a VFC server and a
ground station on one shared network, fed by its drone's MavProxy
telemetry rounds, so MAVLink telemetry and camera frames cross real
(simulated) links.  A chaos level overlays a deterministic per-drone
:class:`~repro.faults.FaultPlan`, and an
:class:`~repro.loadgen.invariants.InvariantMonitor` sweeps the whole
fleet throughout.

Everything runs on the sim clock from the scenario's seed: the same
scenario produces byte-identical telemetry traces, run after run (the
golden-trace regression test holds the repo to that).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.obs as obs
from repro.cloud.admission import AdmissionController
from repro.cloud.planner import FlightPlanner
from repro.cloud.portal import Order, PortalBusyError
from repro.core import AnDroneSystem
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.flight.geo import offset_geopoint
from repro.loadgen import abuse, workloads
from repro.loadgen.invariants import (
    InvariantMonitor,
    Violation,
    assert_no_violations,
)
from repro.loadgen.scenario import FleetScenario, WORKLOADS
from repro.mavproxy.server import GroundStation, VfcServer
from repro.net.link import wifi
from repro.net.network import Network
from repro.sdk.frontend import AppFrontendChannel
from repro.security.fabric import SecurityFabric
from repro.sim import Process

#: Workload display names for the app store.
_APP_TITLES = {
    "survey": ("Fleet Surveyor", "waypoint survey photography"),
    "storm": ("Device Stormer", "device-service call storms"),
    "camera-feed": ("Feed Relay", "continuous camera feed to the user"),
}


@dataclass
class TenantStats:
    """What one virtual drone did during the soak."""

    tenant: str
    drone: int
    workload: str
    #: False when the order never got past the portal (an order storm
    #: exhausted the admission queue) — the tenant then never existed.
    admitted: bool = True
    completed: bool = False
    interrupted: bool = False
    waypoints_completed: int = 0
    time_used_s: float = 0.0
    energy_used_j: float = 0.0
    files_delivered: int = 0
    heartbeats: int = 0
    positions: int = 0
    frames: int = 0
    frame_latency_p95_us: Optional[float] = None

    def to_dict(self) -> Dict:
        return dict(self.__dict__)


@dataclass
class FleetResult:
    """The outcome of one :meth:`FleetHarness.run`."""

    scenario: FleetScenario
    duration_s: float
    waypoints_serviced: int
    tenants: Dict[str, TenantStats]
    violations: List[Violation]
    invariant_checks: int
    restarts: int
    faults_injected: int
    #: outcome of the bogus-order burst, when the scenario staged one.
    order_storm: Optional[Dict] = None
    #: hardening-layer summary, when the scenario enabled security.
    security: Optional[Dict] = None
    #: spoofed/replayed frames the network attackers injected.
    attack_injected: int = 0

    @property
    def completed(self) -> List[str]:
        return sorted(t for t, s in self.tenants.items() if s.completed)

    @property
    def interrupted(self) -> List[str]:
        return sorted(t for t, s in self.tenants.items() if s.interrupted)

    @property
    def honest(self) -> Dict[str, TenantStats]:
        """The tenants running real workloads (attack roles excluded)."""
        return {t: s for t, s in self.tenants.items()
                if s.workload in WORKLOADS}

    @property
    def honest_completed(self) -> List[str]:
        return sorted(t for t, s in self.honest.items() if s.completed)

    @property
    def honest_degraded(self) -> List[str]:
        """Honest tenants the adversary actually hurt: refused at the
        portal, interrupted mid-task, or simply never done."""
        return sorted(t for t, s in self.honest.items() if not s.completed)

    def assert_clean(self) -> None:
        assert_no_violations(self.violations)

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario.to_dict(),
            "duration_s": round(self.duration_s, 3),
            "waypoints_serviced": self.waypoints_serviced,
            "tenants_completed": len(self.completed),
            "tenants_interrupted": len(self.interrupted),
            "tenants": {name: stats.to_dict()
                        for name, stats in sorted(self.tenants.items())},
            "violations": [str(v) for v in self.violations],
            "invariant_checks": self.invariant_checks,
            "restarts": self.restarts,
            "faults_injected": self.faults_injected,
            "order_storm": self.order_storm,
            "security": self.security,
            "attack_injected": self.attack_injected,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class _DroneSlot:
    """One physical drone's share of the fleet."""

    index: int
    node: object
    orders: List[Order] = field(default_factory=list)
    tenants: List[str] = field(default_factory=list)
    plans: List = field(default_factory=list)
    #: runs ``FleetHarness._fly``; its result is the merged flight report.
    process: Optional[Process] = None
    #: per-tenant telemetry counts frozen the instant the drone's last
    #: flight completes and ``AnDroneSystem.fly`` has powered it down
    #: (see FleetHarness._finalize_slot).
    final_counts: Optional[Dict[str, Dict]] = None


class FleetHarness:
    """Build and run one fleet scenario end to end.

    Every drone is built with identities — node seed, order ids,
    planner RNG stream, chaos plan — derived from its index in the
    scenario, so running the same scenario again, in the same process
    or a fresh one, builds the same fleet and replays the same run.
    """

    def __init__(self, scenario: FleetScenario):
        self.scenario = scenario
        self.system = AnDroneSystem(seed=scenario.seed)
        self.system.portal.admission = AdmissionController(
            max_pending=max(16, 2 * scenario.total_tenants))
        self.network = Network(self.system.sim, self.system.rng)
        self.monitor = InvariantMonitor(self.system.sim)
        self.slots: List[_DroneSlot] = []
        self.servers: Dict[str, VfcServer] = {}
        self.stations: Dict[str, GroundStation] = {}
        self.injectors: List[FaultInjector] = []
        self.tenant_workload: Dict[str, str] = {}
        self.tenant_drone: Dict[str, int] = {}
        self._channels: Dict[str, AppFrontendChannel] = {}
        self._frame_counts: Dict[str, int] = {}
        self._frame_latency: Dict[str, List[int]] = {}
        # -- adversarial overlay (all None/empty unless the scenario asks) --
        self.fabric: Optional[SecurityFabric] = None
        if scenario.security_enabled:
            self.fabric = SecurityFabric(self.system.sim, seed=scenario.seed)
            self.fabric.protect_admission(self.system.portal.admission)
            self.monitor.watch_security(self.fabric)
        self.spammers: List[abuse.MavlinkSpammer] = []
        self.order_storm_report = None
        self._refused: List[TenantStats] = []
        self._publish_apps()
        for package, installer in workloads.build_installers(
                scenario, self._attach_frontend).items():
            self.system.register_app_behavior(package, installer)
        if "binder-flood" in scenario.attack_mix:
            self.system.register_app_behavior(
                abuse.FLOOD_PACKAGE, abuse.flood_installer(scenario))
        if "order-storm" in scenario.attack_mix:
            # Fired before any honest user orders — worst case for the
            # bounded admission queue.
            self.order_storm_report = abuse.run_order_storm(
                self.system.portal, scenario)
        for drone_index in range(scenario.drones):
            self.slots.append(self._build_drone(drone_index))

    # -- construction -----------------------------------------------------------
    def _publish_apps(self) -> None:
        for workload in workloads.PACKAGES:
            title, blurb = _APP_TITLES[workload]
            android_xml, androne_xml = workloads.manifests_for(workload)
            self.system.app_store.publish(title, blurb, android_xml,
                                          androne_xml)
        if "binder-flood" in self.scenario.attack_mix:
            title, blurb = abuse.FLOOD_TITLE
            android_xml, androne_xml = abuse.flood_manifests()
            self.system.app_store.publish(title, blurb, android_xml,
                                          androne_xml)

    def _waypoint(self, east: float, north: float) -> Dict[str, float]:
        point = offset_geopoint(self.system.home, east, north)
        return {
            "latitude": point.latitude,
            "longitude": point.longitude,
            "altitude": 15,
            "max-radius": self.scenario.geofence_radius_m,
        }

    def _waypoints_for(self, tenant_index: int) -> List[Dict[str, float]]:
        """Each tenant gets its own column of waypoints east of home, so
        clusters never overlap and the planner tours them deterministically."""
        spacing = self.scenario.waypoint_spacing_m
        return [self._waypoint((tenant_index + 1) * spacing, (w + 1) * spacing)
                for w in range(self.scenario.waypoints_per_tenant)]

    def _attack_waypoints_for(self, drone_index: int,
                              attacker_index: int) -> List[Dict[str, float]]:
        """Flood tenants get a single waypoint in a column *west* of
        home, clear of every honest tenant's cluster."""
        scenario = self.scenario
        east = -(drone_index * scenario.attackers_per_drone
                 + attacker_index + 1) * scenario.waypoint_spacing_m
        return [self._waypoint(east, scenario.waypoint_spacing_m)]

    def _order(self, slot: _DroneSlot, user: str, workload: str,
               waypoints: List[Dict[str, float]], package: str,
               max_duration_s: float) -> Optional[Order]:
        """Order one tenant onto ``slot`` at the portal; None when the
        admission queue is full."""
        scenario = self.scenario
        try:
            order = self.system.portal.order_virtual_drone(
                user=user,
                waypoints=waypoints,
                drone_type=scenario.drone_type,
                apps=[package],
                max_charge=scenario.max_charge,
                max_duration_s=max_duration_s,
                geofence_radius_m=scenario.geofence_radius_m,
            )
        except PortalBusyError:
            return None
        slot.orders.append(order)
        tenant = order.definition.name
        slot.tenants.append(tenant)
        self.tenant_workload[tenant] = workload
        self.tenant_drone[tenant] = slot.index
        return order

    def _build_drone(self, drone_index: int) -> _DroneSlot:
        scenario = self.scenario
        system = self.system
        # Every per-drone identity is derived from the drone index, never
        # from how many ids or draws earlier work consumed, so a repeat
        # run of the scenario builds each drone bit-identically:
        # - order ids are the drone's partition of the fleet sequence
        #   (an order storm consumes ids before the honest orders),
        # - the node seed is index-based,
        # - planning draws from a per-drone RNG stream.
        system.portal.seek_order_ids(
            drone_index * scenario.tenants_per_drone + 1)
        node = system.add_drone(seed=drone_index + 1,
                                drone_type=scenario.drone_type,
                                sitl_rate_hz=scenario.sitl_rate_hz)
        if scenario.chaos_level >= 2:
            node.vdc.enable_supervision()
        if self.fabric is not None:
            self.fabric.protect_node(node)
        slot = _DroneSlot(index=drone_index, node=node)

        for t in range(scenario.tenants_per_drone):
            tenant_index = drone_index * scenario.tenants_per_drone + t
            workload = scenario.workload_for(tenant_index)
            user = f"user{drone_index}-{t}"
            if self._order(slot, user, workload,
                           self._waypoints_for(tenant_index),
                           workloads.PACKAGES[workload],
                           scenario.max_duration_s) is None:
                # An order storm exhausted the admission queue before
                # this honest user got in: real, measurable harm.
                obs.event("abuse.order_refused", user=user,
                          workload=workload)
                self._refused.append(TenantStats(
                    tenant=user, drone=drone_index, workload=workload,
                    admitted=False))

        if "binder-flood" in scenario.attack_mix:
            # The adversarial tenants order through the front door like
            # anyone else, in a parked id partition so honest tenant
            # names stay identical with or without the attack.  An order
            # refused because the attacker's own order storm filled the
            # queue is self-inflicted, and simply skipped.
            system.portal.seek_order_ids(
                10_000 + drone_index * scenario.attackers_per_drone + 1)
            for a in range(scenario.attackers_per_drone):
                self._order(slot, f"mallory{drone_index}-{a}",
                            "binder-flood",
                            self._attack_waypoints_for(drone_index, a),
                            abuse.FLOOD_PACKAGE, scenario.attack_duration_s)

        planner = FlightPlanner(
            system.home, system.planner.model,
            fleet_size=system.planner.fleet_size,
            cruise_ms=system.planner.cruise_ms,
            rng=system.rng.stream(f"planner.sa.drone{drone_index}"))
        slot.plans = system.plan_orders(slot.orders, node, planner=planner)
        for order in slot.orders:
            tenant = order.definition.name
            vdrone = system.start_tenant(order, node)
            session = self.fabric.session_for(tenant) \
                if self.fabric is not None else None
            server = VfcServer(vdrone.vfc, self.network,
                               f"vfc:{tenant}:5760", f"gcs:{tenant}:14550",
                               link=wifi(),
                               session=session.endpoint_for("vfc")
                               if session is not None else None)
            self.servers[tenant] = server
            self.stations[tenant] = GroundStation(
                system.sim, self.network, f"gcs:{tenant}:14550",
                f"vfc:{tenant}:5760", link=wifi(),
                session=session.endpoint_for("gcs")
                if session is not None else None)
        node.proxy.start_telemetry()

        # Network-level attackers pick the drone's first honest tenant.
        victims = [t for t in slot.tenants
                   if self.tenant_workload[t] in WORKLOADS]
        if victims:
            modes = []
            if "mavlink-spam" in scenario.attack_mix:
                modes.append("spam")
            if "replay" in scenario.attack_mix:
                modes.append("replay")
            for mode in modes:
                self.spammers.append(abuse.MavlinkSpammer(
                    system.sim, self.network, victims[0], mode=mode,
                    rate_hz=scenario.attack_rate_hz,
                    start_s=scenario.attack_start_s))

        if scenario.chaos_level > 0:
            plan = self._chaos_plan(drone_index, slot.tenants)
            injector = FaultInjector(system.sim, plan).attach_node(node)
            first = slot.tenants[0]
            injector.bind_link("gcs", self.servers[first].connection.link)
            self.injectors.append(injector)

        node.boot()
        self.monitor.watch(f"drone{drone_index}", node)
        return slot

    def _attach_frontend(self, vdrone, package: str) -> AppFrontendChannel:
        """One cached front-end channel per tenant (a checkpoint-restored
        app instance reuses the surviving tunnel), with a harness-side
        sink measuring frame delivery latency on the sim clock."""
        tenant = vdrone.name
        channel = self._channels.get(tenant)
        if channel is not None:
            return channel
        channel = AppFrontendChannel(self.network, tenant, package,
                                     user_address=f"user:{tenant}:9000",
                                     link=wifi())
        sim = self.system.sim
        self._frame_counts[tenant] = 0
        self._frame_latency[tenant] = []

        def sink(payload: str, source: str) -> None:
            message = json.loads(payload)
            if message.get("type") != "frame":
                return
            latency_us = sim.now - message["data"]["t_us"]
            self._frame_counts[tenant] += 1
            self._frame_latency[tenant].append(latency_us)
            obs.histogram("loadgen.frame_latency_us", unit="us",
                          tenant=tenant).observe(latency_us)

        channel.tunnel.on_remote_receive(sink)
        self._channels[tenant] = channel
        return channel

    def _chaos_plan(self, drone_index: int, tenants: List[str]) -> FaultPlan:
        """A deterministic per-drone gauntlet, staggered so fleet drones
        don't all fault in lockstep."""
        scenario = self.scenario
        plan = FaultPlan(seed=scenario.seed * 1000 + drone_index)
        base = 5.0 + 3.0 * drone_index
        plan.add(FaultKind.LINK_LATENCY, target="gcs", at_s=base,
                 duration_s=3.0, params={"factor": 6.0})
        plan.add(FaultKind.SENSOR_DROPOUT, target="gps", at_s=base + 3.0,
                 duration_s=2.0)
        plan.add(FaultKind.BINDER_FAILURE, at_s=base + 17.0, duration_s=2.0,
                 params={"rate": 0.3})
        plan.add(FaultKind.SERVICE_ERROR, target="CameraService",
                 at_s=base + 21.0, duration_s=2.0)
        plan.add(FaultKind.LINK_LOSS, target=tenants[0], at_s=base + 25.0,
                 duration_s=3.0)
        if scenario.chaos_level >= 2:
            # Crash the *last*-toured tenant so the crash lands while its
            # work is still ahead of it and supervision must restart it.
            plan.add(FaultKind.CONTAINER_CRASH, target=tenants[-1],
                     at_s=base + 35.0)
            plan.add(FaultKind.VDC_RESTART, at_s=base + 41.0,
                     params={"downtime_s": 1.0})
        return plan

    # -- execution --------------------------------------------------------------
    def run(self) -> FleetResult:
        sim = self.system.sim
        for injector in self.injectors:
            injector.start()
        if self.fabric is not None:
            self.fabric.start()
        for spammer in self.spammers:
            spammer.start()
        self.monitor.start()
        for slot in self.slots:
            slot.process = Process(sim, self._fly(slot),
                                   name=f"fleet-drone{slot.index}")
        sim.run()
        # Only a heap that drained before every drone landed gets here
        # with a slot still open.
        for slot in self.slots:
            self._finalize_slot(slot)
        self.monitor.stop()
        for spammer in self.spammers:
            spammer.stop()
        if self.fabric is not None:
            self.fabric.stop()
        return self._collect()

    def _fly(self, slot: _DroneSlot):
        """One drone's process: fly its plans, freeze its counts, and end
        the run once the last drone has landed, as the city harness ends
        at its last settled order."""
        report = yield from self.system.fly(slot.node, slot.plans,
                                            slot.orders)
        self._finalize_slot(slot)
        if all(other.final_counts is not None for other in self.slots):
            self.system.sim.clear()
        return report

    def _finalize_slot(self, slot: _DroneSlot) -> None:
        """Freeze one drone's per-tenant counts the instant its last
        flight completes.

        ``AnDroneSystem.fly`` has just powered the drone down (telemetry
        rounds included); the station/frame counts are snapshotted
        before any later-queued event can touch them, so a drone's stats
        do not depend on how long the rest of the fleet keeps flying."""
        if slot.final_counts is not None:
            return
        counts: Dict[str, Dict] = {}
        for tenant in slot.tenants:
            station = self.stations[tenant]
            counts[tenant] = {
                "heartbeats": len(station.heartbeats),
                "positions": len(station.positions),
                "frames": self._frame_counts.get(tenant, 0),
                "latencies": list(self._frame_latency.get(tenant, [])),
            }
        slot.final_counts = counts

    # -- results ----------------------------------------------------------------
    def _collect(self) -> FleetResult:
        from repro.obs.metrics import percentile

        waypoints = 0
        duration = 0.0
        restarts = 0
        faults = 0
        tenants: Dict[str, TenantStats] = {}
        for slot in self.slots:
            node = slot.node
            report = slot.process.result
            restarts += sum(node.vdc.restart_counts.values())
            waypoints += report.waypoints_serviced
            duration = max(duration, report.duration_s)
            for tenant in slot.tenants:
                drone = node.vdc.drones[tenant]
                counts = slot.final_counts[tenant]
                latencies = counts["latencies"]
                completed = tenant in report.tenants_completed
                interrupted = drone.force_finished_reason is not None
                tenants[tenant] = TenantStats(
                    tenant=tenant,
                    drone=slot.index,
                    workload=self.tenant_workload[tenant],
                    completed=completed and not interrupted,
                    interrupted=interrupted,
                    waypoints_completed=len(drone.completed),
                    time_used_s=round(node.vdc.time_used(tenant), 3),
                    energy_used_j=round(node.vdc.energy_used(tenant), 3),
                    files_delivered=len(
                        self.system.storage.list_files(tenant)),
                    heartbeats=counts["heartbeats"],
                    positions=counts["positions"],
                    frames=counts["frames"],
                    frame_latency_p95_us=(percentile(sorted(latencies), 95.0)
                                          if latencies else None),
                )
        for injector in self.injectors:
            faults += sum(1 for entry in injector.log
                          if entry["action"] == "inject")
        for stats in self._refused:
            tenants[stats.tenant] = stats
        security = None
        if self.fabric is not None:
            detector = self.fabric.detector
            channel_rejected = sum(
                server.connection.rejected
                for server in self.servers.values())
            channel_rejected += sum(
                station.connection.rejected
                for station in self.stations.values())
            security = {
                "flags_raised": detector.flags_raised,
                "flags_cleared": detector.flags_cleared,
                "demotions": sum(s.demotions for s in self.fabric.simplexes),
                "restorations": sum(s.restorations
                                    for s in self.fabric.simplexes),
                "channel_rejected": channel_rejected,
                "guards": self.fabric.guard_snapshots(),
            }
        return FleetResult(
            scenario=self.scenario,
            duration_s=duration,
            waypoints_serviced=waypoints,
            tenants=tenants,
            violations=list(self.monitor.violations),
            invariant_checks=self.monitor.checks,
            restarts=restarts,
            faults_injected=faults,
            order_storm=(self.order_storm_report.to_dict()
                         if self.order_storm_report is not None else None),
            security=security,
            attack_injected=sum(s.sent for s in self.spammers),
        )


def run_scenario(scenario: FleetScenario) -> FleetResult:
    """Convenience one-shot: build a harness, run it, return the result."""
    return FleetHarness(scenario).run()
