"""Mission execution: the Figure 4 workflow in code.

The :class:`MissionRunner` is the autonomous pilot half of the flight
planner: it flies the physical drone along a :class:`FlightPlan`,
notifies the VDC at waypoint boundaries, waits for tenants to complete
(or exhausts their window), returns the drone to base, and triggers the
end-of-flight offload (VDR save, cloud-storage upload, portal
notifications, invoices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cloud.planner.flight_plan import FlightPlan
from repro.flight.geo import GeoPoint
from repro.mavlink.enums import CopterMode, MavCommand
from repro.mavlink.messages import CommandLong
from repro.sim import Process, Timeout

#: Cruise altitude of every flight, metres above home.
CRUISE_ALT_M = 15.0
#: Horizontal distance at which the drone has reached a waypoint.
WAYPOINT_ACCEPT_M = 3.5
#: Longest flight toward one waypoint; the return to base gets twice it.
NAV_TIMEOUT_S = 240.0


class MissionError(RuntimeError):
    """The mission could not proceed (arming failure, nav timeout, ...)."""


@dataclass
class MissionEvent:
    time_s: float
    text: str


@dataclass
class MissionReport:
    """What happened on one flight."""

    events: List[MissionEvent] = field(default_factory=list)
    waypoints_serviced: int = 0
    tenants_completed: List[str] = field(default_factory=list)
    tenants_interrupted: List[str] = field(default_factory=list)
    vdr_entries: Dict[str, str] = field(default_factory=dict)
    energy_by_account: Dict[str, float] = field(default_factory=dict)
    duration_s: float = 0.0
    returned_home: bool = False

    def log(self, time_us: int, text: str) -> None:
        self.events.append(MissionEvent(time_us / 1e6, text))

    def merge(self, other: "MissionReport") -> None:
        """Fold a later flight's report into this one (multi-flight days)."""
        self.events.extend(other.events)
        self.waypoints_serviced += other.waypoints_serviced
        self.tenants_completed.extend(other.tenants_completed)
        self.tenants_interrupted.extend(other.tenants_interrupted)
        self.vdr_entries.update(other.vdr_entries)
        self.energy_by_account = other.energy_by_account
        self.duration_s += other.duration_s
        self.returned_home = other.returned_home


class MissionRunner:
    """Flies one FlightPlan on one DroneNode."""

    def __init__(self, node, plan: FlightPlan, portal=None,
                 order_ids: Optional[Dict[str, int]] = None,
                 abort_check: Optional[Callable[[], Optional[str]]] = None):
        """``abort_check`` is polled between waypoints; returning a reason
        string aborts the flight: remaining tenants are force-finished
        (resumable) and the drone returns to base — the weather flow of
        Section 2."""
        self.node = node
        self.plan = plan
        self.portal = portal
        self.order_ids = order_ids or {}
        self.abort_check = abort_check
        self.report = MissionReport()
        self._done_waypoints: List[str] = []

    # -- helpers ---------------------------------------------------------------------
    def _master(self, command: MavCommand, **params):
        return self.node.proxy.master_command(
            CommandLong(command=int(command), **params))

    def _wait_steps(self, predicate: Callable[[], bool], timeout_s: float):
        """Generator: poll ``predicate`` every 250 ms of sim time.

        The final ``yield`` communicates the result through the mission
        generator's local variable pattern: callers inspect
        ``predicate()`` after iteration.
        """
        sim = self.node.sim
        deadline = sim.now + int(timeout_s * 1e6)
        while sim.now < deadline and not predicate():
            yield Timeout(250_000)

    def _fly_to_steps(self, point: GeoPoint):
        autopilot = self.node.sitl.autopilot
        self.node.proxy.master_set_mode(CopterMode.GUIDED)
        self._master(MavCommand.NAV_WAYPOINT, param5=point.latitude,
                     param6=point.longitude, param7=point.altitude_m)

        def arrived():
            return (autopilot.position().horizontal_distance_to(point)
                    <= WAYPOINT_ACCEPT_M)

        for step in self._wait_steps(arrived, NAV_TIMEOUT_S):
            yield step
        if not arrived():
            raise MissionError(
                f"navigation timeout toward {point.latitude:.6f},"
                f"{point.longitude:.6f}")

    # -- the flight ------------------------------------------------------------------------
    def execute(self) -> MissionReport:
        """Run the mission to completion, driving the simulator."""
        Process(self.node.sim, self.steps(),
                name=f"mission-{self.plan.flight_id}").join()
        return self.report

    def steps(self):
        """The mission as a plain generator, for a simulation process (a
        fleet drone chaining flights while other drones fly concurrently
        on the shared clock)."""
        node, sim, report = self.node, self.node.sim, self.report
        start_us = sim.now
        vdc = node.vdc
        vdc.on_waypoint_done = self._done_waypoints.append
        # The notices, an abort and the offload cover this flight's
        # tenants only; a later flight of the day carries the rest.
        tenants = self.plan.tenants()

        # Portal: flight started, hand out access info.
        if self.portal is not None:
            for tenant, order_id in self.order_ids.items():
                if tenant in tenants:
                    self.portal.flight_started(order_id, ip="203.0.113.7",
                                               port=5000 + order_id)

        report.log(sim.now, "takeoff")
        self.node.proxy.master_set_mode(CopterMode.GUIDED)
        result = self._master(MavCommand.COMPONENT_ARM_DISARM, param1=1.0)
        if int(result) != 0:
            raise MissionError(f"arming denied: {result}")
        self._master(MavCommand.NAV_TAKEOFF, param7=CRUISE_ALT_M)

        def at_altitude():
            return (node.sitl.autopilot.position_est.position[2]
                    > CRUISE_ALT_M - 1.5)

        yield from self._wait_steps(at_altitude, 60.0)
        if not at_altitude():
            raise MissionError("takeoff did not reach cruise altitude")

        aborted_reason = None
        for stop in self.plan.stops:
            if self.abort_check is not None:
                aborted_reason = self.abort_check()
                if aborted_reason is not None:
                    report.log(sim.now, f"flight aborted: {aborted_reason}")
                    for name, vdrone in vdc.drones.items():
                        if name in tenants and not vdrone.finished:
                            vdc.force_finish(name, aborted_reason)
                    break
            tenant = stop.tenant
            drone = vdc.drones.get(tenant)
            if drone is None or drone.finished:
                continue
            if stop.waypoint_index in drone.completed:
                continue   # serviced on a previous flight (resume)
            report.log(sim.now, f"enroute to {tenant}#{stop.waypoint_index}")
            drone.vfc.waypoint = stop.location
            drone.vfc.begin_approach()
            yield from self._fly_to_steps(stop.location)
            report.log(sim.now, f"waypoint reached: {tenant}#{stop.waypoint_index}")
            vdc.waypoint_reached(tenant, stop.waypoint_index)
            # The tenant now operates; wait for it to complete (the SDK's
            # waypointCompleted) or for the VDC to force-finish it.
            window_s = min(vdc.time_left(tenant) + 10.0, 600.0)
            yield from self._wait_steps(
                lambda: tenant in self._done_waypoints, window_s)
            if tenant not in self._done_waypoints:
                vdc.force_finish(tenant, "operating window exhausted")
            self._done_waypoints.clear()
            report.waypoints_serviced += 1
            # Re-assert planner control for the transit leg.
            self.node.proxy.master_set_mode(CopterMode.GUIDED)

        report.log(sim.now, "return to base")
        self._master(MavCommand.NAV_RETURN_TO_LAUNCH)

        def landed():
            return (not node.sitl.autopilot.armed
                    and node.sitl.physics.position[2] < 0.5)

        yield from self._wait_steps(landed, NAV_TIMEOUT_S * 2)
        report.returned_home = landed()
        report.log(sim.now, "landed" if report.returned_home else "RTL timeout")

        # Offload: VDR save, file upload, portal notifications.
        flown = [name for name in vdc.drones if name in tenants]
        report.vdr_entries = vdc.save_to_vdr(flown)
        for tenant in flown:
            drone = vdc.drones[tenant]
            interrupted = drone.force_finished_reason is not None
            (report.tenants_interrupted if interrupted
             else report.tenants_completed).append(tenant)
            order_id = self.order_ids.get(tenant)
            if self.portal is not None and order_id is not None:
                links = []
                if vdc.cloud_storage is not None:
                    links = [vdc.cloud_storage.link_for(tenant, p)
                             for p in vdc.cloud_storage.list_files(tenant)]
                self.portal.flight_completed(order_id, links,
                                             interrupted=interrupted)
        report.energy_by_account = node.battery.accounts()
        report.duration_s = (sim.now - start_us) / 1e6
        return report
