"""MavProxy: the multiplexer between clients and the flight controller.

Holds the single real flight-controller connection (a
:class:`~repro.flight.sitl.SitlDrone` or the flight container's onboard
controller), a full-access **master** interface for the cloud flight
planner and service provider, and a :class:`VirtualFlightController` per
virtual drone.  It also runs the telemetry rounds that stream every
VFC's virtualized heartbeat and position to its tenant's
:class:`~repro.mavproxy.server.VfcServer`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import repro.obs as obs
from repro.flight.geo import GeoPoint
from repro.flight.geofence import Geofence
from repro.mavlink.enums import CopterMode, MavCommand, MavResult
from repro.mavlink.messages import (
    CommandLong,
    GlobalPositionInt,
    Heartbeat,
    ManualControl,
    SetPositionTarget,
)
from repro.mavproxy.vfc import VirtualFlightController
from repro.mavproxy.whitelist import RestrictionTemplate, TEMPLATES
from repro.sim import Periodic

#: Telemetry periods of the rounds every tenant's VfcServer receives.
HEARTBEAT_PERIOD_US = 1_000_000
POSITION_PERIOD_US = 250_000
#: Distance from the recovery point at which geofence recovery ends.
RECOVERY_ACCEPT_M = 4.0


class MavProxy:
    """The modified MAVProxy instance in the flight container."""

    def __init__(self, sim, drone):
        """``drone`` is anything with ``handle_mavlink`` and an
        ``autopilot`` (SitlDrone, or the onboard flight controller)."""
        self.sim = sim
        self.drone = drone
        self.vfcs: Dict[str, VirtualFlightController] = {}
        self.master_commands = 0
        #: abuse hardening: an optional per-tenant
        #: :class:`~repro.security.guards.RateGuard` every VFC consults
        #: (keyed by its container) before processing a tenant message.
        #: None in production — one is-None check when disabled.
        self.rate_guard = None
        #: the VfcServers streaming this proxy's telemetry rounds, in
        #: registration order (each server registers itself).
        self.servers: List = []
        self._heartbeats = Periodic(sim, HEARTBEAT_PERIOD_US,
                                    self._heartbeat_round)
        self._positions = Periodic(sim, POSITION_PERIOD_US,
                                   self._position_round)

    @property
    def home(self) -> GeoPoint:
        return self.drone.autopilot.home

    # -- client management -----------------------------------------------------------
    def create_vfc(
        self,
        container: str,
        template: RestrictionTemplate = None,
        waypoint: Optional[GeoPoint] = None,
        continuous_view: bool = False,
    ) -> VirtualFlightController:
        if container in self.vfcs:
            raise ValueError(f"container {container!r} already has a VFC")
        vfc = VirtualFlightController(
            self, container,
            template or TEMPLATES["guided-only"],
            waypoint=waypoint,
            continuous_view=continuous_view,
        )
        self.vfcs[container] = vfc
        obs.event("mavproxy.vfc_created", vfc=container,
                  template=vfc.template.name,
                  continuous_view=continuous_view)
        return vfc

    # -- master (flight planner) interface: unrestricted -------------------------------
    def master_command(self, cmd: CommandLong) -> MavResult:
        self.master_commands += 1
        obs.counter("mavproxy.commands", source="master", kind="command").inc()
        ack = self.drone.handle_mavlink(cmd)
        return MavResult(ack.result) if ack is not None else MavResult.FAILED

    def master_set_mode(self, mode: CopterMode) -> MavResult:
        return self.drone.autopilot.set_mode(mode)

    # -- flight-controller access used by VFCs -------------------------------------------
    def fc_command(self, cmd: CommandLong) -> MavResult:
        ack = self.drone.handle_mavlink(cmd)
        return MavResult(ack.result) if ack is not None else MavResult.FAILED

    def fc_position_target(self, msg: SetPositionTarget) -> None:
        self.drone.handle_mavlink(msg)

    def fc_manual_control(self, msg: ManualControl, vfc) -> None:
        """Map gamepad sticks to guided velocity, the closest analog our
        autopilot supports (full-rate manual modes need RC hardware)."""
        autopilot = self.drone.autopilot
        if autopilot.mode is not CopterMode.GUIDED:
            autopilot.set_mode(CopterMode.GUIDED)
        # MAVLink manual_control: x/y/z/r in [-1000, 1000], z throttle
        # [0, 1000] with 500 = hover.
        max_speed = 5.0
        vn = msg.x / 1000.0 * max_speed
        ve = msg.y / 1000.0 * max_speed
        vu = (msg.z - 500) / 500.0 * 2.0
        autopilot.velocity_target = (ve, vn, vu)
        if msg.r:
            autopilot.target_yaw = (autopilot.attitude_est.yaw
                                    + msg.r / 1000.0 * 0.5)

    def fc_heartbeat(self) -> Heartbeat:
        return self.drone.autopilot.make_heartbeat()

    def fc_global_position(self) -> GlobalPositionInt:
        return self.drone.autopilot.make_global_position()

    def fc_position(self) -> GeoPoint:
        return self.drone.autopilot.position()

    def fc_set_mode(self, mode: CopterMode) -> None:
        self.drone.autopilot.set_mode(mode)

    def fc_set_geofence(self, fence: Geofence, on_breach: Callable) -> None:
        self.drone.autopilot.set_geofence(fence, enabled=True)
        self.drone.autopilot.on_breach = on_breach

    def fc_clear_geofence(self) -> None:
        self.drone.autopilot.set_geofence(None, enabled=False)
        self.drone.autopilot.on_breach = None

    def fc_recover_to(self, point: GeoPoint, on_recovered: Callable) -> None:
        """Guide the vehicle to within ``RECOVERY_ACCEPT_M`` of ``point``
        (geofence recovery), then call back.  Temporarily takes the vehicle into GUIDED under proxy
        control; tenant commands are declined meanwhile."""
        autopilot = self.drone.autopilot
        autopilot.set_mode(CopterMode.GUIDED)
        autopilot.handle_command(CommandLong(
            command=int(MavCommand.NAV_WAYPOINT),
            param5=point.latitude, param6=point.longitude,
            param7=point.altitude_m,
        ))

        def poll():
            if autopilot.position().horizontal_distance_to(point) <= RECOVERY_ACCEPT_M:
                polls.stop()
                on_recovered()

        polls = Periodic(self.sim, 250_000, poll)
        polls.start(delay=250_000)

    # -- telemetry rounds ---------------------------------------------------------------
    def start_telemetry(self) -> None:
        """Stream telemetry to every registered server: a heartbeat round
        at 1 Hz and a position round at 4 Hz, the first of each right now.

        Each round is one simulator event that emits every server's
        frame in registration order, so adding tenants adds no timers.
        """
        self._heartbeats.start()
        self._positions.start()

    def stop_telemetry(self) -> None:
        """No round emits after this; the pending ones fire once and end."""
        self._heartbeats.stop()
        self._positions.stop()

    def _heartbeat_round(self) -> None:
        for server in self.servers:
            server.emit_heartbeat()

    def _position_round(self) -> None:
        for server in self.servers:
            server.emit_position()
