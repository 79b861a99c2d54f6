"""Software-in-the-loop (SITL) flight simulation.

Couples an :class:`~repro.flight.autopilot.Autopilot` to
:class:`~repro.flight.physics.QuadcopterPhysics` on the shared simulator
clock, the role ArduPilot's SITL plays in Section 6.6.  An optional
``jitter_provider`` injects extra per-tick delay — wire it to kernel
wakeup-latency samples to couple scheduling behaviour into control timing
(the Section 6.2 stability experiment).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.flight.autopilot import Autopilot, DirectSensors
from repro.flight.geo import GeoPoint
from repro.flight.logs import FlightLog
from repro.flight.physics import PARAMS, QuadcopterPhysics
from repro.mavlink.enums import CopterMode, MavCommand, MavResult
from repro.mavlink.messages import CommandAck, CommandLong, MavlinkMessage, SetPositionTarget
from repro.sim import Periodic, RngRegistry, Simulator

#: Sim-time interval between :meth:`SitlDrone.run_until` predicate checks.
POLL_S = 0.25


class SitlDrone:
    """A simulated vehicle: physics + sensors + autopilot, self-ticking."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        home: Optional[GeoPoint] = None,
        rate_hz: float = 400.0,
        jitter_provider: Optional[Callable[[], float]] = None,
        log: Optional[FlightLog] = None,
        sensors=None,
    ):
        """``sensors``, if given, is the autopilot's sensors frontend
        (e.g. the flight container's HAL bridge); the default owns its
        devices directly."""
        self.sim = sim
        self.rate_hz = rate_hz
        self.period_us = 1e6 / rate_hz
        self.jitter_provider = jitter_provider
        self.physics = QuadcopterPhysics(
            home=home or GeoPoint(43.6084298, -85.8110359, 0.0),
            rng=rng.stream("physics.gusts"),
        )
        if sensors is None:
            sensors = DirectSensors(self.physics, rng.stream("sensors"))
        self.log = log
        self.autopilot = Autopilot(
            sensors,
            home=self.physics.home,
            hover_throttle=PARAMS.hover_throttle(),
            log=log,
            truth_provider=self.physics.snapshot,
        )
        self._last_tick_us: Optional[int] = None
        #: the flight loop; start() sets its period.
        self._loop = Periodic(sim, 0, self._tick)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        if self._loop.running:
            return
        self._last_tick_us = self.sim.now
        # A fixed period costs no call per tick; jitter is drawn after
        # each tick's control step.
        self._loop.period = (self._jittered_period
                             if self.jitter_provider is not None
                             else max(1, int(round(self.period_us))))
        self._loop.start(delay=0)

    def stop(self) -> None:
        self._loop.stop()

    def _jittered_period(self) -> int:
        return max(1, int(round(
            self.period_us + max(0.0, self.jitter_provider()))))

    def _tick(self) -> None:
        now = self.sim.now
        dt_s = max(1e-4, (now - self._last_tick_us) / 1e6) if self._last_tick_us is not None else 1.0 / self.rate_hz
        if self._last_tick_us == now:
            dt_s = 1.0 / self.rate_hz
        self._last_tick_us = now
        commands = self.autopilot.control_step(dt_s)
        self.physics.step(dt_s, commands)

    # -- MAVLink entry point --------------------------------------------------------
    def handle_mavlink(self, msg: MavlinkMessage) -> Optional[MavlinkMessage]:
        """Process one inbound message; returns the ack (if any)."""
        if isinstance(msg, CommandLong):
            result = self.autopilot.handle_command(msg)
            return CommandAck(command=msg.command, result=int(result))
        if isinstance(msg, SetPositionTarget):
            self.autopilot.handle_position_target(msg)
            return None
        return None

    # -- scripting helpers (used by tests, benchmarks and examples) -----------------
    def arm(self) -> MavResult:
        return self.autopilot.handle_command(
            CommandLong(command=int(MavCommand.COMPONENT_ARM_DISARM), param1=1.0)
        )

    def takeoff(self, altitude_m: float) -> MavResult:
        self.autopilot.set_mode(CopterMode.GUIDED)
        return self.autopilot.handle_command(
            CommandLong(command=int(MavCommand.NAV_TAKEOFF), param7=altitude_m)
        )

    def goto(self, point: GeoPoint) -> MavResult:
        return self.autopilot.handle_command(CommandLong(
            command=int(MavCommand.NAV_WAYPOINT),
            param5=point.latitude, param6=point.longitude, param7=point.altitude_m,
        ))

    def run_until(self, predicate: Callable[[], bool],
                  timeout_s: float = 120.0) -> bool:
        """Advance the simulation until ``predicate()`` or timeout,
        checking it every ``POLL_S`` of sim time."""
        deadline = self.sim.now + int(timeout_s * 1e6)
        while self.sim.now < deadline:
            self.sim.run(until=min(deadline, self.sim.now + int(POLL_S * 1e6)))
            if predicate():
                return True
        return predicate()
