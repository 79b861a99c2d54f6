"""The flight controller (ArduPilot Copter's role).

Runs a 400 Hz fast loop (estimator + attitude control), slower position
and navigation logic, ArduPilot's mode set (STABILIZE, GUIDED, LOITER,
AUTO, RTL, LAND), MAVLink command handling, and telemetry generation.
Waypoints are flown in GUIDED mode, as AnDrone's VFC flies them; there is
no mission upload, so AUTO holds the last target.

The autopilot is deliberately split from time: callers (the SITL harness
or the flight-container thread) call :meth:`control_step` with the actual
elapsed ``dt`` and feed the returned motor commands to the physics.  That
is exactly how scheduling jitter on the real system perturbs control — a
late fast loop integrates a larger dt — so the Section 6.2 stability
experiment exercises the same coupling.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from repro.devices.gps import GpsFix
from repro.flight.controllers import (
    AltitudeController,
    AttitudeController,
    AttitudeTarget,
    PositionController,
    clamp,
    mix_motors,
)
from repro.flight.estimator import AttitudeEstimator, PositionEstimator
from repro.flight.geo import GeoPoint, enu_between, offset_geopoint
from repro.flight.geofence import Geofence, GeofenceBreach
from repro.flight.logs import FlightLog
from repro.mavlink.enums import (
    CUSTOM_MODE_ENABLED,
    SAFETY_ARMED,
    CopterMode,
    MavCommand,
    MavResult,
    MavState,
)
from repro.mavlink.messages import (
    CommandLong,
    GlobalPositionInt,
    Heartbeat,
    SetPositionTarget,
)

#: Horizontal acceptance radius for waypoints, meters (ArduPilot default 2m).
WP_ACCEPT_M = 2.0

#: RTL may begin its vertical descent anywhere within this radius of the
#: pad.  The hover equilibrium under estimation noise can settle just
#: outside WP_ACCEPT_M, so gating the descent on waypoint-grade precision
#: leaves RTL hovering forever on unlucky trajectories (fleet soaks under
#: chaos hit this); landing descends straight down from within the pad
#: area regardless.
RTL_LAND_ACCEPT_M = 2.0 * WP_ACCEPT_M


class DirectSensors:
    """Sensor frontend that owns its devices (standalone / SITL mode)."""

    def __init__(self, physics, rng=None):
        from repro.devices import Barometer, GpsReceiver, Imu, Magnetometer

        provider = physics.snapshot
        self._imu = Imu(state_provider=provider, rng=rng)
        self._gps = GpsReceiver(state_provider=provider, rng=rng)
        self._baro = Barometer(state_provider=provider, rng=rng)
        self._mag = Magnetometer(state_provider=provider, rng=rng)
        self._h_imu = self._imu.open("flight-controller")
        self._h_gps = self._gps.open("flight-controller")
        self._h_baro = self._baro.open("flight-controller")
        self._h_mag = self._mag.open("flight-controller")

    def read_imu(self):
        return self._imu.read(self._h_imu)

    def read_gps(self) -> GpsFix:
        return self._gps.read_fix(self._h_gps)

    def read_baro_alt(self) -> float:
        return self._baro.read_altitude(self._h_baro)

    def read_heading(self) -> float:
        return self._mag.read_heading(self._h_mag)


class Autopilot:
    """The flight controller state machine and control stack."""

    def __init__(self, sensors, home: GeoPoint, hover_throttle: float = 0.41,
                 log: Optional[FlightLog] = None, truth_provider=None):
        self.sensors = sensors
        self.home = home
        self.mode = CopterMode.STABILIZE
        self.armed = False
        self.boot_time_us = 0
        self.time_us = 0
        self.attitude_est = AttitudeEstimator()
        self.position_est = PositionEstimator()
        self.att_ctrl = AttitudeController()
        self.alt_ctrl = AltitudeController(hover_throttle)
        self.pos_ctrl = PositionController()
        self.log = log
        #: optional ground-truth provider for log comparison (AED analysis).
        self.truth_provider = truth_provider
        # Targets.
        self.target_enu = [0.0, 0.0, 0.0]
        self.target_yaw: Optional[float] = None
        self.velocity_target: Optional[Tuple[float, float, float]] = None
        self.speed_limit_ms: Optional[float] = None
        #: ALT_HOLD's captured altitude; None until first needed in the mode.
        self._althold_target: Optional[float] = None
        #: (altitude, time_us) of the last baro climb-rate sample.
        self._last_alt: Optional[Tuple[float, int]] = None
        # Geofence.
        self.fence: Optional[Geofence] = None
        self.fence_enabled = False
        self.on_breach: Optional[Callable[[GeofenceBreach], None]] = None
        self._breach_active = False
        # Sensor scheduling accumulators (microseconds since last read).
        self._since_gps = 1_000_000
        self._since_baro = 1_000_000
        self._since_mag = 1_000_000
        self.fast_loop_count = 0
        self.status_texts: List[str] = []

    # ------------------------------------------------------------- telemetry
    def position(self) -> GeoPoint:
        east, north, up = self.position_est.position
        return offset_geopoint(self.home, east, north, up)

    def make_heartbeat(self) -> Heartbeat:
        base = CUSTOM_MODE_ENABLED | (SAFETY_ARMED if self.armed else 0)
        status = MavState.ACTIVE if self.armed else MavState.STANDBY
        return Heartbeat(custom_mode=int(self.mode), base_mode=base,
                         system_status=int(status))

    def make_global_position(self) -> GlobalPositionInt:
        geo = self.position()
        ve, vn, vu = self.position_est.velocity
        return GlobalPositionInt(
            time_boot_ms=self.time_us // 1000,
            lat=int(round(geo.latitude * 1e7)),
            lon=int(round(geo.longitude * 1e7)),
            alt=int(round((geo.altitude_m) * 1000)),
            relative_alt=int(round(self.position_est.position[2] * 1000)),
            vx=int(round(vn * 100)), vy=int(round(ve * 100)),
            vz=int(round(-vu * 100)),
            hdg=int(round(math.degrees(self.attitude_est.yaw) * 100)) % 36000,
        )

    # -------------------------------------------------------------- commands
    def set_mode(self, mode: CopterMode) -> MavResult:
        if mode == self.mode:
            return MavResult.ACCEPTED
        self.mode = mode
        self.att_ctrl.reset()
        self._althold_target = None
        if mode in (CopterMode.LOITER, CopterMode.POSHOLD, CopterMode.BRAKE):
            self._hold_current_position()
        elif mode is CopterMode.RTL:
            self.target_enu = [0.0, 0.0, max(15.0, self.position_est.position[2])]
            self.velocity_target = None
        elif mode is CopterMode.GUIDED:
            self._hold_current_position()
        return MavResult.ACCEPTED

    def _hold_current_position(self) -> None:
        self.target_enu = list(self.position_est.position)
        self.velocity_target = None

    def _althold_alt(self) -> float:
        """ALT_HOLD's captured altitude (set on mode entry)."""
        if self._althold_target is None:
            self._althold_target = self.position_est.position[2]
        return self._althold_target

    def handle_command(self, cmd: CommandLong) -> MavResult:
        """Execute a COMMAND_LONG; returns the MAV_RESULT for the ack."""
        command = MavCommand(cmd.command) if cmd.command in MavCommand._value2member_map_ \
            else None
        if command is None:
            return MavResult.UNSUPPORTED
        if command is MavCommand.COMPONENT_ARM_DISARM:
            want_armed = cmd.param1 >= 0.5
            if want_armed and self.mode not in (
                CopterMode.GUIDED, CopterMode.LOITER, CopterMode.STABILIZE,
                CopterMode.AUTO, CopterMode.ALT_HOLD,
            ):
                return MavResult.DENIED
            self.armed = want_armed
            return MavResult.ACCEPTED
        if command is MavCommand.DO_SET_MODE:
            try:
                return self.set_mode(CopterMode(int(cmd.param2)))
            except ValueError:
                return MavResult.DENIED
        if command is MavCommand.NAV_TAKEOFF:
            if not self.armed:
                return MavResult.DENIED
            if self.mode is not CopterMode.GUIDED:
                self.set_mode(CopterMode.GUIDED)
            self.target_enu = [
                self.position_est.position[0],
                self.position_est.position[1],
                max(1.0, cmd.param7),
            ]
            self.velocity_target = None
            return MavResult.ACCEPTED
        if command is MavCommand.NAV_WAYPOINT:
            if self.mode is not CopterMode.GUIDED:
                return MavResult.DENIED
            target = GeoPoint(cmd.param5, cmd.param6, cmd.param7)
            east, north, up = enu_between(self.home, target)
            self.target_enu = [east, north, target.altitude_m]
            self.velocity_target = None
            return MavResult.ACCEPTED
        if command is MavCommand.NAV_LAND:
            self.set_mode(CopterMode.LAND)
            return MavResult.ACCEPTED
        if command is MavCommand.NAV_RETURN_TO_LAUNCH:
            self.set_mode(CopterMode.RTL)
            return MavResult.ACCEPTED
        if command is MavCommand.NAV_LOITER_UNLIM:
            self.set_mode(CopterMode.LOITER)
            return MavResult.ACCEPTED
        if command is MavCommand.DO_CHANGE_SPEED:
            if cmd.param2 <= 0:
                return MavResult.DENIED
            self.speed_limit_ms = cmd.param2
            return MavResult.ACCEPTED
        if command is MavCommand.CONDITION_YAW:
            self.target_yaw = math.radians(cmd.param1)
            return MavResult.ACCEPTED
        if command is MavCommand.DO_FENCE_ENABLE:
            self.fence_enabled = cmd.param1 >= 0.5
            return MavResult.ACCEPTED
        if command in (MavCommand.DO_SET_HOME, MavCommand.DO_DIGICAM_CONTROL,
                       MavCommand.DO_MOUNT_CONTROL, MavCommand.SET_MESSAGE_INTERVAL,
                       MavCommand.REQUEST_MESSAGE):
            return MavResult.ACCEPTED
        return MavResult.UNSUPPORTED

    def handle_position_target(self, msg: SetPositionTarget) -> MavResult:
        """GUIDED-mode position/velocity target."""
        if self.mode is not CopterMode.GUIDED:
            return MavResult.DENIED
        use_position = not (msg.type_mask & 0x0007)
        use_velocity = not (msg.type_mask & 0x0038)
        if use_position:
            target = GeoPoint(msg.lat_int / 1e7, msg.lon_int / 1e7, msg.alt)
            east, north, _ = enu_between(self.home, target)
            self.target_enu = [east, north, msg.alt]
            self.velocity_target = None
        elif use_velocity:
            # vx is north, vy east in MAVLink NED convention.
            self.velocity_target = (msg.vy, msg.vx, -msg.vz)
        if msg.type_mask & 0x0400 == 0 and msg.yaw:
            self.target_yaw = msg.yaw
        return MavResult.ACCEPTED

    # -------------------------------------------------------------- geofence
    def set_geofence(self, fence: Optional[Geofence], enabled: bool = True) -> None:
        self.fence = fence
        self.fence_enabled = enabled and fence is not None
        self._breach_active = False

    def check_fence(self) -> Optional[GeofenceBreach]:
        if not self.fence_enabled or self.fence is None:
            return None
        # Like ArduPilot, the fence only engages once armed and airborne.
        if not self.armed or self.position_est.position[2] < 1.0:
            return None
        position = self.position()
        breach = self.fence.check(position)
        if breach is None:
            # Hysteresis: only consider the excursion over once the vehicle
            # is comfortably back inside, so estimate noise at the boundary
            # can't retrigger the breach handler.
            if (self._breach_active and self.fence.distance_from_center(position)
                    < 0.92 * self.fence.radius_m):
                self._breach_active = False
            return None
        if self._breach_active:
            return None   # already being handled
        self._breach_active = True
        self.status_texts.append(str(breach))
        if self.on_breach is not None:
            self.on_breach(breach)
        return breach

    # -------------------------------------------------------------- fast loop
    def control_step(self, dt_s: float) -> Tuple[float, float, float, float]:
        """One fast-loop iteration; returns motor commands for physics."""
        self.fast_loop_count += 1
        self.time_us += int(round(dt_s * 1e6))
        self._read_sensors(dt_s)
        if self.log is not None and self.truth_provider is not None:
            truth = self.truth_provider()
            self.log.record(
                self.time_us, self.attitude_est, truth,
                tuple(self.position_est.position), self.mode.name,
            )
        if not self.armed:
            return (0.0, 0.0, 0.0, 0.0)

        self._navigate(dt_s)
        desired_roll, desired_pitch = 0.0, 0.0
        target_alt = self.target_enu[2]
        if self.velocity_target is not None:
            ve, vn, vu = self.velocity_target
            # Velocity mode: chase a moving virtual target point.
            self.target_enu[0] += ve * dt_s
            self.target_enu[1] += vn * dt_s
            self.target_enu[2] += vu * dt_s
            target_alt = self.target_enu[2]
        if self.mode in (CopterMode.STABILIZE, CopterMode.ALT_HOLD):
            # Pilot-input modes with no RC attached: hold a level
            # attitude; the vehicle weathervanes/drifts with the wind.
            desired_roll, desired_pitch = 0.0, 0.0
        else:
            desired_roll, desired_pitch = self.pos_ctrl.update(
                self.target_enu, self.position_est.position,
                self.position_est.velocity, self.attitude_est.yaw, dt_s,
                self.speed_limit_ms,
            )
        if self.mode is CopterMode.LAND:
            target_alt = max(-1.0, self.position_est.position[2] - 1.0)
        if self.mode is CopterMode.STABILIZE:
            # No altitude hold either: constant hover throttle.
            throttle = self.alt_ctrl.hover_throttle
        elif self.mode is CopterMode.ALT_HOLD:
            throttle = self.alt_ctrl.update(
                self._althold_alt(), self.position_est.position[2],
                self.position_est.velocity[2], dt_s,
            )
        else:
            throttle = self.alt_ctrl.update(
                target_alt, self.position_est.position[2],
                self.position_est.velocity[2], dt_s,
            )
        yaw_target = self.target_yaw if self.target_yaw is not None else self.attitude_est.yaw
        torques = self.att_ctrl.update(
            AttitudeTarget(desired_roll, desired_pitch, yaw_target),
            self.attitude_est, dt_s,
        )
        if self.mode is CopterMode.LAND and self.position_est.position[2] < 0.08:
            self.armed = False
            return (0.0, 0.0, 0.0, 0.0)
        return mix_motors(throttle, *torques)

    def _read_sensors(self, dt_s: float) -> None:
        dt_us = int(round(dt_s * 1e6))
        self._since_gps += dt_us
        self._since_baro += dt_us
        self._since_mag += dt_us
        heading = None
        if self._since_mag >= 100_000:   # 10 Hz compass
            self._since_mag = 0
            heading = self.sensors.read_heading()
        imu = self.sensors.read_imu()
        if self.log is not None:
            self.log.record_imu(self.time_us, imu.accel[2])
        self.attitude_est.update(imu, dt_s, heading)
        # INS-style dead reckoning between GPS fixes: horizontal
        # acceleration follows from the estimated lean angles (thrust tilt)
        # minus an airframe drag term.
        est = self.attitude_est
        a_forward = -math.tan(clamp(est.pitch, -0.6, 0.6)) * 9.80665
        a_right = math.tan(clamp(est.roll, -0.6, 0.6)) * 9.80665
        sy, cy = math.sin(est.yaw), math.cos(est.yaw)
        drag = 0.23
        accel_e = a_forward * sy + a_right * cy - drag * self.position_est.velocity[0]
        accel_n = a_forward * cy - a_right * sy - drag * self.position_est.velocity[1]
        self.position_est.predict((accel_e, accel_n, 0.0), dt_s)
        if self._since_baro >= 40_000:   # 25 Hz baro
            self._since_baro = 0
            self.position_est.correct_baro(self.sensors.read_baro_alt())
        if self._since_gps >= 200_000:   # 5 Hz GPS
            self._since_gps = 0
            fix = self.sensors.read_gps()
            east, north, _ = enu_between(self.home, GeoPoint(fix.latitude, fix.longitude))
            if self.log is not None:
                self.log.record_gps(self.time_us, east, north)
            # Fuse the receiver's Doppler velocity.  Differencing consecutive
            # position fixes amplifies the white position noise ~40x at 5 Hz
            # (sigma ~8 m/s) and the velocity PID's derivative term then
            # saturates on noise — the vehicle loses the authority to close
            # the last few metres of a hover and long soaks see RTL crawl for
            # minutes.  Doppler velocity is quiet (~0.1 m/s) and is what real
            # flight stacks fuse.
            self.position_est.correct_gps(east, north,
                                          fix.velocity_e_ms,
                                          fix.velocity_n_ms)
        # Vertical velocity from baro-derived altitude changes.
        if self._last_alt is None:
            self._last_alt = (self.position_est.position[2], self.time_us)
        else:
            la, lt = self._last_alt
            span_s = (self.time_us - lt) / 1e6
            if span_s >= 0.1:
                climb = (self.position_est.position[2] - la) / span_s
                self.position_est.velocity[2] += 0.6 * (climb - self.position_est.velocity[2])
                self._last_alt = (self.position_est.position[2], self.time_us)

    # -------------------------------------------------------------- navigation
    def _dist_to_target(self) -> float:
        east, north, up = self.position_est.position
        te, tn, tu = self.target_enu
        return math.sqrt((te - east) ** 2 + (tn - north) ** 2)

    def _navigate(self, dt_s: float) -> None:
        self.check_fence()
        if self.mode is CopterMode.RTL:
            if self._dist_to_target() <= RTL_LAND_ACCEPT_M and abs(
                self.position_est.position[2] - self.target_enu[2]
            ) < 1.5:
                if self.target_enu[:2] == [0.0, 0.0]:
                    self.set_mode(CopterMode.LAND)
