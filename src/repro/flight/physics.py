"""6-DOF quadcopter rigid-body physics.

Parameterized to the paper's prototype: a DJI FlameWheel F450 airframe
with four T-Motor MN2213 950Kv motors and 9.5" props, all-up weight about
1.5 kg with the Pi, Navio2, and the 5000 mAh pack.

The model takes four motor thrust commands (normalized 0..1), converts
them through a first-order motor lag into thrusts, computes body torques
from the X-configuration geometry, and integrates attitude and position
with semi-implicit Euler.  Euler angles are fine here: the controller
never approaches gimbal lock in the evaluated regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.devices.state import DroneStateSnapshot
from repro.flight.geo import M_PER_DEG_LAT, GeoPoint, offset_geopoint
from repro.sim.rng import normals

GRAVITY = 9.80665

#: Constants of the per-step formulas, hoisted out of the step.
SQRT_HALF = math.sqrt(0.5)
TWO_PI = 2 * math.pi
#: sqrt(2 rho A) of the induced-power model: air density 1.225 kg/m^3
#: over one 9.5" prop disk.
INDUCED_POWER_DENOM = math.sqrt(2 * 1.225 * (math.pi * (0.120) ** 2))
#: Per-axis sigma (m/s^2) of the turbulence gust added to each step's
#: east/north/up acceleration.
GUST_SIGMAS = (0.05, 0.05, 0.05)


@dataclass(frozen=True)
class QuadcopterParams:
    """Physical parameters (prototype defaults)."""

    mass_kg: float = 1.5
    arm_length_m: float = 0.225          # F450 motor arm
    max_thrust_per_motor_n: float = 9.0  # MN2213 + 9.5" prop at 12V
    motor_tau_s: float = 0.04            # ESC+prop spin-up lag
    inertia: Tuple[float, float, float] = (0.013, 0.013, 0.024)
    linear_drag: float = 0.35            # N per (m/s)
    angular_drag: float = 0.04
    yaw_torque_coeff: float = 0.016      # Nm of yaw per N of thrust

    def hover_throttle(self) -> float:
        """Normalized per-motor command that balances gravity."""
        return (self.mass_kg * GRAVITY / 4.0) / self.max_thrust_per_motor_n


#: The prototype airframe every vehicle flies.
PARAMS = QuadcopterParams()


class QuadcopterPhysics:
    """The vehicle's ground-truth state and dynamics."""

    def __init__(self, home: Optional[GeoPoint] = None, rng=None):
        #: fixed for the vehicle's life: snapshot() keeps its longitude
        #: scale (meters per degree) from here.
        self.home = home or GeoPoint(43.6084298, -85.8110359, 0.0)
        self._home_lon_scale = M_PER_DEG_LAT * math.cos(
            math.radians(self.home.latitude))
        self._rng = rng
        #: steady wind, m/s ENU; calm until the weather service sets it.
        self.wind_enu: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        # State: ENU position/velocity, Euler attitude, body rates.
        self.position = [0.0, 0.0, 0.0]
        self.velocity = [0.0, 0.0, 0.0]
        self.roll = 0.0
        self.pitch = 0.0
        self.yaw = 0.0
        self.rates = [0.0, 0.0, 0.0]
        # Actual (lagged) motor thrusts in newtons.
        self.motor_thrust = [0.0, 0.0, 0.0, 0.0]
        self.on_ground = True
        self.time_us = 0
        self._last_accel_body = (0.0, 0.0, 0.0)
        #: cumulative propulsion energy drawn, joules (for billing/power).
        self.propulsion_energy_j = 0.0
        #: Memoize snapshot() between steps.  Sensors on the same tick all
        #: sample identical ground truth, so the geodetic conversion and
        #: snapshot construction run once per step instead of once per
        #: sensor read.  Direct state pokes (tests) must be followed by
        #: step() before the cached view refreshes.
        self._state_version = 0
        self._snapshot_cache: Optional[DroneStateSnapshot] = None
        self._snapshot_version = -1

    # -- state access -----------------------------------------------------------
    def geoposition(self) -> GeoPoint:
        return offset_geopoint(
            self.home, self.position[0], self.position[1], self.position[2]
        )

    def snapshot(self) -> DroneStateSnapshot:
        """The ground truth that sensors sample."""
        if self._snapshot_version == self._state_version:
            return self._snapshot_cache
        # offset_geopoint()'s arithmetic, with the home's longitude
        # scale computed once.
        home = self.home
        position = self.position
        east, north, up = position
        snap = DroneStateSnapshot(
            self.time_us,
            home.latitude + north / M_PER_DEG_LAT,
            home.longitude + east / self._home_lon_scale,
            up,
            tuple(position),
            tuple(self.velocity),
            self._last_accel_body,
            self.roll,
            self.pitch,
            self.yaw,
            tuple(self.rates),
            self.on_ground,
        )
        self._snapshot_cache = snap
        self._snapshot_version = self._state_version
        return snap

    def propulsion_power_w(self) -> float:
        """Electrical power drawn by the motors (induced-power model)."""
        motor_thrust = self.motor_thrust
        if sum(motor_thrust) <= 0.0:
            return 0.0
        # P = T^(3/2) / sqrt(2 rho A) / figure-of-merit, per rotor.
        t1, t2, t3, t4 = motor_thrust
        return sum((
            (t1 ** 1.5) / INDUCED_POWER_DENOM / 0.55,
            (t2 ** 1.5) / INDUCED_POWER_DENOM / 0.55,
            (t3 ** 1.5) / INDUCED_POWER_DENOM / 0.55,
            (t4 ** 1.5) / INDUCED_POWER_DENOM / 0.55,
        ))

    # -- dynamics -------------------------------------------------------------------
    def step(self, dt_s: float, motor_commands: Tuple[float, float, float, float]) -> None:
        """Advance the vehicle by ``dt_s`` under the given motor commands.

        Motor order (X configuration, ArduPilot numbering): 1 front-right
        (CCW), 2 back-left (CCW), 3 front-left (CW), 4 back-right (CW).
        """
        # Runs on every SITL tick, so it works on scalar locals; the
        # position, velocity and motor_thrust lists are updated in place.
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        p = PARAMS
        # Commands clamped to [0, 1] (same result as max then min).
        c1, c2, c3, c4 = motor_commands
        c1 = c1 if c1 > 0.0 else 0.0
        c1 = c1 if c1 < 1.0 else 1.0
        c2 = c2 if c2 > 0.0 else 0.0
        c2 = c2 if c2 < 1.0 else 1.0
        c3 = c3 if c3 > 0.0 else 0.0
        c3 = c3 if c3 < 1.0 else 1.0
        c4 = c4 if c4 > 0.0 else 0.0
        c4 = c4 if c4 < 1.0 else 1.0
        # First-order motor response toward commanded thrust.
        alpha = 1.0 - math.exp(-dt_s / p.motor_tau_s)
        max_thrust = p.max_thrust_per_motor_n
        motor_thrust = self.motor_thrust
        t1, t2, t3, t4 = motor_thrust
        t1 += (c1 * max_thrust - t1) * alpha
        t2 += (c2 * max_thrust - t2) * alpha
        t3 += (c3 * max_thrust - t3) * alpha
        t4 += (c4 * max_thrust - t4) * alpha
        motor_thrust[0] = t1
        motor_thrust[1] = t2
        motor_thrust[2] = t3
        motor_thrust[3] = t4

        thrust = t1 + t2 + t3 + t4
        # X config: motors 3,2 on the left/back-left, 1,4 right... compute
        # torques with the standard 45-degree arm projection.
        arm = p.arm_length_m * SQRT_HALF
        torque_roll = arm * ((t2 + t3) - (t1 + t4))    # left minus right
        torque_pitch = arm * ((t1 + t3) - (t2 + t4))   # front minus back
        torque_yaw = p.yaw_torque_coeff * ((t1 + t2) - (t3 + t4))  # CCW - CW

        # Angular dynamics.
        ix, iy, iz = p.inertia
        angular_drag = p.angular_drag
        rp, rq, rr = self.rates
        rp += (torque_roll - angular_drag * rp) / ix * dt_s
        rq += (torque_pitch - angular_drag * rq) / iy * dt_s
        rr += (torque_yaw - angular_drag * rr) / iz * dt_s
        self.rates = [rp, rq, rr]
        roll = self.roll + rp * dt_s
        pitch = self.pitch + rq * dt_s
        yaw = (self.yaw + rr * dt_s) % TWO_PI
        self.roll = roll
        self.pitch = pitch
        self.yaw = yaw

        # Thrust direction.  Conventions: yaw 0 faces north, positive
        # clockwise (compass); positive roll = right side down (accelerates
        # right); positive pitch = nose up (accelerates backward).
        sr, cr = math.sin(roll), math.cos(roll)
        sp, cp = math.sin(pitch), math.cos(pitch)
        sy, cy = math.sin(yaw), math.cos(yaw)
        forward_force = thrust * (-sp)          # nose up -> backward
        right_force = thrust * (sr * cp)        # right down -> right
        up_force = thrust * (cp * cr)
        # Body-forward in ENU is (sin yaw, cos yaw); body-right is
        # (cos yaw, -sin yaw) for compass yaw.
        mass = p.mass_kg
        force_e = forward_force * sy + right_force * cy
        force_n = forward_force * cy - right_force * sy
        force_u = up_force - mass * GRAVITY

        rng = self._rng
        if rng is not None:
            gust_e, gust_n, gust_u = normals(rng, GUST_SIGMAS)
        else:
            gust_e = gust_n = gust_u = 0.0
        velocity = self.velocity
        wind_e, wind_n, wind_u = self.wind_enu
        drag = p.linear_drag
        accel_e = (force_e - drag * (velocity[0] - wind_e)) / mass + gust_e
        accel_n = (force_n - drag * (velocity[1] - wind_n)) / mass + gust_n
        accel_u = (force_u - drag * (velocity[2] - wind_u)) / mass + gust_u
        # Dynamic acceleration rotated into the body frame (yaw only; the
        # small-tilt approximation is plenty for the IMU model, which adds
        # the gravity components itself).
        self._last_accel_body = (
            accel_e * sy + accel_n * cy,
            accel_e * cy - accel_n * sy,
            accel_u,
        )

        ve = velocity[0] + accel_e * dt_s
        vn = velocity[1] + accel_n * dt_s
        vu = velocity[2] + accel_u * dt_s
        velocity[0] = ve
        velocity[1] = vn
        velocity[2] = vu
        position = self.position
        position[0] += ve * dt_s
        position[1] += vn * dt_s
        up = position[2] + vu * dt_s
        position[2] = up

        # Ground contact.
        if up <= 0.0:
            position[2] = up = 0.0
            if vu < 0.0:
                velocity[2] = 0.0
            if thrust < mass * GRAVITY * 0.95:
                self.on_ground = True
                self.velocity = [0.0, 0.0, 0.0]
                self.rates = [0.0, 0.0, 0.0]
                self.roll = self.pitch = 0.0
        if up > 0.02:
            self.on_ground = False

        self.propulsion_energy_j += self.propulsion_power_w() * dt_s
        self.time_us += int(round(dt_s * 1e6))
        self._state_version += 1
