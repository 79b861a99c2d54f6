"""The PID control cascade.

Position error → desired velocity → desired lean angles → desired body
rates → motor torques, the standard multicopter structure (and
ArduPilot's).  Gains are tuned for the F450-class parameters in
:mod:`repro.flight.physics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: Horizontal speed and lean-angle limits of the position controller.
MAX_SPEED_MS = 8.0
MAX_LEAN_RAD = math.radians(25)


def clamp(x: float, lo: float, hi: float) -> float:
    """``max(lo, min(hi, x))`` without the two builtin calls.

    The same result in every case, ties, signed zeros and NaN included:
    ``min(hi, x)`` keeps ``hi`` unless ``x < hi`` and ``max(lo, y)``
    keeps ``lo`` unless ``y > lo``.
    """
    y = x if x < hi else hi
    return y if y > lo else lo


class Pid:
    """A scalar PID with output limiting and integrator clamping."""

    def __init__(self, kp: float, ki: float = 0.0, kd: float = 0.0,
                 limit: float = float("inf"), i_limit: float = float("inf")):
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.limit = limit
        self.i_limit = i_limit
        self._integral = 0.0
        self._last_error = None

    def reset(self) -> None:
        self._integral = 0.0
        self._last_error = None

    def update(self, error: float, dt_s: float) -> float:
        i_limit = self.i_limit
        integral = clamp(self._integral + error * dt_s, -i_limit, i_limit)
        self._integral = integral
        derivative = 0.0
        last_error = self._last_error
        if last_error is not None and dt_s > 0:
            derivative = (error - last_error) / dt_s
        self._last_error = error
        out = self.kp * error + self.ki * integral + self.kd * derivative
        limit = self.limit
        return clamp(out, -limit, limit)


@dataclass
class AttitudeTarget:
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0
    climb_rate: float = 0.0  # m/s, +up


class AttitudeController:
    """Angle → rate → torque, run in the 400 Hz fast loop."""

    def __init__(self):
        self.angle_p = 6.0           # desired rate per radian of error
        self.rate_roll = Pid(0.10, 0.05, 0.003, limit=0.8, i_limit=0.4)
        self.rate_pitch = Pid(0.10, 0.05, 0.003, limit=0.8, i_limit=0.4)
        self.rate_yaw = Pid(0.20, 0.02, 0.0, limit=0.4, i_limit=0.3)

    def reset(self) -> None:
        for pid in (self.rate_roll, self.rate_pitch, self.rate_yaw):
            pid.reset()

    def update(self, target: AttitudeTarget, est, dt_s: float) -> Tuple[float, float, float]:
        """Returns normalized (roll, pitch, yaw) torque demands."""
        desired_p = self.angle_p * self._angle_err(target.roll, est.roll)
        desired_q = self.angle_p * self._angle_err(target.pitch, est.pitch)
        desired_r = 2.5 * self._angle_err(target.yaw, est.yaw)
        p, q, r = est.rates
        return (
            self.rate_roll.update(desired_p - p, dt_s),
            self.rate_pitch.update(desired_q - q, dt_s),
            self.rate_yaw.update(desired_r - r, dt_s),
        )

    @staticmethod
    def _angle_err(target: float, actual: float) -> float:
        return (target - actual + math.pi) % (2 * math.pi) - math.pi


class AltitudeController:
    """Altitude → climb rate → collective throttle adjustment."""

    def __init__(self, hover_throttle: float):
        self.hover_throttle = hover_throttle
        self.pos_p = 1.0
        self.vel = Pid(0.25, 0.10, 0.0, limit=0.35, i_limit=0.25)
        self.max_climb = 2.5   # m/s
        self.max_descend = 1.5

    def reset(self) -> None:
        self.vel.reset()

    def update(self, target_alt: float, alt: float, climb: float, dt_s: float) -> float:
        """Returns collective throttle (0..1)."""
        desired_climb = self.pos_p * (target_alt - alt)
        desired_climb = clamp(desired_climb, -self.max_descend, self.max_climb)
        throttle = self.hover_throttle + self.vel.update(desired_climb - climb, dt_s)
        return clamp(throttle, 0.0, 1.0)


class PositionController:
    """Horizontal position → velocity → lean angles."""

    def __init__(self):
        self.pos_p = 0.4
        self.vel_e = Pid(0.10, 0.02, 0.05, limit=MAX_LEAN_RAD, i_limit=0.2)
        self.vel_n = Pid(0.10, 0.02, 0.05, limit=MAX_LEAN_RAD, i_limit=0.2)

    def reset(self) -> None:
        self.vel_e.reset()
        self.vel_n.reset()

    def update(self, target_enu, position, velocity, yaw: float,
               dt_s: float, speed_limit: float = None) -> Tuple[float, float]:
        """Returns desired (roll, pitch) in radians."""
        limit = min(MAX_SPEED_MS, speed_limit or MAX_SPEED_MS)
        err_e = target_enu[0] - position[0]
        err_n = target_enu[1] - position[1]
        desired_ve = self.pos_p * err_e
        desired_vn = self.pos_p * err_n
        speed = math.hypot(desired_ve, desired_vn)
        if speed > limit:
            scale = limit / speed
            desired_ve *= scale
            desired_vn *= scale
        # Accel demands in ENU, expressed as lean angles.
        lean_e = self.vel_e.update(desired_ve - velocity[0], dt_s)
        lean_n = self.vel_n.update(desired_vn - velocity[1], dt_s)
        # Rotate into the body frame given compass yaw (0 = north).
        # Accelerating forward needs nose DOWN, i.e. negative pitch.
        sy, cy = math.sin(yaw), math.cos(yaw)
        pitch = -(lean_n * cy + lean_e * sy)
        roll = (lean_e * cy - lean_n * sy)
        lean = MAX_LEAN_RAD
        return clamp(roll, -lean, lean), clamp(pitch, -lean, lean)


def mix_motors(throttle: float, torque_roll: float, torque_pitch: float,
               torque_yaw: float) -> Tuple[float, float, float, float]:
    """X-configuration mixer: normalized motor commands.

    Motor order matches :meth:`QuadcopterPhysics.step`: 1 front-right CCW,
    2 back-left CCW, 3 front-left CW, 4 back-right CW.
    """
    m1 = throttle - torque_roll + torque_pitch + torque_yaw
    m2 = throttle + torque_roll - torque_pitch + torque_yaw
    m3 = throttle + torque_roll + torque_pitch - torque_yaw
    m4 = throttle - torque_roll - torque_pitch - torque_yaw
    return (clamp(m1, 0.0, 1.0), clamp(m2, 0.0, 1.0),
            clamp(m3, 0.0, 1.0), clamp(m4, 0.0, 1.0))
