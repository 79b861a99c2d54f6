"""State estimation: complementary attitude filter + position fusion.

ArduPilot's fast loop "processes values from one or more inertial motion
units and adjusts the motors" — the estimator is the first half of that.
Attitude comes from gyro integration corrected slowly by the
accelerometer's gravity direction; position/velocity fuse GPS and
barometer with simple first-order corrections.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.devices.imu import GRAVITY, ImuReading


#: The loop rate ``ALPHA`` is tuned against.  The blend weight must scale
#: with the actual sample interval or the filter's time constant changes
#: with loop rate: SITLs running the fast loop slower than 400 Hz (the
#: fleet harness uses 50 Hz) would correct gyro drift 8x+ more weakly,
#: and the resulting steady attitude bias (~gyro_bias * tau) is enough to
#: park a hover several metres off target.
DESIGN_RATE_HZ = 400.0
#: Gyro weight per sample at DESIGN_RATE_HZ.
ALPHA = 0.999
#: ALPHA as a time constant: (1 - alpha) per sample at DESIGN_RATE_HZ
#: == dt/tau per second.
TAU_S = 1.0 / (DESIGN_RATE_HZ * (1.0 - ALPHA))
#: Compass correction gain per heading sample.
YAW_GAIN = 0.05
#: First-order position corrections per GPS fix and barometer sample.
GPS_GAIN = 0.15
BARO_GAIN = 0.2


class AttitudeEstimator:
    """Complementary filter over IMU samples.

    The gyro weight ``ALPHA`` holds per sample *at 400 Hz*; the filter
    uses it as the time constant ``TAU_S`` so it behaves identically at
    any loop rate.
    """

    def __init__(self):
        self.roll = 0.0
        self.pitch = 0.0
        self.yaw = 0.0
        self.rates: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        self.samples = 0

    def update(self, imu: ImuReading, dt_s: float,
               heading_rad: Optional[float] = None) -> None:
        """Fold in one IMU sample (and optionally a compass heading)."""
        p, q, r = imu.gyro
        self.rates = (p, q, r)
        gyro_roll = self.roll + p * dt_s
        gyro_pitch = self.pitch + q * dt_s
        ax, ay, az = imu.accel
        # Gravity direction gives absolute roll/pitch when not accelerating
        # hard; weight it by (1 - alpha).
        accel_norm = math.sqrt(ax * ax + ay * ay + az * az)
        if 0.5 * GRAVITY < accel_norm < 1.5 * GRAVITY:
            accel_roll = math.atan2(ay, az)
            accel_pitch = math.atan2(-ax, math.sqrt(ay * ay + az * az))
            alpha = math.exp(-dt_s / TAU_S)
            self.roll = alpha * gyro_roll + (1 - alpha) * accel_roll
            self.pitch = alpha * gyro_pitch + (1 - alpha) * accel_pitch
        else:
            self.roll = gyro_roll
            self.pitch = gyro_pitch
        if heading_rad is not None:
            yaw_gyro = self.yaw + r * dt_s
            # Blend on the circle to avoid wrap glitches; the compass
            # arrives at only 10 Hz so it gets its own, larger gain.
            err = (heading_rad - yaw_gyro + math.pi) % (2 * math.pi) - math.pi
            self.yaw = (yaw_gyro + YAW_GAIN * err) % (2 * math.pi)
        else:
            self.yaw = (self.yaw + r * dt_s) % (2 * math.pi)
        self.samples += 1


class PositionEstimator:
    """First-order GPS/baro fusion in the local ENU frame."""

    def __init__(self):
        self.position = [0.0, 0.0, 0.0]
        self.velocity = [0.0, 0.0, 0.0]
        self._initialized = False

    def predict(self, accel_enu: Tuple[float, float, float], dt_s: float) -> None:
        for i in range(3):
            self.velocity[i] += accel_enu[i] * dt_s
            self.position[i] += self.velocity[i] * dt_s

    def correct_gps(self, east: float, north: float,
                    vel_e: float, vel_n: float) -> None:
        if not self._initialized:
            self.position[0], self.position[1] = east, north
            self.velocity[0], self.velocity[1] = vel_e, vel_n
            self._initialized = True
            return
        self.position[0] += GPS_GAIN * (east - self.position[0])
        self.position[1] += GPS_GAIN * (north - self.position[1])
        self.velocity[0] += GPS_GAIN * (vel_e - self.velocity[0])
        self.velocity[1] += GPS_GAIN * (vel_n - self.velocity[1])

    def correct_baro(self, altitude_m: float) -> None:
        self.position[2] += BARO_GAIN * (altitude_m - self.position[2])
