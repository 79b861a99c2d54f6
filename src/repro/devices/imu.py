"""The Navio2's MPU9250 inertial measurement unit model.

Reports body-frame accelerometer and gyroscope values with white noise
and a small constant bias — the inputs ArduPilot's fast loop consumes at
400 Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.devices.bus import Device, DeviceHandle
from repro.sim.rng import normals

GRAVITY = 9.80665
#: White-noise sigmas per axis: accelerometer (m/s^2) and gyro (rad/s).
ACCEL_NOISE = 0.05
GYRO_NOISE = 0.002
NOISE_SIGMAS = (ACCEL_NOISE, ACCEL_NOISE, ACCEL_NOISE,
                GYRO_NOISE, GYRO_NOISE, GYRO_NOISE)


@dataclass
class ImuReading:
    time_us: int
    accel: Tuple[float, float, float]   # m/s^2, body frame (includes gravity)
    gyro: Tuple[float, float, float]    # rad/s, body frame

    def to_dict(self) -> dict:
        """Field dict, equal to ``dataclasses.asdict`` without the
        per-field deepcopy (every field is already immutable)."""
        return {"time_us": self.time_us, "accel": self.accel,
                "gyro": self.gyro}


class Imu(Device):
    """Single-client IMU sampled at up to 1 kHz."""

    def __init__(self, name: str = "imu", state_provider=None, rng=None):
        super().__init__(name, state_provider)
        self._rng = rng
        # Fixed per-device bias, as on a real uncalibrated part.
        if rng is not None:
            self._accel_bias = tuple(rng.gauss(0.0, 0.02) for _ in range(3))
            self._gyro_bias = tuple(rng.gauss(0.0, 0.001) for _ in range(3))
        else:
            self._accel_bias = (0.0, 0.0, 0.0)
            self._gyro_bias = (0.0, 0.0, 0.0)

    def read(self, handle: DeviceHandle) -> ImuReading:
        # _check()/_state() inlined: this is the 400 Hz fast-loop (and
        # service-storm) hot path.
        if handle.closed or self._holder is not handle:
            raise PermissionError(f"stale handle for device {self.name!r}")
        state = self._state_provider()
        # Gravity resolved into the body frame from roll/pitch.
        pitch, roll = state.pitch, state.roll
        cos_pitch = math.cos(pitch)
        gx = -math.sin(pitch) * GRAVITY
        gy = math.sin(roll) * cos_pitch * GRAVITY
        gz = math.cos(roll) * cos_pitch * GRAVITY
        ax, ay, az = state.accel_body
        bax, bay, baz = self._accel_bias
        bgp, bgq, bgr = self._gyro_bias
        p, q, r = state.angular_rates
        rng = self._rng
        if rng is not None:
            # Draw order (3 accel then 3 gyro) is part of the RNG stream
            # contract — keep it stable.
            nax, nay, naz, ngp, ngq, ngr = normals(rng, NOISE_SIGMAS)
            accel = (ax + gx + bax + nax, ay + gy + bay + nay,
                     az + gz + baz + naz)
            gyro = (p + bgp + ngp, q + bgq + ngq, r + bgr + ngr)
        else:
            accel = (ax + gx + bax, ay + gy + bay, az + gz + baz)
            gyro = (p + bgp, q + bgq, r + bgr)
        return ImuReading(state.time_us, accel, gyro)
