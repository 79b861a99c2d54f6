"""The Navio2's u-blox GPS receiver model.

Fixes carry realistic horizontal noise (~1.2 m CEP) and report speed and
accuracy so the flight controller's estimator and the
LocationManagerService both behave like the real stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.bus import Device, DeviceHandle
from repro.sim.rng import normals

#: Meters of latitude per degree (spherical approximation).
M_PER_DEG_LAT = 111_320.0
#: Horizontal position and Doppler velocity noise sigmas per axis.
NOISE_M = 1.2
VELOCITY_NOISE_MS = 0.12
#: Sigmas of a fix's draws: north, east, velocity east and north, altitude.
NOISE_SIGMAS = (NOISE_M, NOISE_M, VELOCITY_NOISE_MS, VELOCITY_NOISE_MS, 2.0)


@dataclass
class GpsFix:
    time_us: int
    latitude: float
    longitude: float
    altitude_m: float
    ground_speed_ms: float
    hdop: float
    satellites: int
    fix_type: int  # 3 = 3D fix
    # Doppler-derived ENU velocity.  u-blox receivers measure velocity from
    # carrier Doppler, so it is an order of magnitude quieter than anything
    # obtainable by differencing the (white-noise) position fixes.
    velocity_e_ms: float = 0.0
    velocity_n_ms: float = 0.0

    def to_dict(self) -> dict:
        """Field dict, equal to ``dataclasses.asdict`` without the
        per-field deepcopy (every field is a scalar)."""
        return {"time_us": self.time_us, "latitude": self.latitude,
                "longitude": self.longitude, "altitude_m": self.altitude_m,
                "ground_speed_ms": self.ground_speed_ms, "hdop": self.hdop,
                "satellites": self.satellites, "fix_type": self.fix_type,
                "velocity_e_ms": self.velocity_e_ms,
                "velocity_n_ms": self.velocity_n_ms}


class GpsReceiver(Device):
    """Single-client GPS with 5 Hz fixes and Gaussian position noise."""

    def __init__(self, name: str = "gps", state_provider=None, rng=None):
        super().__init__(name, state_provider)
        self._rng = rng

    def read_fix(self, handle: DeviceHandle) -> GpsFix:
        # _check()/_state() inlined: service-storm hot path.
        if handle.closed or self._holder is not handle:
            raise PermissionError(f"stale handle for device {self.name!r}")
        state = self._state_provider()
        rng = self._rng
        vx, vy, _ = state.velocity_enu
        if rng is not None:
            # Draw order (north, east, velocity east, velocity north,
            # altitude) is part of the RNG stream contract — keep it.
            noise_n, noise_e, vel_noise_e, vel_noise_n, alt_noise = normals(
                rng, NOISE_SIGMAS)
            vel_e = vx + vel_noise_e
            vel_n = vy + vel_noise_n
        else:
            noise_n = noise_e = alt_noise = 0.0
            vel_e, vel_n = vx, vy
        lat = state.latitude + noise_n / M_PER_DEG_LAT
        lon_scale = M_PER_DEG_LAT * max(0.01, math.cos(math.radians(state.latitude)))
        lon = state.longitude + noise_e / lon_scale
        return GpsFix(
            time_us=state.time_us,
            latitude=lat,
            longitude=lon,
            altitude_m=state.altitude_m + alt_noise,
            ground_speed_ms=math.hypot(vx, vy),
            hdop=0.9,
            satellites=12,
            fix_type=3,
            velocity_e_ms=vel_e,
            velocity_n_ms=vel_n,
        )
