"""Magnetometer (compass) model: yields heading from true yaw plus noise."""

from __future__ import annotations

import math

from repro.devices.bus import Device, DeviceHandle

#: Heading noise: one degree, in radians.
HEADING_SIGMA = math.radians(1.0)
TWO_PI = 2.0 * math.pi
#: Magnetic declination at the flying field, radians.
DECLINATION_RAD = 0.0


class Magnetometer(Device):
    """Single-client compass with ~1 degree of heading noise."""

    def __init__(self, name: str = "magnetometer", state_provider=None, rng=None):
        super().__init__(name, state_provider)
        self._rng = rng

    def read_heading(self, handle: DeviceHandle) -> float:
        """Magnetic heading in radians, [0, 2*pi)."""
        # _check()/_state() inlined: 10 Hz flight-loop hot path.
        if handle.closed or self._holder is not handle:
            raise PermissionError(f"stale handle for device {self.name!r}")
        state = self._state_provider()
        noise = self._rng.gauss(0.0, HEADING_SIGMA) if self._rng else 0.0
        return (state.yaw + DECLINATION_RAD + noise) % TWO_PI
