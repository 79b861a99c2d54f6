"""The Navio2's MS5611 barometer model.

Converts altitude to pressure through the standard atmosphere so the
flight controller's altitude hold sees realistic data.
"""

from __future__ import annotations

from repro.devices.bus import Device, DeviceHandle

SEA_LEVEL_PA = 101_325.0
#: Elevation of the flying field above sea level, metres.
GROUND_ALTITUDE_M = 200.0


def altitude_to_pressure(alt_m: float) -> float:
    """International Standard Atmosphere, troposphere segment."""
    return SEA_LEVEL_PA * (1.0 - 2.25577e-5 * alt_m) ** 5.25588


def pressure_to_altitude(pressure_pa: float) -> float:
    return (1.0 - (pressure_pa / SEA_LEVEL_PA) ** (1.0 / 5.25588)) / 2.25577e-5


class Barometer(Device):
    """Single-client barometer with ~10 cm-equivalent pressure noise."""

    def __init__(self, name: str = "barometer", state_provider=None, rng=None):
        super().__init__(name, state_provider)
        self._rng = rng

    def read_pressure(self, handle: DeviceHandle) -> float:
        # _check()/_state() inlined: service-storm hot path.
        if handle.closed or self._holder is not handle:
            raise PermissionError(f"stale handle for device {self.name!r}")
        state = self._state_provider()
        absolute_alt = GROUND_ALTITUDE_M + state.altitude_m
        noise = self._rng.gauss(0.0, 1.2) if self._rng else 0.0  # ~0.1 m
        return altitude_to_pressure(absolute_alt) + noise

    def read_altitude(self, handle: DeviceHandle) -> float:
        """Barometric altitude above the ground reference."""
        pressure = self.read_pressure(handle)
        return pressure_to_altitude(pressure) - GROUND_ALTITUDE_M
