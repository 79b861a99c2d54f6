"""The Dorling et al. multirotor energy consumption model.

Dorling, Heinrichs, Messier & Magierowski, "Vehicle Routing Problems for
Drone Delivery" (IEEE T-SMC 2017) derive hover power from helicopter
momentum theory:

    P = (W^3 / (2 * rho * zeta * n))^(1/2)

with W the all-up weight (N), rho air density, zeta the rotor disk area,
and n the rotor count — i.e. power grows with mass^(3/2).  We add an
electrical/propulsive efficiency, a constant avionics draw, and a
parasite-drag term for forward flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GRAVITY = 9.80665


class EnergyModelError(ValueError):
    """Physically meaningless input to the energy model (negative
    distance, non-positive speed).  Subclasses ``ValueError`` so callers
    that caught the bare error this used to surface as keep working."""


@dataclass
class DroneEnergyModel:
    """Energy model for one drone type (defaults: the F450 prototype)."""

    frame_mass_kg: float = 1.1          # airframe + electronics
    battery_mass_kg: float = 0.4
    rotor_count: int = 4
    rotor_radius_m: float = 0.120       # 9.5" props
    air_density: float = 1.225
    efficiency: float = 0.55            # motor+ESC+prop figure of merit
    avionics_w: float = 5.0             # Pi + Navio2 + radios
    parasite_drag_coeff: float = 0.04   # W per (m/s)^3
    battery_capacity_j: float = 55.5 * 3600 * 0.85

    @property
    def base_mass_kg(self) -> float:
        return self.frame_mass_kg + self.battery_mass_kg

    def disk_area_m2(self) -> float:
        return math.pi * self.rotor_radius_m ** 2

    def hover_power_w(self, payload_kg: float = 0.0) -> float:
        """Dorling's induced-power hover model."""
        weight_n = (self.base_mass_kg + payload_kg) * GRAVITY
        induced = math.sqrt(
            weight_n ** 3 / (2.0 * self.air_density * self.disk_area_m2()
                             * self.rotor_count)
        )
        return induced / self.efficiency + self.avionics_w

    def cruise_power_w(self, speed_ms: float, payload_kg: float = 0.0) -> float:
        """Forward flight: induced power falls slightly with speed, but
        parasite drag grows with its cube; the classic bathtub curve."""
        if speed_ms < 0:
            raise EnergyModelError("speed must be non-negative")
        hover = self.hover_power_w(payload_kg)
        induced_relief = 1.0 / math.sqrt(1.0 + (speed_ms / 8.0) ** 2)
        induced_part = (hover - self.avionics_w) * max(0.7, induced_relief)
        parasite = self.parasite_drag_coeff * speed_ms ** 3
        return induced_part + parasite + self.avionics_w

    def best_range_speed_ms(self) -> float:
        """Speed minimizing energy per meter (scan the bathtub curve)."""
        best_speed, best_cost = 1.0, float("inf")
        for dm in range(10, 200):
            speed = dm / 10.0
            cost = self.cruise_power_w(speed) / speed
            if cost < best_cost:
                best_speed, best_cost = speed, cost
        return best_speed

    def leg_energy_j(self, distance_m: float, speed_ms: float,
                     payload_kg: float = 0.0) -> float:
        """Energy to fly a straight leg at constant speed."""
        if distance_m < 0:
            raise EnergyModelError("distance must be non-negative")
        if speed_ms <= 0:
            raise EnergyModelError("speed must be positive")
        return self.cruise_power_w(speed_ms, payload_kg) * (distance_m / speed_ms)

    def endurance_s(self, payload_kg: float = 0.0,
                    battery_j: float = None) -> float:
        """Hover endurance on a full (usable) battery — the flight-time
        estimate the portal shows when ordering (Section 2)."""
        budget = battery_j if battery_j is not None else self.battery_capacity_j
        return budget / self.hover_power_w(payload_kg)
