"""Weather: the 'unpredictable events' that interrupt flights.

"It is possible that the task a user wishes to perform is unable to be
completed on a drone for various reasons, including ... unpredictable
events such as inclement weather.  In these cases, virtual drones are
instructed to save their current state so that they can be resumed on a
later flight" (Section 2).

The service models wind as a bounded random walk on the simulation clock,
optionally couples it into the flight physics (so deteriorating weather
really does push the vehicle around), and provides the abort predicate
the mission runner polls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim import Periodic


@dataclass
class WeatherSample:
    """Conditions at one instant."""

    time_us: int
    wind_speed_ms: float
    wind_direction_rad: float   # direction the wind blows TOWARD
    gust_ms: float

    def wind_enu(self) -> Tuple[float, float, float]:
        return (
            self.wind_speed_ms * math.sin(self.wind_direction_rad),
            self.wind_speed_ms * math.cos(self.wind_direction_rad),
            0.0,
        )


class WeatherService:
    """Evolving wind conditions shared by planner and mission runner."""

    def __init__(self, sim, rng, base_wind_ms: float = 2.0,
                 volatility_ms: float = 0.5, max_wind_ms: float = 18.0,
                 update_period_us: int = 5_000_000):
        self.sim = sim
        self._rng = rng
        self.base_wind_ms = base_wind_ms
        self.volatility_ms = volatility_ms
        self.max_wind_ms = max_wind_ms
        self.update_period_us = update_period_us
        self._speed = base_wind_ms
        self._direction = rng.uniform(0.0, 2.0 * math.pi)
        self._last_update_us = sim.now
        self._physics = None
        self._loop = Periodic(sim, update_period_us, self._apply)

    # -- state evolution ------------------------------------------------------------
    def _evolve(self) -> None:
        now = self.sim.now
        steps = max(1, (now - self._last_update_us) // self.update_period_us)
        for _ in range(min(steps, 200)):
            # Mean-reverting random walk (wind regresses to the forecast
            # base but can build into a front).
            pull = 0.08 * (self.base_wind_ms - self._speed)
            self._speed += pull + self._rng.gauss(0.0, self.volatility_ms)
            self._speed = min(self.max_wind_ms, max(0.0, self._speed))
            self._direction += self._rng.gauss(0.0, 0.15)
        self._last_update_us = now

    def current(self) -> WeatherSample:
        self._evolve()
        gust = self._speed + abs(self._rng.gauss(0.0, self._speed * 0.3))
        return WeatherSample(self.sim.now, self._speed,
                             self._direction % (2 * math.pi), gust)

    def set_storm(self, wind_ms: float) -> None:
        """Force conditions (tests and scripted scenarios)."""
        self._speed = min(self.max_wind_ms, wind_ms)
        self._last_update_us = self.sim.now

    # -- flight integration -----------------------------------------------------------
    def couple_to_physics(self, physics) -> None:
        """Continuously apply the wind to a vehicle's dynamics."""
        self._physics = physics
        self._loop.start()

    def _apply(self) -> None:
        if self._physics is not None:
            self._physics.wind_enu = self.current().wind_enu()

    def stop(self) -> None:
        self._loop.stop()

    # -- decision helpers --------------------------------------------------------------
    def safe_to_launch(self, limit_ms: float = 10.0) -> bool:
        return self.current().wind_speed_ms <= limit_ms

    def abort_reason(self, limit_ms: float = 10.0) -> Optional[str]:
        """The mission runner's poll: a reason string to abort, or None."""
        sample = self.current()
        if sample.wind_speed_ms > limit_ms:
            return (f"inclement weather: wind {sample.wind_speed_ms:.1f} m/s "
                    f"exceeds {limit_ms:.1f} m/s limit")
        return None
