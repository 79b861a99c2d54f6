"""SoC power model and battery-draw monitoring.

Calibrated to Section 6.4's Monsoon measurements: the Pi idles around
1.65 W (stock Android Things on its launcher), AnDrone with three idle
virtual drones draws ~1.7 W (all configurations within 3% of stock), and
a fully stressed system draws 3.4 W regardless of configuration.
Compute power "is insignificant when compared to the power draw of the
rest of the drone" (>100 W in flight) — which the monitor makes visible
by accounting both against the same battery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.battery import Battery, BatteryDepletedError
from repro.sim import Periodic


@dataclass
class PowerModel:
    """CPU-utilization-driven SoC power."""

    idle_w: float = 1.65
    max_w: float = 3.40
    #: extra standby draw per running container (page cache, daemons).
    per_container_w: float = 0.012

    def soc_power_w(self, cpu_utilization: float, containers: int = 0) -> float:
        """Power at a given average CPU utilization in [0, 1]."""
        utilization = min(1.0, max(0.0, cpu_utilization))
        return (self.idle_w
                + (self.max_w - self.idle_w) * utilization
                + self.per_container_w * containers)


#: The Pi 3's SoC power curve.
SOC_MODEL = PowerModel()
#: Sampling period of the power monitor: 1 s of sim time.
PERIOD_US = 1_000_000


class PowerMonitor:
    """Periodic sampler: turns kernel utilization and propulsion power
    into battery draw, attributed per tenant for billing."""

    def __init__(self, sim, kernel, battery: Battery,
                 physics=None, active_account=None):
        """``active_account`` is a zero-arg callable naming who currently
        holds flight control (the VDC's active tenant), or None."""
        self.sim = sim
        self.kernel = kernel
        self.battery = battery
        self.physics = physics
        self.active_account = active_account
        self._last_busy_us = 0.0
        self._last_sample_us = 0
        self._loop = Periodic(sim, PERIOD_US, self._sample)
        self.samples = []          # (time_us, soc_w, propulsion_w)
        self.containers = 0
        self.depleted = False

    def start(self) -> None:
        if self._loop.running:
            return
        self._last_busy_us = self.kernel.cpu_busy_integral_us()
        self._last_sample_us = self.sim.now
        self._loop.start(delay=PERIOD_US)

    def stop(self) -> None:
        self._loop.stop()

    def utilization_since_last(self) -> float:
        busy = self.kernel.cpu_busy_integral_us()
        span = max(1, self.sim.now - self._last_sample_us)
        cpus = self.kernel.config.num_cpus
        return min(1.0, (busy - self._last_busy_us) / (span * cpus))

    def _sample(self) -> None:
        span_s = (self.sim.now - self._last_sample_us) / 1e6
        utilization = self.utilization_since_last()
        soc_w = SOC_MODEL.soc_power_w(utilization, self.containers)
        propulsion_w = self.physics.propulsion_power_w() if self.physics else 0.0
        account = "platform"
        if self.active_account is not None:
            tenant = self.active_account()
            if tenant:
                account = tenant
        try:
            # Compute power is platform overhead; propulsion is billed to
            # whichever tenant is operating at its waypoint.
            self.battery.draw(soc_w, span_s, account="platform")
            if propulsion_w > 0:
                self.battery.draw(propulsion_w, span_s, account=account)
        except BatteryDepletedError:
            self.depleted = True
            self._loop.stop()
            return
        self.samples.append((self.sim.now, soc_w, propulsion_w))
        self._last_busy_us = self.kernel.cpu_busy_integral_us()
        self._last_sample_us = self.sim.now

    def average_soc_power_w(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s[1] for s in self.samples) / len(self.samples)
