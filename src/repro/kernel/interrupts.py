"""Interrupt sources.

Network and sensor hardware raise interrupts independent of thread
activity.  An :class:`IrqSource` periodically injects IRQ activity into
the kernel's accounting, feeding the preemption model (heavy interrupt
load is what stretches PREEMPT's non-preemptible windows in Figure 11).
"""

from __future__ import annotations


from repro.kernel.kernel import Kernel
from repro.sim import Periodic


class IrqSource:
    """A periodic interrupt generator (e.g. the NIC while iperf runs)."""

    def __init__(self, kernel: Kernel, name: str, rate_hz: float):
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        self.kernel = kernel
        self.name = name
        self.rate_hz = float(rate_hz)
        self._jitter = kernel.rng.stream(f"irq.{name}")
        self._loop = Periodic(kernel.sim, self._next_delay, kernel.note_irq)

    @property
    def period_us(self) -> float:
        return 1e6 / self.rate_hz

    def start(self) -> None:
        self._loop.start()

    def stop(self) -> None:
        self._loop.stop()

    def _next_delay(self) -> int:
        return max(1, int(self._jitter.expovariate(1.0) * self.period_us))
