"""Discrete-event simulation core.

Everything in the reproduction runs on top of this package: the simulated
Linux kernel, network links, the flight controller loop, and the cloud
service all advance a single shared virtual clock managed by a
:class:`~repro.sim.simulator.Simulator`.

Time is kept as an integer number of **microseconds** to avoid floating
point drift over long runs; helpers for converting to and from seconds and
milliseconds live in :mod:`repro.sim.time`.

Determinism: all randomness must come from named streams obtained from a
:class:`~repro.sim.rng.RngRegistry` so that a run is reproducible
bit-for-bit from its root seed.
"""

from repro.sim.simulator import Event, Simulator
from repro.sim.periodic import Periodic
from repro.sim.process import Process, Timeout
from repro.sim.rng import RngRegistry
from repro.sim.time import MICROS_PER_MS, MICROS_PER_SEC, micros, millis, seconds

__all__ = [
    "Event",
    "Simulator",
    "Periodic",
    "Process",
    "Timeout",
    "RngRegistry",
    "MICROS_PER_MS",
    "MICROS_PER_SEC",
    "micros",
    "millis",
    "seconds",
]
