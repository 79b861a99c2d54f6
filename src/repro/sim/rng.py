"""Named, seeded random streams.

Every stochastic model in the reproduction (preemption windows, sensor
noise, link latency, workload jitter) draws from its own named stream so
that adding randomness to one component never perturbs another, and any run
is reproducible from the single root seed.
"""

from __future__ import annotations

import hashlib
import random
from math import cos, log, sin, sqrt, tau
from typing import Dict, List, Sequence


class RngRegistry:
    """Hands out :class:`random.Random` instances keyed by stream name."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def fork(self, name: str) -> "RngRegistry":
        """Derive an independent child registry (e.g. one per drone)."""
        digest = hashlib.sha256(f"{self.seed}:fork:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))


def normals(rng: random.Random, sigmas: Sequence[float]) -> List[float]:
    """Zero-mean normal draws, one per entry of ``sigmas``.

    Bit for bit the values of ``[rng.gauss(0.0, s) for s in sigmas]``,
    leaving ``rng`` in the same state: the Box-Muller pairs are drawn
    exactly as :meth:`random.Random.gauss` draws them, the sine half of a
    pair is carried to the next draw, and a carry left by an earlier
    ``gauss`` call (``rng.gauss_next``) is consumed first, as is one left
    here by an odd count.  One call replaces ``len(sigmas)`` method calls
    on the sensor and physics hot paths.
    """
    random_ = rng.random
    carry = rng.gauss_next
    draws = []
    for sigma in sigmas:
        if carry is None:
            x2pi = random_() * tau
            g2rad = sqrt(-2.0 * log(1.0 - random_()))
            draws.append(0.0 + cos(x2pi) * g2rad * sigma)
            carry = sin(x2pi) * g2rad
        else:
            draws.append(0.0 + carry * sigma)
            carry = None
    rng.gauss_next = carry
    return draws
