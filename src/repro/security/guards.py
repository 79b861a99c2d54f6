"""Per-tenant token-bucket rate guards for the abuse edges.

One :class:`RateGuard` sits at each edge an adversarial tenant can
hammer — portal orders (:mod:`repro.cloud.admission`), binder
transactions (:mod:`repro.binder.driver`), MAVLink command ingress
(:mod:`repro.mavproxy`) — throttling each tenant to ``rate_per_s`` with
``burst`` headroom.  The refill is pure arithmetic over the sim clock
(``tokens = min(burst, tokens + elapsed * rate)``), so two same-tick
requests see identical token counts under any event schedule — the
schedule-parametrized tests in ``tests/sched`` hold it to that.

Guards emit ``sec.guard.*`` metrics, report every decision to the
windowed :class:`~repro.security.anomaly.AnomalyDetector`, and support
**quarantine**: once the simplex controller demotes a tenant, every
request from it is refused (``retry_after_s = inf``) until the detector
clears.

The hot path is one attribute load and a set lookup when the caller is
exempt (platform containers), and a dict-backed bucket update
otherwise; with telemetry off the guard makes no call into
:mod:`repro.obs`, so a guarded binder route stays within the <5%
overhead budget ``benchmarks/bench_abuse.py`` gates.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Iterable, Set

import repro.obs as obs
from repro.security.errors import RateLimitError, SecurityConfigError


class RateGuard:
    """A per-key token bucket at one abuse edge."""

    def __init__(self, clock: Callable[[], float], edge: str,
                 rate_per_s: float, burst: int,
                 exempt: Iterable[str] = (), detector=None):
        if rate_per_s <= 0:
            raise SecurityConfigError(
                f"rate_per_s must be positive, got {rate_per_s}")
        if burst < 1:
            raise SecurityConfigError(f"burst must be >= 1, got {burst}")
        self.clock = clock
        self.edge = edge
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.exempt: FrozenSet[str] = frozenset(exempt)
        self.detector = detector
        self.admitted = 0
        self.rejected = 0
        self.quarantined: Set[str] = set()
        self._tokens: Dict[str, float] = {}
        self._last_refill: Dict[str, float] = {}

    # -- the gate -------------------------------------------------------------
    def try_admit(self, key: str) -> bool:
        """Admit one request for ``key``; False means throttled."""
        if key in self.exempt:
            return True
        if key in self.quarantined:
            self._reject(key, reason="quarantine")
            return False
        now = self.clock()
        tokens = self._tokens.get(key, float(self.burst))
        last = self._last_refill.get(key, now)
        tokens = min(float(self.burst), tokens + (now - last) * self.rate_per_s)
        self._last_refill[key] = now
        if tokens < 1.0:
            self._tokens[key] = tokens
            self._reject(key, reason="rate")
            return False
        self._tokens[key] = tokens - 1.0
        self.admitted += 1
        if obs.on:
            obs.counter("sec.guard.admitted", edge=self.edge,
                        tenant=key).inc()
        if self.detector is not None:
            self.detector.record(self.edge, key, admitted=True)
        return True

    def admit(self, key: str) -> None:
        """Admit or raise :class:`RateLimitError` (typed, with a
        deterministic retry hint)."""
        if self.try_admit(key):
            return
        if key in self.quarantined:
            raise RateLimitError(
                f"{self.edge}: tenant {key!r} is quarantined pending "
                f"anomaly clear", edge=self.edge, tenant=key,
                retry_after_s=math.inf)
        deficit = 1.0 - self._tokens.get(key, 0.0)
        raise RateLimitError(
            f"{self.edge}: rate limit for {key!r} "
            f"({self.rate_per_s:.1f}/s, burst {self.burst}) exceeded",
            edge=self.edge, tenant=key,
            retry_after_s=deficit / self.rate_per_s)

    def _reject(self, key: str, reason: str) -> None:
        self.rejected += 1
        if obs.on:
            obs.counter("sec.guard.rejected", edge=self.edge, tenant=key,
                        reason=reason).inc()
        if self.detector is not None:
            self.detector.record(self.edge, key, admitted=False,
                                 reason=reason)

    # -- quarantine (driven by the simplex controller) -------------------------
    def quarantine(self, key: str) -> None:
        if key not in self.quarantined:
            self.quarantined.add(key)
            obs.event("sec.guard.quarantined", edge=self.edge, tenant=key)

    def release(self, key: str) -> None:
        if key in self.quarantined:
            self.quarantined.discard(key)
            obs.event("sec.guard.released", edge=self.edge, tenant=key)

    def snapshot(self) -> Dict[str, float]:
        return {"edge": self.edge, "admitted": self.admitted,
                "rejected": self.rejected,
                "quarantined": sorted(self.quarantined)}
