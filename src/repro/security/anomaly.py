"""Windowed anomaly detection over guard and channel decisions.

The rate guards and secure-channel endpoints report every rejection
here, attributed to ``(edge, tenant)``.  The detector buckets them into
fixed sim-time windows and applies a two-threshold hysteresis:

* a tenant whose rejections meet ``threshold`` in each of
  ``sustain_windows`` consecutive windows is **flagged** (the flood is
  sustained, not a burst riding a refill boundary);
* a flagged tenant with ``clear_windows`` consecutive quiet windows is
  **cleared** (pressure is gone; the simplex controller restores it).

Listeners subscribe with :meth:`on_flag`/:meth:`on_clear` — the simplex
safety controller quarantines/demotes on flag and restores on clear,
and :class:`~repro.loadgen.invariants.InvariantMonitor.watch_security`
asserts every flagged tenant is actually contained.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import repro.obs as obs
from repro.security.errors import SecurityConfigError
from repro.sim import Periodic


class AnomalyDetector:
    """Per-tenant sliding-window rejection scorer with hysteresis."""

    def __init__(self, sim, window_s: float = 1.0, threshold: int = 10,
                 sustain_windows: int = 2, clear_windows: int = 2):
        if window_s <= 0:
            raise SecurityConfigError(
                f"window_s must be positive, got {window_s}")
        if threshold < 1 or sustain_windows < 1 or clear_windows < 1:
            raise SecurityConfigError(
                "threshold, sustain_windows and clear_windows must be >= 1")
        self.sim = sim
        self.window_us = int(window_s * 1e6)
        self.threshold = threshold
        self.sustain_windows = sustain_windows
        self.clear_windows = clear_windows
        self.windows = 0
        #: tenant -> {"edge": dominant edge, "since_us": flag time}.
        self.flagged: Dict[str, Dict] = {}
        self.flags_raised = 0
        self.flags_cleared = 0
        self._rejections: Dict[Tuple[str, str], int] = {}
        self._hot_streak: Dict[str, int] = {}
        self._quiet_streak: Dict[str, int] = {}
        self._on_flag: List[Callable[[str, str, int], None]] = []
        self._on_clear: List[Callable[[str], None]] = []
        self._loop = Periodic(sim, self.window_us, self._close_window,
                              key="sec.anomaly")

    # -- wiring ---------------------------------------------------------------
    def on_flag(self, fn: Callable[[str, str, int], None]) -> "AnomalyDetector":
        """``fn(tenant, edge, rejections)`` when a tenant is flagged."""
        self._on_flag.append(fn)
        return self

    def on_clear(self, fn: Callable[[str], None]) -> "AnomalyDetector":
        self._on_clear.append(fn)
        return self

    def is_flagged(self, tenant: str) -> bool:
        return tenant in self.flagged

    # -- the feed (guards and channel endpoints call this) ---------------------
    def record(self, edge: str, tenant: str, admitted: bool,
               reason: str = "") -> None:
        if admitted:
            return
        key = (tenant, edge)
        self._rejections[key] = self._rejections.get(key, 0) + 1

    # -- the window sweep ------------------------------------------------------
    def start(self) -> "AnomalyDetector":
        self._loop.start(delay=self.window_us)
        return self

    def stop(self) -> None:
        self._loop.stop()

    def _close_window(self) -> None:
        self.windows += 1
        window, self._rejections = self._rejections, {}
        totals: Dict[str, int] = {}
        hot_edge: Dict[str, Tuple[int, str]] = {}
        for (tenant, edge), count in sorted(window.items()):
            totals[tenant] = totals.get(tenant, 0) + count
            best = hot_edge.get(tenant)
            if best is None or count > best[0]:
                hot_edge[tenant] = (count, edge)
        for tenant, total in totals.items():
            if total < self.threshold:
                continue
            streak = self._hot_streak.get(tenant, 0) + 1
            self._hot_streak[tenant] = streak
            self._quiet_streak.pop(tenant, None)
            if streak >= self.sustain_windows and tenant not in self.flagged:
                self._flag(tenant, hot_edge[tenant][1], total)
        for tenant in list(self._hot_streak):
            if totals.get(tenant, 0) < self.threshold:
                self._hot_streak.pop(tenant, None)
        for tenant in list(self.flagged):
            if totals.get(tenant, 0) > 0:
                self._quiet_streak.pop(tenant, None)
                continue
            quiet = self._quiet_streak.get(tenant, 0) + 1
            self._quiet_streak[tenant] = quiet
            if quiet >= self.clear_windows:
                self._clear(tenant)

    def _flag(self, tenant: str, edge: str, rejections: int) -> None:
        self.flags_raised += 1
        self.flagged[tenant] = {"edge": edge, "since_us": self.sim.now}
        obs.counter("sec.anomaly.flags", tenant=tenant, edge=edge).inc()
        obs.event("sec.anomaly.flagged", tenant=tenant, edge=edge,
                  rejections=rejections)
        for fn in self._on_flag:
            fn(tenant, edge, rejections)

    def _clear(self, tenant: str) -> None:
        self.flags_cleared += 1
        info = self.flagged.pop(tenant)
        self._quiet_streak.pop(tenant, None)
        held_s = (self.sim.now - info["since_us"]) / 1e6
        obs.event("sec.anomaly.cleared", tenant=tenant, edge=info["edge"],
                  held_s=round(held_s, 3))
        for fn in self._on_clear:
            fn(tenant)
