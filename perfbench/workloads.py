"""The benchmark's workloads: build one through a public harness, run it,
and check and summarise what it did.

Workloads are data in ``spec.json``.  A ``fleet`` workload is one
:class:`repro.loadgen.FleetHarness` run; a ``city`` workload is one
:class:`repro.loadgen.CityHarness` run.  ``repro`` is imported inside
the functions here, never at module level, so a caller can time the
first import.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def workload_spec(name: str) -> Dict[str, Any]:
    for workload in load_spec()["workloads"]:
        if workload["name"] == name:
            return workload
    raise KeyError(f"unknown workload {name!r}")


def resolve_seed(workload: Dict[str, Any], seed: str) -> int:
    """``default`` and ``heldout`` name the workload's recorded seeds;
    anything else must be an integer."""
    if seed == "default":
        return workload["default_seed"]
    if seed == "heldout":
        return workload["heldout_seed"]
    return int(seed)


def subseeds(workload: Dict[str, Any], seed: int) -> List[int]:
    """The scenario seeds one benchmark run covers: ``seed`` itself,
    then ``subseeds - 1`` more derived from it.  Pooling several
    scenarios keeps a run's work from swinging with one seed's draws."""
    return [seed + k * 1_000_003 for k in range(workload["subseeds"])]


def nearest_rank(sorted_values: List[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Run:
    """One built workload instance: ``build`` is set-up, ``run`` the
    run phase, ``outcome`` the checked summary."""

    def __init__(self, workload: Dict[str, Any], seed: int):
        self.workload = workload
        self.seed = seed
        self.kind = workload["kind"]
        self.harness = None
        self.sim = None
        self.result = None
        #: order id -> sim us of its last non-interrupted flight_completed.
        self.completions: Dict[int, int] = {}
        self._restore: Optional[Callable[[], None]] = None
        self.sim_start_us = 0

    # -- set-up -----------------------------------------------------------------
    def build(self) -> None:
        if self.kind == "fleet":
            from repro.loadgen import FleetHarness, FleetScenario

            self._probe_completions()
            scenario = FleetScenario(seed=self.seed, **self.workload["scenario"])
            self.harness = FleetHarness(scenario)
            self.sim = self.harness.system.sim
        elif self.kind == "city":
            from repro.loadgen import CityHarness, CityScenario

            scenario = CityScenario(seed=self.seed, **self.workload["scenario"])
            self.harness = CityHarness(scenario)
            self.sim = self.harness.sim
        else:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        self.sim_start_us = self.sim.now

    def _probe_completions(self) -> None:
        """Record the sim time of each completed order at the portal.

        A handful of calls per run; it is not tracing, so it stays on in
        timed runs (the portal keeps no completion timestamps itself)."""
        from repro.cloud.portal import WebPortal

        original = WebPortal.flight_completed
        run = self

        def flight_completed(portal, order_id, result_links,
                             interrupted=False):
            if not interrupted:
                run.completions[order_id] = run.sim.now
            return original(portal, order_id, result_links,
                            interrupted=interrupted)

        WebPortal.flight_completed = flight_completed

        def restore() -> None:
            WebPortal.flight_completed = original
        self._restore = restore

    # -- run phase --------------------------------------------------------------
    def run(self) -> None:
        try:
            self.result = self.harness.run()
        finally:
            if self._restore is not None:
                self._restore()
                self._restore = None

    @property
    def sim_s(self) -> float:
        return (self.sim.now - self.sim_start_us) / 1e6

    # -- checks and summary -----------------------------------------------------
    def outcome(self) -> Dict[str, Any]:
        if self.kind == "fleet":
            return self._fleet_outcome()
        return self._city_outcome()

    def _fleet_outcome(self) -> Dict[str, Any]:
        result = self.result
        honest = result.honest
        submitted = len(honest)
        completed = sum(1 for s in honest.values() if s.completed)
        rejected = sum(1 for s in honest.values() if not s.admitted)
        failed = sum(1 for s in honest.values()
                     if s.admitted and not s.completed)
        tenant_orders = {order.definition.name: order_id for order_id, order
                         in self.harness.system.portal.orders.items()}
        # Every fleet order is admitted while the harness is built, before
        # the first simulated event, so admission is the run's sim start.
        latencies = sorted(
            (self.completions[tenant_orders[t]] - self.sim_start_us) / 1e6
            for t, s in honest.items()
            if s.completed and tenant_orders.get(t) in self.completions)
        checks = {
            "no invariant violations": not result.violations,
            "completed + failed + rejected == submitted":
                completed + failed + rejected == submitted,
            "portal completions match harness": len(latencies) == completed,
            "every honest tenant completes":
                submitted > 0 and completed == submitted,
        }
        if result.scenario.attack_mix:
            security = result.security or {}
            storm = result.order_storm or {}
            checks["attack frames rejected > 0"] = (
                security.get("channel_rejected", 0) > 0)
            checks["storm orders rate-limited > 0"] = (
                storm.get("rejected_rate", 0) > 0)
        return {
            "orders": {"submitted": submitted, "completed": completed,
                       "failed": failed, "rejected": rejected},
            "latencies_s": latencies,
            "digest": hashlib.sha256(
                result.to_json().encode("utf-8")).hexdigest(),
            "work": {
                "sim_s": self.sim_s,
                "waypoints_serviced": result.waypoints_serviced,
                "invariant_checks": result.invariant_checks,
                "attack_injected": result.attack_injected,
                "channel_rejected": (result.security or {}).get(
                    "channel_rejected", 0),
            },
            "checks": checks,
        }

    def _city_outcome(self) -> Dict[str, Any]:
        result = self.result
        records = self.harness.plane.records.values()
        latencies = sorted((r.completed_t_us - r.submitted_t_us) / 1e6
                           for r in records if r.state == "completed")
        accounted = (result.orders_completed + result.orders_failed
                     + result.orders_rejected)
        return {
            "orders": {"submitted": result.orders_submitted,
                       "completed": result.orders_completed,
                       "failed": result.orders_failed,
                       "rejected": result.orders_rejected},
            "latencies_s": latencies,
            "digest": result.digest,
            "work": {
                "sim_s": self.sim_s,
                "flights": result.flights,
                "invariant_checks": result.invariant_checks,
                "busy_retries": result.busy_retries,
                "capacity_retries": result.capacity_retries,
                "migrations_completed": result.migrations_completed,
            },
            "checks": {
                "no invariant violations":
                    not result.violations and not result.deadline_hit,
                "completed + failed + rejected == submitted":
                    accounted == result.orders_submitted,
                "records match result":
                    len(latencies) == result.orders_completed,
            },
        }
