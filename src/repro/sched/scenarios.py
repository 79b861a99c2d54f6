"""Exploration scenarios: seeded workloads run under one schedule each.

A scenario owns everything about one run *except* the same-tick order:
it builds a fresh simulator + stack, installs the tie-breaker it is
given, drives the workload to completion, and summarizes the run as a
:class:`~repro.sched.oracles.RunOutcome` — a canonical behavior digest
plus the structured state its oracle set inspects.

``neutral`` declares the schedule-neutrality claim: a neutral scenario's
digest covers only state that must be identical under *every* same-tick
schedule (per-sender sequences, conservation totals), so the explorer
holds it to the FIFO baseline bit for bit.  Non-neutral scenarios
(full-stack soaks whose traces legitimately reorder) are held to the
invariant oracles instead.

The registry (``SCENARIOS``/:func:`make_scenario`) is what the
``repro.sched`` CLI and ``make explore`` enumerate:

* ``binder-burst`` — concurrent async binder senders over the batched
  flush; the rig behind the sender-order regression fixture.
* ``storm-smoke`` — one-drone/one-tenant device-service call storm
  through the full onboard stack (fleet harness + invariant monitor).
* ``city-smoke`` — a small sharded control-plane run (placement,
  migration, admission) on the city harness.
* ``fig10-smoke`` — a bounded slice of the paper's fig10 PassMark
  workload on the simulated kernel.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

import repro.obs as obs
from repro.obs.export import trace_records
from repro.sched.oracles import RunOutcome

#: Wall-clock histograms are the one nondeterministic instrument; drop
#: them from digests exactly like the golden-trace test does.
WALL_CLOCK_UNIT = "us-wall"


def digest_of(payload) -> str:
    """Canonical sha256 of any JSON-serializable behavior summary."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _filtered_records(registry) -> List[dict]:
    """Exported records minus wall-clock-derived instruments."""
    return [r for r in trace_records(registry)
            if r.get("unit") != WALL_CLOCK_UNIT]


class ExplorationScenario:
    """Base: subclasses define ``name``/``neutral``/``oracles`` and
    :meth:`_execute`; :meth:`run` wraps it with obs bookkeeping."""

    name = "scenario"
    title = ""
    #: digest must match the FIFO baseline under every schedule?
    neutral = False
    #: oracle names from repro.sched.oracles.ORACLES, checked every run.
    oracles = ("monotone-clock",)

    def run(self, tie_breaker,
            schedule_id: Optional[str] = None) -> RunOutcome:
        """Execute under ``tie_breaker``; fresh stack, isolated obs.

        ``tie_breaker=None`` runs the scenario in plain FIFO heap order
        with no tie-breaker consulted — the reference the tie-break
        equivalence tests hold ``FifoTieBreaker`` to.
        """
        obs.reset()
        if schedule_id is not None:
            obs.set_trace_context(schedule=schedule_id)
        try:
            outcome = self._execute(tie_breaker)
        finally:
            obs.clear_trace_context()
            obs.reset()
        outcome.scenario = self.name
        outcome.schedule_id = schedule_id
        if tie_breaker is not None:
            outcome.decisions = list(tie_breaker.decisions)
            outcome.meta = list(tie_breaker.meta)
        return outcome

    def _execute(self, tie_breaker) -> RunOutcome:
        raise NotImplementedError


class BinderBurstScenario(ExplorationScenario):
    """Concurrent one-way binder senders racing through one driver.

    Each sender is an event chain (``key="sender<g>"``) submitting
    ``transact_async`` messages; chains overlap within ticks so the
    same-tick set always holds several senders plus the flush/delivery
    events.  The digest covers only per-sender sequences and totals —
    state the batched-flush contract promises is schedule-neutral.
    """

    name = "binder-burst"
    title = "async binder senders vs the batched flush"
    neutral = True
    oracles = ("sender-order", "balanced-async", "monotone-clock")

    #: messages switch to a later tick every STAGGER_EVERY submissions,
    #: so the run exercises cross-tick batches, not one giant tick.
    STAGGER_EVERY = 3

    def __init__(self, senders: int = 3, messages: int = 6):
        self.senders = senders
        self.messages = messages

    def _execute(self, tie_breaker) -> RunOutcome:
        from repro.binder import BinderDriver, ServiceManager
        from repro.kernel.namespaces import NamespaceSet
        from repro.sim import Simulator

        sim = Simulator()
        driver = BinderDriver(device_container_name="device")
        driver.bind_sim(sim)
        ns = NamespaceSet("vd1")
        server = driver.open(100, 1000, "vd1", ns.device_ns)
        manager = ServiceManager(server, is_device_container=False)
        calls: List[Dict] = []

        def handler(txn):
            calls.append(dict(txn.data))
            return {"sender": txn.data["sender"], "idx": txn.data["idx"]}

        manager.register("Echo", server.create_node(handler, "echo"))
        replies: List[Dict] = []
        clients = []
        handles = []
        for g in range(self.senders):
            client = driver.open(200 + g, 1000, "vd1", ns.device_ns)
            clients.append(client)
            handles.append(client.transact(0, "get", {"name": "Echo"})
                           ["service"])

        def submit(g: int, i: int) -> None:
            clients[g].transact_async(
                handles[g], "ping", {"sender": g, "idx": i},
                on_reply=replies.append)
            if i + 1 < self.messages:
                delay = 10 if (i + 1) % self.STAGGER_EVERY == 0 else 0
                sim.after(delay, lambda: submit(g, i + 1),
                          key=f"sender{g}")

        for g in range(self.senders):
            sim.at(0, lambda g=g: submit(g, 0), key=f"sender{g}")
        sim.set_tie_breaker(tie_breaker)
        executed = sim.run()
        sim.set_tie_breaker(None)

        orders: Dict[str, List[int]] = {}
        for record in replies:
            orders.setdefault(f"s{record['sender']}-replies",
                              []).append(record["idx"])
        for record in calls:
            orders.setdefault(f"s{record['sender']}-calls",
                              []).append(record["idx"])
        final = {
            "sender_reply_orders": orders,
            "async_pending": driver.async_pending(),
            "missing_replies": self.senders * self.messages - len(replies),
            "messages": self.senders * self.messages,
        }
        return RunOutcome(scenario=self.name, digest=digest_of(final),
                          final=final, executed=executed)


class StormSmokeScenario(ExplorationScenario):
    """One-drone, one-tenant device-service storm on the full stack."""

    name = "storm-smoke"
    title = "device-service storm through the fleet harness"
    neutral = False
    oracles = ("monotone-clock", "balanced-async", "allotment", "vfc-legal")

    def __init__(self, seed: int = 2024):
        self.seed = seed

    def _execute(self, tie_breaker) -> RunOutcome:
        from repro.loadgen.scenario import FleetScenario
        from repro.loadgen.harness import FleetHarness
        from repro.loadgen.invariants import TIME_SLACK_S
        from repro.mavproxy.vfc import VfcState

        harness = FleetHarness(FleetScenario(
            seed=self.seed, drones=1, tenants_per_drone=1,
            workload_mix=["storm"]))
        registry = obs.enable(harness.system.sim)
        harness.system.sim.set_tie_breaker(tie_breaker)
        result = harness.run()
        harness.system.sim.set_tie_breaker(None)

        allotments = {}
        vfc_illegal = {}
        async_pending = 0
        for slot in harness.slots:
            node = slot.node
            async_pending += node.driver.async_pending()
            for tenant, drone in node.vdc.drones.items():
                allotments[tenant] = {
                    "used": node.vdc.time_used(tenant),
                    "allotted": drone.definition.max_duration_s,
                    "slack": TIME_SLACK_S,
                }
                stats = result.tenants.get(tenant)
                if (stats is not None and stats.completed
                        and drone.vfc.state not in (VfcState.INACTIVE,
                                                    VfcState.FINISHED)):
                    vfc_illegal[tenant] = drone.vfc.state.name
        records = _filtered_records(registry)
        final = {
            "violations": [str(v) for v in result.violations],
            "allotments": allotments,
            "vfc_illegal": vfc_illegal,
            "async_pending": async_pending,
            "tenants_completed": len(result.completed),
            "waypoints_serviced": result.waypoints_serviced,
        }
        digest = digest_of([json.dumps(r, sort_keys=True) for r in records])
        return RunOutcome(scenario=self.name, digest=digest, final=final,
                          records=records)


class CitySmokeScenario(ExplorationScenario):
    """A small sharded control-plane run: placement, migration,
    admission, and the decision-journal digest."""

    name = "city-smoke"
    title = "sharded control plane (placement + migration)"
    neutral = False
    oracles = ("monotone-clock", "allotment")

    def __init__(self, seed: int = 42):
        self.seed = seed

    def _execute(self, tie_breaker) -> RunOutcome:
        from repro.loadgen.city import CityHarness, CityScenario

        harness = CityHarness(CityScenario(
            seed=self.seed, shards=2, drones=4, orders=16,
            migration_every=8))
        registry = obs.enable(harness.sim)
        harness.sim.set_tie_breaker(tie_breaker)
        result = harness.run()
        harness.sim.set_tie_breaker(None)

        violations = [str(v) for v in result.violations]
        accounted = (result.orders_completed + result.orders_failed
                     + result.orders_rejected)
        if accounted != result.orders_submitted:
            violations.append(
                f"order conservation: {result.orders_submitted} submitted "
                f"but {accounted} accounted for")
        records = _filtered_records(registry)
        final = {
            "violations": violations,
            "orders_completed": result.orders_completed,
            "orders_failed": result.orders_failed,
            "flights": result.flights,
            "journal_digest": result.digest,
        }
        return RunOutcome(scenario=self.name, digest=result.digest,
                          final=final, records=records)


class Fig10SmokeScenario(ExplorationScenario):
    """A bounded slice of the fig10 PassMark workload on the simulated
    kernel — the scheduler-heaviest event stream in the repo."""

    name = "fig10-smoke"
    title = "fig10 PassMark slice on the simulated kernel"
    neutral = False
    oracles = ("monotone-clock",)

    def __init__(self, seed: int = 1, until_us: int = 3_000_000,
                 max_events: int = 300_000):
        self.seed = seed
        self.until_us = until_us
        self.max_events = max_events

    def _execute(self, tie_breaker) -> RunOutcome:
        from repro.kernel import Kernel, KernelConfig, PreemptionMode
        from repro.sim import RngRegistry, Simulator
        from repro.workloads.passmark import PassMarkInstance

        sim = Simulator()
        registry = obs.enable(sim)
        kernel = Kernel(sim, RngRegistry(self.seed),
                        KernelConfig(preemption=PreemptionMode.PREEMPT))
        instance = PassMarkInstance(
            kernel,
            lambda prog, name, **kw: kernel.spawn(
                prog, name=name, container="vd1", **kw),
            label="pm0")
        instance.start()
        sim.set_tie_breaker(tie_breaker)
        executed = sim.run(until=self.until_us, max_events=self.max_events)
        sim.set_tie_breaker(None)
        records = _filtered_records(registry)
        digest = digest_of([json.dumps(r, sort_keys=True) for r in records])
        return RunOutcome(scenario=self.name, digest=digest,
                          final={"executed": executed}, records=records,
                          executed=executed)


#: Name -> scenario class, what the CLI / make explore enumerate.
SCENARIOS = {
    BinderBurstScenario.name: BinderBurstScenario,
    StormSmokeScenario.name: StormSmokeScenario,
    CitySmokeScenario.name: CitySmokeScenario,
    Fig10SmokeScenario.name: Fig10SmokeScenario,
}


def make_scenario(name: str, **overrides) -> ExplorationScenario:
    """Instantiate a registered scenario (kwargs tune smoke sizes)."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}: choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name](**overrides)
