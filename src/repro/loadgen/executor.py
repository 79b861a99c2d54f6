"""Sharded, multiprocess fleet execution.

:class:`FleetHarness` drives every drone of a
:class:`~repro.loadgen.scenario.FleetScenario` serially inside one
simulator, so wall-clock grows linearly with fleet size.  But the fleet
is *embarrassingly partitionable*: drones never exchange messages, every
per-drone identity (node seed, order ids, planner RNG stream, chaos
plan) is derived from the global drone index, and all cross-drone state
(portal, storage, VDR) is keyed per tenant.  This module exploits that:

1. **Partition** the scenario into per-drone shards.
2. **Execute** each shard's full onboard stack — VDC, binder, flight,
   tenants — in a worker process via :class:`FleetHarness`'s
   ``drone_indices`` hook, with telemetry recorded on the shard's own
   registry.
3. **Merge** the per-shard :class:`~repro.loadgen.harness.FleetResult`
   fragments, invariant verdicts, and obs traces (re-sequenced on the
   sim clock) into one coherent result.

The merge is *behavior neutral*: for any scenario the merged parallel
result carries the same tenant stats, the same invariant verdicts, and
the same behavior-trace digest (events and spans, modulo merge order
and span-id renumbering) as the serial ``FleetHarness.run()`` —
``tests/loadgen/test_executor.py`` enforces this at 1, 2, and 4
workers, and the golden-trace digest pins the single-drone case
byte-for-byte.

Determinism notes:

* Worker scheduling does not matter: shards are merged by shard index
  and trace records by ``(t, shard order)``, so any interleaving of
  worker completions yields the identical merged artifact.
* The process start method defaults to ``fork`` where available
  (cheapest) and falls back to ``spawn``; override with the
  ``ANDRONE_MP_START`` environment variable.  Results are identical
  either way because each worker rebuilds its shard from the scenario
  JSON alone.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.loadgen.harness import FleetHarness, FleetResult, TenantStats
from repro.loadgen.invariants import InvariantViolation
from repro.loadgen.scenario import FleetScenario
from repro.obs.registry import TelemetryRegistry
from repro.obs.tracer import TraceRecord

#: Environment override for the multiprocessing start method.
MP_START_ENV = "ANDRONE_MP_START"

#: Record kinds that constitute observable behavior (vs. metric
#: snapshots, whose aggregation is summarised at export time).
BEHAVIOR_KINDS = ("event", "span_begin", "span_end")


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    override = os.environ.get(MP_START_ENV)
    if override:
        return override
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


# --------------------------------------------------------------------------- shards
@dataclass
class ShardOutcome:
    """Everything one worker ships back from running one shard."""

    indices: Tuple[int, ...]
    tenants: Dict[str, TenantStats]
    violations: List[InvariantViolation]
    invariant_checks: int
    restarts: int
    faults_injected: int
    waypoints_serviced: int
    duration_s: float
    wall_s: float
    #: trace-kind records (event/span_begin/span_end) in shard file order.
    trace: List[dict] = field(default_factory=list)
    #: instrument dumps: counters/gauges carry ``value``, histograms
    #: their raw ``samples`` so the merge can recompute exact summaries.
    instruments: List[dict] = field(default_factory=list)


def _dump_instruments(registry: TelemetryRegistry) -> List[dict]:
    rows = []
    for instrument in registry.instruments():
        row = {"kind": instrument.kind, "name": instrument.name,
               "labels": dict(instrument.labels)}
        if instrument.kind == "histogram":
            row["unit"] = instrument.unit
            row["samples"] = list(instrument.samples)
        else:
            row["value"] = instrument.value
        rows.append(row)
    return rows


def run_shard(scenario_json: str, indices: Sequence[int],
              trace: bool = False) -> ShardOutcome:
    """Run one shard of a scenario in *this* process.

    The executor calls this in worker processes; it is equally usable
    inline (``workers=0`` or tests).  Resets the process-wide telemetry
    registry, so do not call it mid-trace in a process whose registry
    you care about.
    """
    obs.reset()
    scenario = FleetScenario.from_json(scenario_json)
    start = time.perf_counter()
    harness = FleetHarness(scenario, drone_indices=list(indices))
    if trace:
        obs.enable(harness.system.sim)
    try:
        result = harness.run()
        registry = obs.get_registry()
        trace_records = [dict(r) for r in registry.tracer.records] \
            if trace else []
        instruments = _dump_instruments(registry) if trace else []
    finally:
        obs.reset()
    return ShardOutcome(
        indices=tuple(indices),
        tenants=result.tenants,
        violations=list(result.violations),
        invariant_checks=result.invariant_checks,
        restarts=result.restarts,
        faults_injected=result.faults_injected,
        waypoints_serviced=result.waypoints_serviced,
        duration_s=result.duration_s,
        wall_s=time.perf_counter() - start,
        trace=trace_records,
        instruments=instruments,
    )


def _run_shard_job(payload: Tuple[str, Tuple[int, ...], bool]
                   ) -> ShardOutcome:
    scenario_json, indices, trace = payload
    return run_shard(scenario_json, indices, trace=trace)


# --------------------------------------------------------------------------- merge
def merge_trace(shards: Iterable[ShardOutcome]) -> List[dict]:
    """K-way merge of shard traces on the sim clock.

    Records are ordered by ``(t, shard order)`` — stable, so two merges
    of the same shards are byte-identical — and span ids are renumbered
    into one global sequence (each shard's tracer counts from 1).
    """
    def stream(shard_pos, shard):
        # A genexpr here would late-bind shard_pos to the last shard.
        for seq, record in enumerate(shard.trace):
            yield (record["t"], shard_pos, seq), shard_pos, record

    streams = [stream(shard_pos, shard)
               for shard_pos, shard in enumerate(shards)]
    merged: List[dict] = []
    next_span_id = 1
    remap: Dict[Tuple[int, int], int] = {}
    for _, shard_pos, record in heapq.merge(*streams, key=lambda row: row[0]):
        record = dict(record)
        if "id" in record:
            key = (shard_pos, record["id"])
            if key not in remap:
                remap[key] = next_span_id
                next_span_id += 1
            record["id"] = remap[key]
        merged.append(record)
    return merged


def merge_instruments(shards: Iterable[ShardOutcome]) -> TelemetryRegistry:
    """Fold shard instrument dumps into one registry.

    Counters add; histograms pool their raw samples (percentiles are
    order-independent, so the pooled summary equals the serial one);
    for a gauge observed by several shards the maximum is kept — a
    point-in-time reading has no cross-process total, and the fleet-wide
    peak is the useful aggregate (``container.count``, ``vdc.tenants``).
    """
    registry = TelemetryRegistry()
    for shard in shards:
        for row in shard.instruments:
            labels = row["labels"]
            if row["kind"] == "counter":
                registry.counter(row["name"], **labels).inc(row["value"])
            elif row["kind"] == "gauge":
                gauge = registry.gauge(row["name"], **labels)
                gauge.set(max(gauge.value, row["value"]))
            else:
                histogram = registry.histogram(
                    row["name"], unit=row.get("unit", ""), **labels)
                for sample in row["samples"]:
                    histogram.observe(sample)
    return registry


def merge_results(scenario: FleetScenario,
                  shards: Sequence[ShardOutcome]) -> FleetResult:
    """One coherent :class:`FleetResult` from per-shard fragments."""
    tenants: Dict[str, TenantStats] = {}
    for shard in shards:
        overlap = set(tenants) & set(shard.tenants)
        if overlap:
            raise ValueError(
                f"shards overlap on tenants {sorted(overlap)}")
        tenants.update(shard.tenants)
    violations = sorted(
        (v for shard in shards for v in shard.violations),
        key=lambda v: (v.t_us, v.drone, v.rule, v.detail))
    return FleetResult(
        scenario=scenario,
        duration_s=max((s.duration_s for s in shards), default=0.0),
        waypoints_serviced=sum(s.waypoints_serviced for s in shards),
        tenants=tenants,
        violations=violations,
        invariant_checks=sum(s.invariant_checks for s in shards),
        restarts=sum(s.restarts for s in shards),
        faults_injected=sum(s.faults_injected for s in shards),
    )


# --------------------------------------------------------------------------- digests
def canonical_behavior(records: Iterable[dict]) -> List[str]:
    """The behavior trace in merge-order-independent canonical form.

    Keeps event/span records only, strips span ids (each tracer numbers
    privately), and orders by ``(t, serialized record)`` so any
    interleaving of independent same-timestamp records canonicalises
    identically.
    """
    canon = []
    for record in records:
        if record.get("kind") not in BEHAVIOR_KINDS:
            continue
        stripped = {k: v for k, v in record.items() if k != "id"}
        canon.append((stripped["t"], json.dumps(stripped, sort_keys=True)))
    canon.sort()
    return [line for _, line in canon]


def behavior_digest(records: Iterable[dict]) -> str:
    """SHA-256 over the canonical behavior trace."""
    payload = "\n".join(canonical_behavior(records))
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------------- executor
class ParallelFleetExecutor:
    """Run a :class:`FleetScenario` as per-drone shards across processes.

    >>> executor = ParallelFleetExecutor(scenario, workers=4)
    >>> result = executor.run()          # a FleetResult, as if serial
    >>> executor.export_jsonl("trace.jsonl")   # merged coherent trace

    ``workers`` caps process-level parallelism (defaults to
    ``min(drones, cpu_count)``); the shard count always equals the
    scenario's drone count, so results are identical for every worker
    count — only wall-clock changes.
    """

    def __init__(self, scenario: FleetScenario, workers: Optional[int] = None,
                 trace: Optional[bool] = None,
                 start_method: Optional[str] = None):
        self.scenario = scenario
        #: default: record traces iff the calling process is tracing.
        self.trace = obs.enabled() if trace is None else trace
        self.workers = workers if workers is not None else min(
            scenario.drones, os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.start_method = start_method or default_start_method()
        self.shards: List[ShardOutcome] = []
        self.merged_trace: List[dict] = []
        self.registry: Optional[TelemetryRegistry] = None
        self.merge_overhead_s = 0.0
        self.run_wall_s = 0.0

    # -- execution --------------------------------------------------------------
    def _payloads(self) -> List[Tuple[str, Tuple[int, ...], bool]]:
        scenario_json = self.scenario.to_json()
        return [(scenario_json, (index,), self.trace)
                for index in range(self.scenario.drones)]

    def run(self) -> FleetResult:
        start = time.perf_counter()
        payloads = self._payloads()
        if self.workers == 1 and len(payloads) == 1:
            # A one-shard fleet needs no pool (and no fork cost).
            outcomes = [_run_shard_job(payloads[0])]
        else:
            context = multiprocessing.get_context(self.start_method)
            processes = min(self.workers, len(payloads))
            with context.Pool(processes=processes) as pool:
                outcomes = pool.map(_run_shard_job, payloads, chunksize=1)
        merge_start = time.perf_counter()
        result = merge_results(self.scenario, outcomes)
        self.shards = outcomes
        if self.trace:
            self.merged_trace = merge_trace(outcomes)
            self.registry = merge_instruments(outcomes)
        self.merge_overhead_s = time.perf_counter() - merge_start
        self.run_wall_s = time.perf_counter() - start
        return result

    # -- artifacts --------------------------------------------------------------
    def trace_digest(self) -> str:
        """Canonical behavior digest of the merged trace."""
        return behavior_digest(self.merged_trace)

    def export_jsonl(self, target) -> int:
        """Write the merged trace + metric snapshot, like
        :func:`repro.obs.export_jsonl` does for a serial run."""
        if self.registry is None:
            raise RuntimeError("run() with trace=True before exporting")
        registry = self.registry
        last_t = self.merged_trace[-1]["t"] if self.merged_trace else 0
        registry.bind_clock(lambda: last_t)
        registry.tracer.records = [TraceRecord(r) for r in self.merged_trace]
        from repro.obs.export import write_jsonl

        return write_jsonl(registry, target)


def run_parallel(scenario: FleetScenario, workers: Optional[int] = None,
                 trace: Optional[bool] = None) -> FleetResult:
    """Convenience one-shot parallel run (see ParallelFleetExecutor)."""
    return ParallelFleetExecutor(
        scenario, workers=workers, trace=trace).run()
