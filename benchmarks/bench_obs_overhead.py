"""Telemetry overhead: the obs layer must be cheap enough to leave on.

Two measurements:

1. **Per-op cost** of the module-level helpers with telemetry disabled
   (the null-recorder path every instrumented call site takes by default)
   and enabled — nanoseconds per ``counter().inc()``.
2. **Whole-workload overhead** on the Figure 10 PassMark workload (the
   repo's canonical CPU-bound run): wall-clock with telemetry enabled vs
   disabled, best-of-N to squeeze out scheduler noise.

Both timings are information only: on ~0.15-s runs on a shared host they
swing by tens of percent on identical code.  The gate counts work
instead.  One counted fig10 run plus ``COUNTED_OPS`` helper calls per
mode must schedule the same sim events and score the same with telemetry
off and on; with it off nothing reaches the registry
(``TelemetryRegistry.intern``), and with it on exactly
``WORKLOAD_INTERNS`` lookups for the run plus one per helper call do.
"""

import pathlib
import sys
import time

import repro.obs as obs
from repro.analysis import render_table
from repro.kernel import PreemptionMode
from repro.obs.registry import TelemetryRegistry
from repro.sim.simulator import Simulator

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from bench_fig10_runtime_overhead import run_instances  # noqa: E402

OPS = 200_000
ROUNDS = 7
COUNTED_OPS = 1_000
#: Registry lookups of one fig10 run with telemetry on.
WORKLOAD_INTERNS = 5
WORK_CALLS = {"sim_events": (Simulator, "at"),
              "interns": (TelemetryRegistry, "intern")}


def _time_ops(n: int) -> float:
    """ns per obs.counter(...).inc() in the current telemetry mode."""
    start = time.perf_counter_ns()
    for _ in range(n):
        obs.counter("bench.ops", path="hot").inc()
    return (time.perf_counter_ns() - start) / n


def _time_workload() -> float:
    """Best-of-ROUNDS wall-clock seconds for the fig10 workload."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run_instances(1, PreemptionMode.PREEMPT)
        best = min(best, time.perf_counter() - start)
    return best


def _count_work(count_calls) -> dict:
    """``WORK_CALLS`` counts of one fig10 run plus ``COUNTED_OPS`` helper
    calls in the current telemetry mode, and the run's PassMark scores."""
    with count_calls(WORK_CALLS) as counts:
        scores = run_instances(1, PreemptionMode.PREEMPT)
        for _ in range(COUNTED_OPS):
            obs.counter("bench.ops", path="hot").inc()
    return dict(counts, scores=(scores.cpu, scores.disk, scores.memory))


def run_overhead(count_calls):
    obs.reset()
    ns_disabled = _time_ops(OPS)
    workload_disabled = _time_workload()
    work_disabled = _count_work(count_calls)
    obs.enable()
    try:
        ns_enabled = _time_ops(OPS)
        workload_enabled = _time_workload()
        work_enabled = _count_work(count_calls)
    finally:
        obs.reset()
    return {
        "ns_disabled": ns_disabled,
        "ns_enabled": ns_enabled,
        "workload_disabled_s": workload_disabled,
        "workload_enabled_s": workload_enabled,
        "overhead": workload_enabled / workload_disabled,
        "work_disabled": work_disabled,
        "work_enabled": work_enabled,
    }


def test_obs_overhead(benchmark, record_result, metrics_registry,
                      export_metrics, count_calls):
    results = benchmark.pedantic(run_overhead, args=(count_calls,),
                                 rounds=1, iterations=1)
    off, on = results["work_disabled"], results["work_enabled"]
    overhead_pct = (results["overhead"] - 1.0) * 100.0
    record_result("obs_overhead", render_table(
        ["Measurement", "Disabled", "Enabled"],
        [("counter inc (ns/op)", round(results["ns_disabled"], 1),
          round(results["ns_enabled"], 1)),
         ("fig10 workload (s, best of %d)" % ROUNDS,
          round(results["workload_disabled_s"], 4),
          round(results["workload_enabled_s"], 4)),
         ("workload overhead", "1.000x",
          f"{results['overhead']:.3f}x ({overhead_pct:+.1f}%)"),
         ("fig10 sim events (counted run)", off["sim_events"],
          on["sim_events"]),
         (f"registry lookups (run + {COUNTED_OPS} incs)", off["interns"],
          on["interns"])],
        title="Telemetry overhead: null recorder vs live registry "
              "(gated on work counts; timings are information only)"))
    metrics_registry.gauge("obs.overhead_ratio").set(
        round(results["overhead"], 4))
    metrics_registry.gauge("obs.counter_ns", mode="disabled").set(
        round(results["ns_disabled"], 2))
    metrics_registry.gauge("obs.counter_ns", mode="enabled").set(
        round(results["ns_enabled"], 2))
    export_metrics("obs_overhead", metrics_registry)

    # Telemetry watches the run without changing it ...
    assert on["sim_events"] == off["sim_events"]
    assert on["scores"] == off["scores"]
    # ... costs no registry call while off, and only the instrumented
    # sites' lookups while on.
    assert off["interns"] == 0
    assert on["interns"] == WORKLOAD_INTERNS + COUNTED_OPS
