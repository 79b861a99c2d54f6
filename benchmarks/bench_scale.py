"""Fleet scale: tenants-per-drone x drones-per-fleet sweep, plus the
hot-path microbenchmarks that keep the soak affordable.

Three measurements:

1. **Scale sweep** — the loadgen harness at T in {1,2,4,8} tenants on one
   drone, then F in {1,2,4} drones at T=8, every point completing all
   tenants with a clean invariant monitor.  This is the capacity curve
   behind the paper's Figures 10-11, pushed to fleet scale.
2. **Seed stability** — the largest point (4 drones x 8 tenants) across
   three seeds with the chaos overlay on: invariants must hold for every
   seed.
3. **Hot-path microbenchmarks** — two optimizations this harness
   motivated, measured on their saturated paths:

   * cross-container permission check: memoized vs full AM binder round
     trip (acceptance: >= 2x),
   * telemetry fan-out: one shared round vs T private timers per drone
     (recorded; the win is real but bounded by per-tenant encode cost).

End-to-end soak wall time is SITL-dominated, so the sweep records wall
time per point while the >= 2x acceptance rides on the microbenchmarks.
Results land in ``results/scale.txt`` (tables) and ``results/scale.jsonl``
(machine-readable trajectory).

``SCALE_SMOKE=1`` shrinks every sweep for ``make check``.
"""

import os
import time

from repro.analysis import render_table
from repro.loadgen import (
    FleetScenario,
    FleetHarness,
    ParallelFleetExecutor,
    run_scenario,
)

SMOKE = os.environ.get("SCALE_SMOKE") == "1"

TENANT_SWEEP = (1, 2) if SMOKE else (1, 2, 4, 8)
FLEET_SWEEP = (1,) if SMOKE else (1, 2, 4)
LARGEST = (1, 2) if SMOKE else (4, 8)
SEEDS = (42,) if SMOKE else (42, 7, 1234)
MICRO_ITERS = 2_000 if SMOKE else 20_000
#: worker counts for the serial-vs-parallel executor sweep.
WORKER_SWEEP = (1, 2) if SMOKE else (1, 2, 4, 8)
#: the parallel sweep's fleet: sharding pays off with many drones.
PARALLEL_FLEET = (2, 2) if SMOKE else (4, 8)

def run_point(drones: int, tenants: int, seed: int = 42,
              chaos_level: int = 0) -> dict:
    start = time.perf_counter()
    result = run_scenario(
        FleetScenario(seed=seed, drones=drones, tenants_per_drone=tenants,
                      chaos_level=chaos_level))
    wall_s = time.perf_counter() - start
    return {
        "drones": drones,
        "tenants_per_drone": tenants,
        "seed": seed,
        "chaos_level": chaos_level,
        "wall_s": wall_s,
        "sim_s": result.duration_s,
        "waypoints": result.waypoints_serviced,
        "completed": len(result.completed),
        "expected": drones * tenants,
        "violations": len(result.violations),
        "invariant_checks": result.invariant_checks,
        "restarts": result.restarts,
        "faults": result.faults_injected,
    }


def test_scale_sweep(benchmark, record_result, metrics_registry,
                     export_metrics):
    def sweep():
        points = []
        for tenants in TENANT_SWEEP:
            points.append(run_point(1, tenants))
        for drones in FLEET_SWEEP:
            points.append(run_point(drones, TENANT_SWEEP[-1]))
        for seed in SEEDS:
            drones, tenants = LARGEST
            points.append(run_point(drones, tenants, seed=seed,
                                    chaos_level=1))
        return points

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [(p["drones"], p["tenants_per_drone"], p["seed"],
             p["chaos_level"], f"{p['completed']}/{p['expected']}",
             p["waypoints"], p["violations"], p["invariant_checks"],
             round(p["sim_s"], 1), round(p["wall_s"], 2))
            for p in points]
    record_result("scale", render_table(
        ["Drones", "Tenants/drone", "Seed", "Chaos", "Completed",
         "Waypoints", "Violations", "Checks", "Sim (s)", "Wall (s)"],
        rows,
        title="Fleet soak sweep: every point must complete all tenants "
              "with a clean invariant monitor"))

    for p in points:
        labels = {"drones": p["drones"], "tenants": p["tenants_per_drone"],
                  "seed": p["seed"], "chaos": p["chaos_level"]}
        metrics_registry.gauge("scale.wall_s", **labels).set(
            round(p["wall_s"], 3))
        metrics_registry.gauge("scale.sim_s", **labels).set(p["sim_s"])
        metrics_registry.gauge("scale.completed", **labels).set(p["completed"])
        metrics_registry.gauge("scale.violations", **labels).set(
            p["violations"])
    export_metrics("scale", metrics_registry)

    for p in points:
        label = (f"{p['drones']}x{p['tenants_per_drone']} seed "
                 f"{p['seed']} chaos {p['chaos_level']}")
        assert p["completed"] == p["expected"], (
            f"{label}: only {p['completed']}/{p['expected']} tenants "
            f"completed")
        assert p["violations"] == 0, (
            f"{label}: {p['violations']} invariant violations")
        assert p["invariant_checks"] > 0, f"{label}: monitor never ran"
        if p["chaos_level"]:
            assert p["faults"] > 0, f"{label}: chaos never fired"


def test_parallel_speedup(benchmark, record_result, metrics_registry,
                          export_metrics):
    """Serial harness vs the sharded multiprocess executor.

    One fleet, executed serially and then through
    :class:`ParallelFleetExecutor` at each worker count.  Equivalence is
    asserted at every point (identical tenant stats, waypoints and
    verdicts — the executor's contract); the >= 2x wall-clock acceptance
    at 4 workers only applies where 4 cores exist, so the recorded
    numbers stay honest on smaller machines.
    """
    drones, tenants = PARALLEL_FLEET
    scenario = FleetScenario(seed=42, drones=drones,
                             tenants_per_drone=tenants, chaos_level=1)

    def sweep():
        start = time.perf_counter()
        serial = FleetHarness(scenario).run()
        serial_wall = time.perf_counter() - start
        points = []
        for workers in WORKER_SWEEP:
            executor = ParallelFleetExecutor(scenario, workers=workers,
                                             trace=False)
            result = executor.run()
            points.append({
                "workers": workers,
                "wall_s": executor.run_wall_s,
                "merge_s": executor.merge_overhead_s,
                "speedup": serial_wall / executor.run_wall_s,
                "result": result,
            })
        return serial, serial_wall, points

    serial, serial_wall, points = benchmark.pedantic(
        sweep, rounds=1, iterations=1)

    for p in points:
        result = p["result"]
        label = f"{drones}x{tenants} workers={p['workers']}"
        assert result.waypoints_serviced == serial.waypoints_serviced, label
        assert ([str(v) for v in result.violations]
                == [str(v) for v in serial.violations]), label
        assert set(result.completed) == set(serial.completed), label
        for name, stats in serial.tenants.items():
            assert result.tenants[name].to_dict() == stats.to_dict(), (
                f"{label}: tenant {name} diverged from the serial run")

    rows = [("serial", "-", round(serial_wall, 2), "1.00x")]
    rows += [("parallel", p["workers"], round(p["wall_s"], 2),
              f"{p['speedup']:.2f}x") for p in points]
    record_result("scale_parallel", render_table(
        ["Mode", "Workers", "Wall (s)", "Speedup"],
        rows,
        title=f"Sharded executor vs serial harness on a {drones}x{tenants} "
              f"fleet (chaos on; {os.cpu_count()} cores; behavior verified "
              f"identical at every point)"))

    metrics_registry.gauge("scale_parallel.serial_wall_s",
                           drones=drones, tenants=tenants).set(
        round(serial_wall, 3))
    metrics_registry.gauge("scale_parallel.cores").set(os.cpu_count() or 1)
    for p in points:
        labels = {"drones": drones, "tenants": tenants,
                  "workers": p["workers"]}
        metrics_registry.gauge("scale_parallel.wall_s", **labels).set(
            round(p["wall_s"], 3))
        metrics_registry.gauge("scale_parallel.merge_s", **labels).set(
            round(p["merge_s"], 4))
        metrics_registry.gauge("scale_parallel.speedup", **labels).set(
            round(p["speedup"], 3))
    export_metrics("scale_parallel", metrics_registry)

    by_workers = {p["workers"]: p for p in points}
    if not SMOKE and (os.cpu_count() or 1) >= 4 and 4 in by_workers:
        speedup = by_workers[4]["speedup"]
        assert speedup >= 2.0, (
            f"4-worker executor only {speedup:.2f}x over serial on "
            f"{os.cpu_count()} cores")


def _bench_permission_check(iters: int) -> dict:
    """Memoized vs uncached cross-container Android permission check:
    the ActivityManager binder round trip a cache miss makes against the
    cache hit that replaces it."""
    from repro.binder.objects import Transaction

    harness = FleetHarness(FleetScenario(
        seed=42, drones=1, tenants_per_drone=1, workload_mix=["storm"]))
    node = harness.slots[0].node
    tenant = harness.slots[0].tenants[0]
    vdrone = node.vdc.drones[tenant]
    app = next(iter(vdrone.env.apps.values()))
    service = node.device_env.system_server.services["SensorService"]
    txn = Transaction(code="read", data={"sensor": "imu"},
                      calling_pid=app.pid, calling_euid=app.uid,
                      calling_container=tenant)

    cache = node.device_env.permission_cache
    permission = service.required_permission

    timings = {}
    start = time.perf_counter()
    for _ in range(iters):
        service._remote_permission_check(txn)  # a miss: AM round trip
    timings["uncached"] = time.perf_counter() - start
    assert cache.lookup(tenant, app.uid, permission) is True
    start = time.perf_counter()
    for _ in range(iters):
        cache.lookup(tenant, app.uid, permission)
    timings["cached"] = time.perf_counter() - start
    return timings


def _bench_telemetry_fanout(iters: int, reps: int = 3) -> dict:
    """Shared telemetry rounds vs per-tenant private timers.

    End-to-end soak time is SITL-dominated, so this isolates the
    emission path itself: one full drone's tenants each receive a
    heartbeat + position.  The private-timer baseline reads the
    autopilot once *per tenant*; a fan-out round reads it once *per
    round* (``begin_telemetry_round`` memoizes the snapshot).  Best-of-
    ``reps`` timing; a snapshot-equality check proves the shared read
    returns exactly what per-tenant reads would.
    """
    tenants = LARGEST[1]
    harness = FleetHarness(
        FleetScenario(seed=42, drones=1, tenants_per_drone=tenants))
    proxy = harness.slots[0].node.proxy
    servers = harness.fanouts[0].servers
    assert len(servers) == tenants

    # The round snapshot is *exactly* the per-tenant read at this instant.
    proxy.begin_telemetry_round()
    shared = proxy.fc_global_position()
    proxy.end_telemetry_round()
    assert shared == proxy.fc_global_position(), (
        "fan-out round snapshot differs from a direct autopilot read")

    timings = {}
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(iters):            # private timers: T autopilot reads
            for server in servers:
                server.emit_heartbeat()
                server.emit_position()
        dt = time.perf_counter() - start
        timings["timers"] = min(timings.get("timers", dt), dt)

        start = time.perf_counter()
        for _ in range(iters):            # fan-out: one shared read per round
            proxy.begin_telemetry_round()
            try:
                for server in servers:
                    server.emit_heartbeat()
                    server.emit_position()
            finally:
                proxy.end_telemetry_round()
        dt = time.perf_counter() - start
        timings["fanout"] = min(timings.get("fanout", dt), dt)
    return timings


def test_hotpath_microbench(benchmark, record_result, metrics_registry,
                            export_metrics):
    def run_all():
        return {
            "permission": _bench_permission_check(MICRO_ITERS),
            "fanout": _bench_telemetry_fanout(MICRO_ITERS // 10),
        }

    micro = benchmark.pedantic(run_all, rounds=1, iterations=1)

    permission_x = (micro["permission"]["uncached"]
                    / micro["permission"]["cached"])
    fanout_x = micro["fanout"]["timers"] / micro["fanout"]["fanout"]

    record_result("scale_hotpaths", render_table(
        ["Hot path", "Baseline (ms)", "Optimized (ms)", "Speedup"],
        [("permission check (AM round trip vs memo)",
          round(micro["permission"]["uncached"] * 1e3, 2),
          round(micro["permission"]["cached"] * 1e3, 2),
          f"{permission_x:.1f}x"),
         (f"telemetry to {LARGEST[1]} tenants (timers vs fan-out)",
          round(micro["fanout"]["timers"] * 1e3, 2),
          round(micro["fanout"]["fanout"] * 1e3, 2),
          f"{fanout_x:.2f}x")],
        title=f"Saturated hot paths at the largest sweep point "
              f"({MICRO_ITERS} iterations; acceptance: permission >= 2x)"))

    metrics_registry.gauge("scale.speedup", path="permission_check").set(
        round(permission_x, 2))
    metrics_registry.gauge("scale.speedup", path="telemetry_fanout").set(
        round(fanout_x, 2))
    export_metrics("scale_hotpaths", metrics_registry)

    assert permission_x >= 2.0, (
        f"permission memo only {permission_x:.1f}x over the AM round trip")
    # The fan-out win is bounded by the per-tenant send cost it cannot
    # remove, so the speedup is recorded rather than gated at 2x; the
    # loose bound catches a regression that makes rounds a pessimization.
    assert fanout_x >= 0.9, (
        f"telemetry fan-out slower than private timers ({fanout_x:.2f}x)")
