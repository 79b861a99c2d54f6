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
3. **Hot-path microbenchmark** — the cross-container permission check
   this harness motivated, memoized vs the full AM binder round trip on
   its saturated path (acceptance: >= 2x).

End-to-end soak wall time is SITL-dominated, so the sweep records wall
time per point while the >= 2x acceptance rides on the microbenchmark.
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
    run_scenario,
)

SMOKE = os.environ.get("SCALE_SMOKE") == "1"

TENANT_SWEEP = (1, 2) if SMOKE else (1, 2, 4, 8)
FLEET_SWEEP = (1,) if SMOKE else (1, 2, 4)
LARGEST = (1, 2) if SMOKE else (4, 8)
SEEDS = (42,) if SMOKE else (42, 7, 1234)
MICRO_ITERS = 2_000 if SMOKE else 20_000

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


def test_hotpath_microbench(benchmark, record_result, metrics_registry,
                            export_metrics):
    def run_all():
        return {
            "permission": _bench_permission_check(MICRO_ITERS),
        }

    micro = benchmark.pedantic(run_all, rounds=1, iterations=1)

    permission_x = (micro["permission"]["uncached"]
                    / micro["permission"]["cached"])

    record_result("scale_hotpaths", render_table(
        ["Hot path", "Baseline (ms)", "Optimized (ms)", "Speedup"],
        [("permission check (AM round trip vs memo)",
          round(micro["permission"]["uncached"] * 1e3, 2),
          round(micro["permission"]["cached"] * 1e3, 2),
          f"{permission_x:.1f}x")],
        title=f"Saturated hot paths at the largest sweep point "
              f"({MICRO_ITERS} iterations; acceptance: permission >= 2x)"))

    metrics_registry.gauge("scale.speedup", path="permission_check").set(
        round(permission_x, 2))
    export_metrics("scale_hotpaths", metrics_registry)

    assert permission_x >= 2.0, (
        f"permission memo only {permission_x:.1f}x over the AM round trip")
