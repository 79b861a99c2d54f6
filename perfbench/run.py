"""End-to-end order benchmark for the AnDrone reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-mission --seed 42 \\
        --seconds 50 --trace 0

``--seed`` also takes ``default`` or ``heldout`` (the seeds recorded per
workload in ``perfbench/spec.json``).  Each measured run is a fresh
process (``child.py``) that imports ``repro``, builds the workload through
its public harness and runs it; runs repeat until ``--seconds`` have
passed.  With ``--trace 0`` the runs are untraced and the end-to-end
metrics are printed; with ``--trace 1`` untraced and traced runs
alternate and the per-layer metrics are printed.  Outputs are checked
on every run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` where ``attempted`` and
``failed`` count the output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Fewest measured runs, however short ``--seconds`` is.
MIN_RUNS = 3
#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 120.0
#: Start no new run after this long, so the whole command ends in time.
HARD_STOP_S = 120.0
#: Where traced runs write their spans (ignored by git).
OUT_DIR = HERE / "out"


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    """Children run with telemetry off: ``CityHarness`` and
    ``AnDroneSystem`` switch ``repro.obs`` on when ANDRONE_TRACE is set."""
    env = dict(os.environ)
    env.pop("ANDRONE_TRACE", None)
    return env


def run_child(workload: str, seed: int, mode: str,
              spans: Optional[Path] = None) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "child.py"), "--workload",
               workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(command, cwd=str(ROOT), env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as hung:
        raise ChildFailed(f"{mode} run of {workload} seed {seed} exceeded "
                          f"{CHILD_TIMEOUT_S:.0f} s") from hung
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run of {workload} seed {seed} exited "
                          f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Output checks; every evaluation counts as one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def add_run(self, report: Dict[str, Any]) -> None:
        for name, ok in sorted(report["checks"].items()):
            self.add(f"seed {report['seed']} {report['mode']}: {name}", ok)

    def same_behaviour(self, label: str, first: Dict[str, Any],
                       other: Dict[str, Any]) -> None:
        """Two runs of one seed must agree exactly on everything simulated."""
        for key in ("digest", "orders", "work", "latencies_s"):
            self.add(f"{label}: same {key}", first[key] == other[key])


def timed_loop(seconds: float, min_runs: int):
    """Yield run indices until ``seconds`` have passed and at least
    ``min_runs`` runs were made (never past :data:`HARD_STOP_S`)."""
    start = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - start
        if index >= min_runs and elapsed >= seconds:
            return
        if index >= 1 and elapsed >= HARD_STOP_S:
            return
        yield index
        index += 1


def measure_plain(name: str, seeds: List[int], seconds: float,
                  checks: Checks) -> Tuple[Dict[str, float], List[str]]:
    runs: Dict[int, List[Dict[str, Any]]] = {seed: [] for seed in seeds}
    for index in timed_loop(seconds, max(MIN_RUNS, len(seeds))):
        seed = seeds[index % len(seeds)]
        report = run_child(name, seed, "plain")
        checks.add_run(report)
        if runs[seed]:
            checks.same_behaviour(f"seed {seed} repeat", runs[seed][0], report)
        runs[seed].append(report)

    firsts = [runs[seed][0] for seed in seeds]
    every = [r for seed in seeds for r in runs[seed]]
    completed = sum(r["orders"]["completed"] for r in firsts)
    submitted = sum(r["orders"]["submitted"] for r in firsts)
    sim_s = sum(r["sim_s"] for r in firsts)
    latencies = sorted(x for r in firsts for x in r["latencies_s"])

    def wall(normalized: bool) -> float:
        """Per sub-seed median run-phase wall, summed over sub-seeds."""
        return sum(statistics.median(
            r["run_s"] * (r["norm"] if normalized else 1.0)
            for r in runs[seed]) for seed in seeds)

    metrics = {
        "orders_per_s": completed / wall(True),
        "sim_rate": sim_s / wall(True),
        "setup_s": statistics.median(r["setup_s"] * r["norm"]
                                     for r in every),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in every),
        "order_completion_ratio": completed / submitted,
        "order_sim_p50_s": workloads.nearest_rank(latencies, 50.0),
        "order_sim_p95_s": workloads.nearest_rank(latencies, 95.0),
    }
    notes = [f"runs: {len(every)} processes over seeds "
             + ", ".join(f"{seed} x{len(runs[seed])}" for seed in seeds),
             "run phase wall per process, raw (s): "
             + " ".join(f"{r['run_s']:.3f}" for r in every),
             "reference loop per process (ms): "
             + " ".join(f"{statistics.median(r['ref_s']) * 1e3:.1f}"
                        for r in every),
             f"raw (not normalized): orders_per_s {completed / wall(False):.4f}"
             f"  sim_rate {sim_s / wall(False):.4f}  setup_s "
             f"{statistics.median(r['setup_s'] for r in every):.4f}"]
    for r in firsts:
        o = r["orders"]
        notes.append(
            f"seed {r['seed']}: digest {r['digest']}  orders "
            f"{o['completed']}/{o['submitted']} completed, {o['failed']} "
            f"failed, {o['rejected']} rejected  sim {r['sim_s']:.1f} s  "
            f"order_fail_ratio {1 - o['completed'] / o['submitted']:.4f}")
    notes.append(f"latency samples: {len(latencies)} completed orders "
                 f"({sum(1 for x in latencies if x > metrics['order_sim_p95_s'])}"
                 f" beyond p95)")
    return metrics, notes


def measure_traced(name: str, seed: int, seconds: float,
                   checks: Checks) -> Tuple[Dict[str, float], List[str]]:
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl.gz"
    plains: List[Dict[str, Any]] = []
    traces: List[Dict[str, Any]] = []
    for index in timed_loop(seconds, 1):
        plain = run_child(name, seed, "plain")
        traced = run_child(name, seed, "traced",
                           spans=spans_path if index == 0 else None)
        checks.add_run(plain)
        checks.add_run(traced)
        checks.same_behaviour(f"seed {seed} traced vs untraced", plain, traced)
        if traces:
            checks.add(f"seed {seed} traced repeat: same counts",
                       traced["layers"]["counts"]
                       == traces[0]["layers"]["counts"])
        plains.append(plain)
        traces.append(traced)

    first = traces[0]["layers"]
    events = first["counts"]["sim.events"]
    completed = traces[0]["orders"]["completed"]
    metrics: Dict[str, float] = dict(first["counts"])
    metrics.update({
        "sim.events_per_order": events / completed,
        "sim.host_us_per_event": statistics.median(
            p["run_s"] * p["norm"] for p in plains) * 1e6 / events,
        "other.self_ms": statistics.median(
            (t["window_s"] * 1e3 - sum(t["layers"]["self_ms"].values()))
            * t["norm"] for t in traces),
        "trace_overhead": statistics.median(
            (t["window_s"] * t["norm"]) / (p["window_s"] * p["norm"])
            for p, t in zip(plains, traces)),
    })
    for layer in first["self_ms"]:
        metrics[f"{layer}.self_ms"] = statistics.median(
            t["layers"]["self_ms"][layer] * t["norm"] for t in traces)
    for tag in first["tag_ms"]:
        metrics[tag] = statistics.median(
            t["layers"]["tag_ms"][tag] * t["norm"] for t in traces)
    notes = [f"runs: {len(traces)} untraced + {len(traces)} traced "
             f"processes, seed {seed}",
             f"digest {traces[0]['digest']} (untraced "
             f"{plains[0]['digest']})",
             f"spans: {first['spans']} written to "
             f"{spans_path.relative_to(ROOT)}"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="AnDrone end-to-end order benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="default",
                        help="integer, or 'default' / 'heldout'")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = workloads.load_spec()
    try:
        workload = workloads.workload_spec(args.workload)
        seed = workloads.resolve_seed(workload, args.seed)
    except (KeyError, ValueError) as bad:
        print(f"bad arguments: {bad}", file=sys.stderr)
        return 2

    checks = Checks()
    seeds = workloads.subseeds(workload, seed)
    try:
        # Warm the bytecode cache so no timed run pays for compiling.
        run_child(args.workload, seeds[0], "setup")
        if args.trace:
            metrics, notes = measure_traced(args.workload, seeds[0],
                                            args.seconds, checks)
            wanted = spec["per_layer"]
        else:
            metrics, notes = measure_plain(args.workload, seeds,
                                           args.seconds, checks)
            wanted = spec["end_to_end"]
    except ChildFailed as failed:
        print(f"benchmark run failed: {failed}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    for note in notes:
        print("  " + note)
    print(f"  checks: {checks.attempted - len(checks.failures)}/"
          f"{checks.attempted} passed")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    result = {}
    for metric in wanted:
        value = metrics[metric["name"]]
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<26} {value:>16.6f} {metric['unit']}")
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
