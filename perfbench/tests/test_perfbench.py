"""Self-tests for the end-to-end order benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload is run once untraced and once traced (as child processes,
the way ``run.py`` runs them), which takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = workloads.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Wrapped calls no workload makes: asynchronous binder is used only by
#: the schedule explorer, every workload places with the bin-packing
#: placer, and no tenant sends the VFC a command (spoofed and replayed
#: ones are rejected by the secure channel before they reach it).
NEVER_CALLED = {
    "repro.binder.driver.BinderProcess.transact_async",
    "repro.cloud.controlplane.placement.FirstFitPlacer.place",
    "repro.mavproxy.vfc.VirtualFlightController.send",
}
#: Counters only those calls bump, so 0 on every workload.
ZERO_COUNTERS = {"mavproxy.denied", "binder.async_msgs"}


def child(workload: str, seed: int, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced run of every workload at its default seed."""
    out = {}
    for workload in SPEC["workloads"]:
        seed = workload["default_seed"]
        out[workload["name"]] = {mode: child(workload["name"], seed, mode)
                                 for mode in ("plain", "traced")}
    return out


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_spec():
    bench = _bench_json()
    gated = [w["name"] for w in bench["workloads"]]
    assert gated == [w for w in WORKLOADS if w != "abuse-storm"]
    for kind in ("end_to_end", "per_layer"):
        assert ([(m["name"], m["unit"], m["better"]) for m in bench[kind]]
                == [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]])
    predicted = [name for row in SPEC["predictions"] for name in row["layer"]]
    layer_metrics = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(predicted) == sorted(set(layer_metrics) - {"trace_overhead"})
    for row in SPEC["predictions"]:
        assert set(row["most_work_on"] + row["none_on"]) <= set(WORKLOADS)


def test_every_counter_is_a_layer_metric():
    layer_metrics = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers.counter_names()) <= layer_metrics
    assert set(layers.tag_names()) <= layer_metrics
    for layer in layers.LAYERS[1:]:
        assert f"{layer}.self_ms" in layer_metrics


def test_outputs_pass_their_checks(runs):
    for name, pair in runs.items():
        for mode, report in pair.items():
            failed = [c for c, ok in report["checks"].items() if not ok]
            assert not failed, (name, mode, failed)


def test_every_wrapper_fires_on_its_workload(runs):
    rows = {metric: row for row in SPEC["predictions"]
            for metric in row["layer"]}
    for hook in layers.HOOKS:
        call = f"{hook.module}.{hook.call_name}"
        if call in NEVER_CALLED:
            continue
        metric = hook.count or hook.tag or f"{hook.layer}.self_ms"
        targets = rows[metric]["most_work_on"]
        fired = [runs[w]["traced"]["layers"]["calls"][call] for w in targets]
        assert max(fired) > 0, (call, targets)
    # Refusals fire where the refused traffic is, which for binder is the
    # hostile workload rather than the layer's busiest one.
    for metric in layers.counter_names():
        if metric in ZERO_COUNTERS:
            continue
        targets = [w for w in WORKLOADS if w not in rows[metric]["none_on"]]
        assert max(runs[w]["traced"]["layers"]["counts"][metric]
                   for w in targets) > 0, (metric, targets)


def test_layers_idle_where_the_table_predicts_no_work(runs):
    # Fleet orders still pass through a portal, just never a shard router.
    for row in SPEC["predictions"]:
        counters = [m for m in row["layer"]
                    if m in layers.counter_names() and m != "cloud.orders"]
        for workload in row["none_on"]:
            counts = runs[workload]["traced"]["layers"]["counts"]
            assert all(counts[m] == 0 for m in counters), (workload, counters)


def test_traced_run_matches_untraced(runs):
    for name, pair in runs.items():
        for key in ("digest", "orders", "work", "latencies_s"):
            assert pair["plain"][key] == pair["traced"][key], (name, key)


def test_same_seed_gives_identical_simulated_results(runs):
    workload = SPEC["workloads"][0]
    again = child(workload["name"], workload["default_seed"], "plain")
    first = runs[workload["name"]]["plain"]
    for key in ("digest", "orders", "work", "latencies_s", "sim_s"):
        assert again[key] == first[key], key


def test_other_seed_changes_digest(runs):
    workload = next(w for w in SPEC["workloads"] if w["kind"] == "city")
    other = child(workload["name"], workload["heldout_seed"], "plain")
    assert other["digest"] != runs[workload["name"]]["plain"]["digest"]


def test_seed_arguments():
    city = workloads.workload_spec("city-orders")
    assert workloads.resolve_seed(city, "default") == city["default_seed"]
    assert workloads.resolve_seed(city, "heldout") == city["heldout_seed"]
    assert workloads.resolve_seed(city, "17") == 17
    seeds = workloads.subseeds(city, 17)
    assert seeds[0] == 17 and len(set(seeds)) == city["subseeds"]


def test_command_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "city-orders",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert ([(k, v["unit"]) for k, v in result["metrics"].items()]
            == [(m["name"], m["unit"]) for m in SPEC["end_to_end"]])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-mission",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
