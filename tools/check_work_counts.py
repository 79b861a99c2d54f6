#!/usr/bin/env python3
"""Gate on the end-to-end benchmark's deterministic work counts.

Runs ``perfbench/run.py --trace 1`` on each gated workload and compares
every per-layer metric whose unit is ``count`` (sim events, physics and
control steps, binder and android transactions, device reads, MAVLink
frames, guard checks, ...) with the recorded row for the same workload
in ``perfbench/results/layers.jsonl``.  Counts are a pure function of
the seed, so any difference means the program now does different work:
an optimisation that skipped, batched or added calls, or a behaviour
change.  Wall-time metrics are printed by the benchmark but not gated.

Usage (from the repository root)::

    python3 tools/check_work_counts.py

Exit status 1, with one line per differing or missing count, when
anything moves or a benchmark output check fails; 0 otherwise.  The
recorded file is only read.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORDED = REPO_ROOT / "perfbench" / "results" / "layers.jsonl"
WORKLOADS = ("fleet-mission", "city-orders")
#: The recorded rows were taken at each workload's default seed.
SEED = 42
#: ``--seconds`` per workload: counts do not depend on run length, and
#: one untraced plus one traced run is all the comparison needs.
SECONDS = 5.0


def recorded_counts(path: Path, workload: str) -> Dict[str, Any]:
    """``name -> value`` of the count-unit metrics recorded for ``workload``."""
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row["workload"] == workload and row["seed"] in ("default", SEED):
            return {name: metric["value"]
                    for name, metric in row["metrics"].items()
                    if metric["unit"] == "count"}
    raise SystemExit(f"{path}: no recorded row for {workload}")


def measured(workload: str) -> Dict[str, Any]:
    """The last-line JSON of one traced benchmark run."""
    command = [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(command, cwd=str(REPO_ROOT), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(workload: str, expected: Dict[str, Any],
            result: Dict[str, Any]) -> List[str]:
    """One line per problem: failed checks, differing or missing counts."""
    problems = []
    if not result.get("correct") or result.get("failed"):
        problems.append(f"{workload}: {result.get('failed')} benchmark "
                        f"output check(s) failed")
    metrics = result.get("metrics", {})
    for name, value in sorted(expected.items()):
        got = metrics.get(name)
        if got is None:
            problems.append(f"{workload}: {name} missing (recorded {value})")
        elif got["value"] != value:
            problems.append(f"{workload}: {name} = {got['value']} "
                            f"(recorded {value})")
    return problems


def main() -> int:
    problems: List[str] = []
    for workload in WORKLOADS:
        expected = recorded_counts(RECORDED, workload)
        result = measured(workload)
        found = compare(workload, expected, result)
        problems += found
        print(f"{workload}: {len(expected)} counts checked, "
              f"{len(found)} problem(s)")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
