#!/usr/bin/env python3
"""Gate on the end-to-end benchmark's deterministic work counts.

Runs ``perfbench/run.py --trace 1`` on each gated workload and compares
every per-layer metric whose unit is ``count`` (sim events, physics and
control steps, binder and android transactions, device reads, MAVLink
frames, guard checks, ...) with the expected counts for the same
workload in ``benchmarks/baselines/work_counts.json``.  Counts are a
pure function of the seed, so any difference means the program now does
different work: an optimisation that skipped, batched or added calls, or
a behaviour change.  Wall-time metrics are printed by the benchmark but
not gated.

The expected counts were first copied value for value from the
benchmark's recorded rows (``perfbench/results/layers.jsonl``).  A
change that is meant to do less (or more) work edits exactly the counts
it predicts in ``work_counts.json``, in the same change; every count is
still compared for exact equality.

Usage (from the repository root)::

    python3 tools/check_work_counts.py

Exit status 1, with one line per differing or missing count, when
anything moves or a benchmark output check fails; 0 otherwise.  The
expected-counts file is only read.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPECTED = REPO_ROOT / "benchmarks" / "baselines" / "work_counts.json"
#: ``--seconds`` per workload: counts do not depend on run length, and
#: one untraced plus one traced run is all the comparison needs.
SECONDS = 5.0


def load_expected(path: Path) -> Tuple[int, Dict[str, Dict[str, Any]]]:
    """``(seed, workload -> {count name -> value})`` from ``path``."""
    doc = json.loads(path.read_text())
    return doc["seed"], doc["workloads"]


def measured(workload: str, seed: int) -> Dict[str, Any]:
    """The last-line JSON of one traced benchmark run."""
    command = [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
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
            problems.append(f"{workload}: {name} missing (expected {value})")
        elif got["value"] != value:
            problems.append(f"{workload}: {name} = {got['value']} "
                            f"(expected {value})")
    return problems


def main() -> int:
    problems: List[str] = []
    seed, workloads = load_expected(EXPECTED)
    for workload, expected in workloads.items():
        result = measured(workload, seed)
        found = compare(workload, expected, result)
        problems += found
        print(f"{workload}: {len(expected)} counts checked, "
              f"{len(found)} problem(s)")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
