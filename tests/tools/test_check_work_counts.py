"""The work-count gate catches any count that moves.

Loads ``tools/check_work_counts.py`` (the script the ``work-counts`` CI
job runs) and feeds ``compare()`` benchmark results built from the
expected-counts file itself, so no benchmark run is needed.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

sys.path.insert(0, str(REPO_ROOT / "tools"))
from check_work_counts import EXPECTED, compare, load_expected  # noqa: E402

EXPECTED_BY_WORKLOAD = load_expected(EXPECTED)
WORKLOADS = {workload: counts
             for workload, (_, counts) in EXPECTED_BY_WORKLOAD.items()}


def _result(counts):
    """A passing benchmark result that reports exactly ``counts``."""
    return {"correct": True, "failed": 0,
            "metrics": {name: {"value": value, "unit": "count"}
                        for name, value in counts.items()}}


def test_gated_workloads_are_expected_at_their_default_seeds():
    seeds = {workload: seed
             for workload, (seed, _) in EXPECTED_BY_WORKLOAD.items()}
    assert seeds == {"fleet-mission": 42, "city-orders": 42,
                     "abuse-storm": 2025}
    for counts in WORKLOADS.values():
        assert len(counts) == 28
        assert all(isinstance(value, int) for value in counts.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_equal_counts_pass(workload):
    expected = WORKLOADS[workload]
    assert compare(workload, expected, _result(expected)) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("delta", (-1, 1))
def test_count_off_by_one_is_reported(workload, delta):
    expected = WORKLOADS[workload]
    name = sorted(expected)[0]
    counts = dict(expected, **{name: expected[name] + delta})
    problems = compare(workload, expected, _result(counts))
    assert problems == [f"{workload}: {name} = {expected[name] + delta} "
                        f"(expected {expected[name]})"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_missing_count_is_reported(workload):
    expected = WORKLOADS[workload]
    name = sorted(expected)[-1]
    counts = {k: v for k, v in expected.items() if k != name}
    problems = compare(workload, expected, _result(counts))
    assert problems == [f"{workload}: {name} missing "
                        f"(expected {expected[name]})"]


def test_failed_benchmark_checks_are_reported():
    workload = "fleet-mission"
    expected = WORKLOADS[workload]
    result = dict(_result(expected), correct=False, failed=2)
    assert compare(workload, expected, result) == [
        f"{workload}: 2 benchmark output check(s) failed"]
