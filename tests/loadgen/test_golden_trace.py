"""Golden-trace regression: same seed => byte-identical soak telemetry.

Runs a one-drone, one-tenant scenario with tracing on and pins two
things:

- determinism: two runs from the same seed export byte-identical traces
  (after dropping the one wall-clock metric);
- a checked-in digest: any change to the traced behavior of the stack
  shows up as a digest mismatch.  Intentional changes regenerate it with
  ``ANDRONE_UPDATE_GOLDEN=1 pytest tests/loadgen/test_golden_trace.py``.
"""

import hashlib
import os
from pathlib import Path

import pytest

import repro.obs as obs
from repro.loadgen import FleetScenario
from repro.loadgen.harness import FleetHarness

GOLDEN_PATH = Path(__file__).parent / "golden_trace.sha256"

#: The only wall-clock-derived metric in the stack; everything else is
#: sim-time deterministic.
WALL_CLOCK_MARKER = '"unit": "us-wall"'

SCENARIO = FleetScenario(seed=2024, drones=1, tenants_per_drone=1)


def _traced_run(tmp_path, name):
    """Run the scenario with tracing enabled; return the filtered lines."""
    obs.reset()
    harness = FleetHarness(SCENARIO)
    obs.enable(harness.system.sim)
    try:
        harness.run()
        path = tmp_path / f"{name}.jsonl"
        assert obs.export_jsonl(str(path)) > 0
    finally:
        obs.reset()
    lines = path.read_text().splitlines()
    return [line for line in lines if WALL_CLOCK_MARKER not in line]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenTrace:
    def test_same_seed_is_byte_identical(self, tmp_path):
        first = _traced_run(tmp_path, "first")
        second = _traced_run(tmp_path, "second")
        assert first == second

    def test_trace_matches_checked_in_digest(self, tmp_path):
        digest = _digest(_traced_run(tmp_path, "digest"))
        if os.environ.get("ANDRONE_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(digest + "\n")
            pytest.skip("golden digest regenerated")
        assert GOLDEN_PATH.exists(), (
            "golden_trace.sha256 missing; regenerate with "
            "ANDRONE_UPDATE_GOLDEN=1")
        expected = GOLDEN_PATH.read_text().strip()
        assert digest == expected, (
            "soak trace diverged from the checked-in golden digest. If "
            "the behavior change is intentional, regenerate with "
            "ANDRONE_UPDATE_GOLDEN=1 pytest tests/loadgen/test_golden_trace.py")
