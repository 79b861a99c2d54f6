"""Explored schedules recorded before the drain loops were folded.

Every registered exploration scenario was run under the FIFO
tie-breaker and under ``random`` and ``pct`` schedules 0-2 at seed 42,
while the simulator still had a separate explored drain loop.  The
records in ``fixtures/explored_schedules.json`` pin each run's behavior
digest, how many same-tick decisions it took, and the SHA-256 of the
decision list, so any change to which event a schedule picks (or when
it is asked to pick) shows up here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.sched import FifoTieBreaker, make_scenario, make_tie_breaker

SEED = 42

#: ``<scenario>:<strategy>:<index>`` -> recorded digest and decisions.
RECORDED = json.loads(
    (Path(__file__).parent / "fixtures" / "explored_schedules.json")
    .read_text())


def explored_schedule(scenario: str, strategy: str, index: int) -> dict:
    """Run one schedule and summarize it the way the fixture does."""
    tie_breaker = (FifoTieBreaker() if strategy == "fifo"
                   else make_tie_breaker(strategy, SEED, index))
    outcome = make_scenario(scenario).run(
        tie_breaker, schedule_id=f"{scenario}:{strategy}:{index}")
    decisions = json.dumps(outcome.decisions)
    return {
        "digest": outcome.digest,
        "decisions": len(outcome.decisions),
        "decisions_sha256": hashlib.sha256(decisions.encode()).hexdigest(),
    }


def test_fixture_covers_every_scenario_and_strategy():
    scenarios = {key.split(":")[0] for key in RECORDED}
    assert scenarios == {"binder-burst", "city-smoke", "fig10-smoke",
                         "storm-smoke"}
    assert len(RECORDED) == len(scenarios) * 7


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_explored_schedule_matches_recording(key):
    scenario, strategy, index = key.split(":")
    assert explored_schedule(scenario, strategy, int(index)) == RECORDED[key]
