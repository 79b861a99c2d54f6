"""The Explorer: sampling, enumeration, shrinking, artifacts, replay."""

import pytest

from repro.sched import (
    Explorer,
    ReplayMismatchError,
    load_artifact,
    make_scenario,
    replay_artifact,
    save_artifact,
)
from repro.sched.oracles import run_oracles
from repro.sched.scenarios import BinderBurstScenario
from tests.sched.planted import reversed_flush


@pytest.fixture(scope="module")
def burst_explorer():
    return Explorer(make_scenario("binder-burst"), seed=42)


def test_batched_burst_is_schedule_neutral(burst_explorer):
    result = burst_explorer.explore(schedules=8, strategy="random")
    assert result.violations == []
    assert result.distinct_digests == 1
    assert result.baseline_digest == result.reports[0].digest


def test_pct_strategy_also_clean(burst_explorer):
    result = burst_explorer.explore(schedules=5, strategy="pct")
    assert result.violations == []
    assert result.distinct_digests == 1


def test_enumerate_walks_distinct_schedules(burst_explorer):
    result = burst_explorer.explore(schedules=12, strategy="enumerate")
    assert result.violations == []
    schedules = [tuple(r.decisions) for r in result.reports]
    assert len(set(schedules)) == len(schedules), \
        "enumeration must never revisit a schedule"
    assert schedules[0] == tuple([0] * len(schedules[0]))


class CountingBurst(BinderBurstScenario):
    """Counts scenario runs, so tests can see what a walk costs."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.runs = 0

    def run(self, tie_breaker, schedule_id=None):
        self.runs += 1
        return super().run(tie_breaker, schedule_id=schedule_id)


def test_enumerate_exhausts_a_tiny_tree():
    # Two senders x two messages in one tick: few decision points, so
    # the walk terminates before the limit and covers the whole tree.
    scenario = CountingBurst(senders=2, messages=2)
    explorer = Explorer(scenario, seed=1)
    result = explorer.explore(schedules=500, strategy="enumerate")
    assert 1 < len(result.reports) < 500
    assert result.violations == []
    # One run per schedule plus the FIFO baseline: no probe re-runs.
    assert scenario.runs == len(result.reports) + 1


def test_exploration_is_deterministic(burst_explorer):
    first = burst_explorer.explore(schedules=5, strategy="random")
    second = burst_explorer.explore(schedules=5, strategy="random")
    assert [r.digest for r in first.reports] == \
        [r.digest for r in second.reports]
    assert [r.decisions for r in first.reports] == \
        [r.decisions for r in second.reports]


def test_replay_reproduces_digest_bit_for_bit(burst_explorer):
    report = burst_explorer.explore(schedules=3, strategy="random").reports[2]
    outcome = burst_explorer.verify_replay(report)
    assert outcome.digest == report.digest


def test_legacy_violation_found_shrunk_and_replayable(tmp_path, monkeypatch):
    """End to end against a planted bug: the explorer must find the
    sender-order violation (the bug class the per-message delivery path
    once had), shrink it, and emit a replayable artifact.

    The bug is planted by flushing each async batch in reverse.
    """
    from repro.binder.driver import BinderDriver

    monkeypatch.setattr(BinderDriver, "_flush_async", reversed_flush)
    scenario = make_scenario("binder-burst")
    explorer = Explorer(scenario, seed=42)
    result = explorer.explore(schedules=5, strategy="random")
    assert result.violations, "the seeded burst must surface the bug"
    report = result.violations[0]
    assert "sender-order" in report.failures
    assert report.shrunk is not None
    assert len(report.shrunk) <= len(report.decisions)

    artifact = explorer.artifact(report)
    assert artifact["failures"], "shrunk schedule must still violate"
    path = save_artifact(artifact, tmp_path / "bug.json")
    loaded = load_artifact(path)
    outcome = replay_artifact(loaded, scenario)
    assert outcome.digest == artifact["digest"]
    failures = run_oracles(explorer._oracles_for(outcome), outcome)
    assert sorted(failures) == sorted(artifact["failures"])


def test_replay_artifact_rejects_digest_mismatch(burst_explorer, tmp_path):
    report = burst_explorer.explore(schedules=1, strategy="random").reports[0]
    artifact = burst_explorer.artifact(report)
    artifact["digest"] = "0" * 64
    with pytest.raises(ReplayMismatchError):
        replay_artifact(artifact, burst_explorer.scenario)


def test_load_artifact_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 999}')
    with pytest.raises(ValueError, match="schema"):
        load_artifact(path)
