"""The explorer: run a scenario under N schedules, check oracles,
shrink violations to minimal replayable artifacts.

Exploration is deterministic end to end: schedule ``i`` of strategy
``s`` under root seed ``r`` always denotes the same tie-breaker, every
scenario run builds a fresh seeded stack, and a violation is shipped as
a ``(seed, schedule-trace)`` artifact whose replay — via
:class:`~repro.sched.tiebreak.TraceTieBreaker` — reproduces the run
bit-for-bit.  ``repro.sched`` (the CLI) and the pytest regression
fixtures under ``tests/sched/fixtures/`` are both thin wrappers over
this module; docs/EXPLORATION.md walks through the workflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.sched.oracles import (
    DigestMatchOracle,
    RunOutcome,
    build_oracles,
    run_oracles,
)
from repro.sched.scenarios import ExplorationScenario, make_scenario
from repro.sched.tiebreak import (
    FifoTieBreaker,
    TraceTieBreaker,
    exhausted,
    make_tie_breaker,
)

#: artifact schema version, bumped on any incompatible change.
ARTIFACT_SCHEMA = 1


@dataclass
class ScheduleReport:
    """One explored schedule: what ran and what the oracles said."""

    schedule_id: str
    strategy: str
    index: int
    digest: str
    decisions: List[int]
    meta: List[dict] = field(default_factory=list)
    failures: Dict[str, List[str]] = field(default_factory=dict)
    shrunk: Optional[List[int]] = None

    @property
    def clean(self) -> bool:
        return not self.failures


@dataclass
class ExplorationResult:
    """Everything one :meth:`Explorer.explore` produced."""

    scenario: str
    seed: int
    baseline_digest: str
    reports: List[ScheduleReport] = field(default_factory=list)

    @property
    def violations(self) -> List[ScheduleReport]:
        return [r for r in self.reports if not r.clean]

    @property
    def distinct_digests(self) -> int:
        return len({r.digest for r in self.reports})

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "schedules": len(self.reports),
            "violations": len(self.violations),
            "distinct_digests": self.distinct_digests,
            "baseline_digest": self.baseline_digest,
        }


class ReplayMismatchError(AssertionError):
    """A replayed schedule failed to reproduce its recorded digest."""


class Explorer:
    """Drives one scenario through many same-tick schedules."""

    def __init__(self, scenario: ExplorationScenario, seed: int = 42,
                 oracles=None):
        self.scenario = scenario
        self.seed = int(seed)
        self.oracles = (build_oracles(scenario.oracles)
                        if oracles is None else list(oracles))
        self._baseline: Optional[RunOutcome] = None

    # -- running one schedule ------------------------------------------------
    def baseline(self) -> RunOutcome:
        """The FIFO run: the reference digest for neutrality claims."""
        if self._baseline is None:
            self._baseline = self.scenario.run(
                FifoTieBreaker(), schedule_id=f"{self.scenario.name}:fifo")
        return self._baseline

    def _oracles_for(self, outcome: RunOutcome):
        oracles = list(self.oracles)
        if self.scenario.neutral:
            oracles.append(DigestMatchOracle(self.baseline().digest))
        return oracles

    def run_schedule(self, tie_breaker, schedule_id: str) -> ScheduleReport:
        outcome = self.scenario.run(tie_breaker, schedule_id=schedule_id)
        failures = run_oracles(self._oracles_for(outcome), outcome)
        return ScheduleReport(
            schedule_id=schedule_id, strategy=tie_breaker.name,
            index=0, digest=outcome.digest,
            decisions=outcome.decisions, meta=outcome.meta,
            failures=failures)

    # -- exploration ---------------------------------------------------------
    def explore(self, schedules: int = 25, strategy: str = "random",
                shrink_violations: bool = True) -> ExplorationResult:
        """Run ``schedules`` explored schedules of ``strategy``.

        ``strategy="enumerate"`` walks the schedule tree depth-first
        (systematic bounded enumeration — exhaustive for small same-tick
        sets) instead of sampling; any other registered strategy samples
        seeded tie-breakers ``0..N-1``.
        """
        result = ExplorationResult(
            scenario=self.scenario.name, seed=self.seed,
            baseline_digest=self.baseline().digest)
        prefix: Optional[List[int]] = []
        for index in range(schedules):
            if strategy == "enumerate":
                if prefix is None:
                    break  # schedule tree exhausted
                tie_breaker = TraceTieBreaker(prefix)
            else:
                tie_breaker = make_tie_breaker(strategy, self.seed, index)
            report = self.run_schedule(
                tie_breaker, f"{self.scenario.name}:{strategy}:{index}")
            report.index = index
            report.strategy = strategy
            if report.failures and shrink_violations:
                report.shrunk = self.shrink(report.decisions)
            result.reports.append(report)
            if strategy == "enumerate":
                prefix = _next_prefix(report)
        return result

    # -- replay + shrink -----------------------------------------------------
    def replay(self, decisions, schedule_id: str = "replay") -> RunOutcome:
        """Re-execute one recorded schedule exactly."""
        return self.scenario.run(
            TraceTieBreaker(decisions),
            schedule_id=f"{self.scenario.name}:{schedule_id}")

    def verify_replay(self, report: ScheduleReport) -> RunOutcome:
        """Replay a report's schedule; digests must agree bit-for-bit."""
        outcome = self.replay(report.decisions,
                              schedule_id=report.schedule_id)
        if outcome.digest != report.digest:
            raise ReplayMismatchError(
                f"{report.schedule_id}: replay digest "
                f"{outcome.digest[:16]}... != recorded "
                f"{report.digest[:16]}...")
        return outcome

    def _still_fails(self, decisions) -> bool:
        outcome = self.replay(decisions, schedule_id="shrink")
        return bool(run_oracles(self._oracles_for(outcome), outcome))

    def shrink(self, decisions) -> List[int]:
        """Greedy 1-minimal reduction of a failing schedule.

        First truncate the FIFO-equivalent tail, then repeatedly try to
        zero (FIFO) each remaining decision, keeping any reduction that
        still violates an oracle.  The result re-violates by
        construction, so the emitted artifact is self-checking.
        """
        trace = list(decisions)
        while trace and trace[-1] == 0:
            trace.pop()
        # Binary-search the shortest failing prefix.
        low, high = 0, len(trace)
        while low < high:
            mid = (low + high) // 2
            if self._still_fails(trace[:mid]):
                high = mid
            else:
                low = mid + 1
        trace = trace[:high]
        changed = True
        while changed:
            changed = False
            for position in range(len(trace)):
                if trace[position] == 0:
                    continue
                candidate = list(trace)
                candidate[position] = 0
                if self._still_fails(candidate):
                    trace = candidate
                    changed = True
            while trace and trace[-1] == 0:
                trace.pop()
        return trace

    # -- artifacts -----------------------------------------------------------
    def artifact(self, report: ScheduleReport) -> dict:
        """The replayable record of one violating (or notable) schedule."""
        decisions = (report.shrunk if report.shrunk is not None
                     else report.decisions)
        replayed = self.replay(decisions, schedule_id=report.schedule_id)
        failures = run_oracles(self._oracles_for(replayed), replayed)
        return {
            "schema": ARTIFACT_SCHEMA,
            "scenario": self.scenario.name,
            "seed": self.seed,
            "strategy": report.strategy,
            "schedule_id": report.schedule_id,
            "schedule": list(decisions),
            "digest": replayed.digest,
            "failures": failures,
            "failures_when_found": report.failures,
            "decisions_recorded": len(report.decisions),
        }


def _next_prefix(report: ScheduleReport) -> Optional[List[int]]:
    """The schedule-tree walk's next decision prefix, None when done.

    A schedule follows its prefix and FIFO beyond it; its ``meta``
    records every decision point's set size, and the next prefix is the
    odometer increment of the deepest decision with untried siblings.
    For runs whose same-tick sets are small this enumerates *every*
    interleaving before the schedule limit bites.
    """
    taken = report.decisions
    depth = len(taken) - 1
    while depth >= 0 and taken[depth] + 1 >= report.meta[depth]["size"]:
        depth -= 1
    if depth < 0:
        return None
    return taken[:depth] + [taken[depth] + 1]


def save_artifact(artifact: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path) -> dict:
    artifact = json.loads(Path(path).read_text())
    schema = artifact.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: artifact schema {schema!r} != {ARTIFACT_SCHEMA}")
    return artifact


def replay_artifact(artifact: dict, scenario: Optional[ExplorationScenario]
                    = None) -> RunOutcome:
    """Re-execute a saved artifact; raises on digest mismatch.

    Returns the replayed outcome so callers can re-run oracles against
    it (regression fixtures assert the recorded failures stay fixed).
    """
    if scenario is None:
        scenario = make_scenario(artifact["scenario"])
    trace = TraceTieBreaker(artifact["schedule"])
    outcome = scenario.run(
        trace, schedule_id=artifact.get("schedule_id", "artifact"))
    if outcome.digest != artifact["digest"]:
        raise ReplayMismatchError(
            f"artifact replay digest {outcome.digest[:16]}... != recorded "
            f"{artifact['digest'][:16]}... "
            f"({exhausted(trace) or 'trace followed verbatim'})")
    return outcome
