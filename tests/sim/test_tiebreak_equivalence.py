"""The FIFO tie-breaker is the default heap order, byte for byte.

Installing ``FifoTieBreaker`` makes the drain loop hand every same-tick
set to the tie-breaker, so these tests are the proof that the
exploration machinery itself changes nothing: a synthetic event program
(same-tick spawns, cancellations, step/run mixing) must execute in
exactly the default order, and every registered exploration scenario
must produce the same behavior digest with no tie-breaker and under
FIFO exploration.  Under any tie-breaker, a ``step()``-driven drain and
a ``run()``-driven drain make the same picks.
"""

import pytest

from repro.sched import FifoTieBreaker, RandomTieBreaker, make_scenario
from repro.sim import Simulator


def _event_program(sim, trace, spawn_key=""):
    """A program exercising same-tick spawns and cancellation.

    Three events share t=0; the first schedules two more at t=0 (they
    must join the next pick at that tick) and cancels one of them;
    later ticks interleave ``after`` chains.
    """
    def spawner():
        trace.append("spawner")
        sim.call_soon(lambda: trace.append("spawned-live"), key=spawn_key)
        doomed = sim.call_soon(lambda: trace.append("spawned-doomed"))
        doomed.cancel()

    sim.at(0, spawner, key="spawner")
    sim.at(0, lambda: trace.append("b"), key="b")
    sim.at(0, lambda: trace.append("c"))
    sim.at(5, lambda: trace.append("t5-a"))
    sim.at(5, lambda: sim.after(0, lambda: trace.append("t5-spawn")))
    sim.at(9, lambda: trace.append("t9"))


def test_fifo_tiebreaker_matches_default_run_order():
    default_trace, fifo_trace = [], []
    default_sim, fifo_sim = Simulator(), Simulator()
    _event_program(default_sim, default_trace)
    _event_program(fifo_sim, fifo_trace)
    fifo_sim.set_tie_breaker(FifoTieBreaker())
    assert default_sim.run() == fifo_sim.run()
    assert fifo_trace == default_trace
    assert default_trace == [
        "spawner", "b", "c", "spawned-live", "t5-a", "t5-spawn", "t9"]
    assert fifo_sim.now == default_sim.now


def test_fifo_tiebreaker_matches_default_step_order():
    """step()-driven loops (the fleet harness) explore identically."""
    default_trace, fifo_trace = [], []
    default_sim, fifo_sim = Simulator(), Simulator()
    _event_program(default_sim, default_trace)
    _event_program(fifo_sim, fifo_trace)
    fifo_sim.set_tie_breaker(FifoTieBreaker())
    while default_sim.step():
        pass
    while fifo_sim.step():
        pass
    assert fifo_trace == default_trace
    assert fifo_sim.now == default_sim.now


@pytest.mark.parametrize("seed", range(5))
def test_step_and_run_make_the_same_picks(seed):
    """step() and run() are two bodies sharing one picker."""
    traces, decisions = [], []
    for drain in ("step", "run"):
        trace = []
        sim = Simulator()
        _event_program(sim, trace, spawn_key="spawned")
        tie_breaker = RandomTieBreaker(seed)
        sim.set_tie_breaker(tie_breaker)
        if drain == "step":
            while sim.step():
                pass
        else:
            sim.run()
        traces.append(trace)
        decisions.append(tie_breaker.decisions)
    assert traces[0] == traces[1]
    assert decisions[0] == decisions[1]
    assert decisions[0], "the program has same-tick choice points"


def test_run_until_never_overshoots_under_exploration():
    trace = []
    sim = Simulator()
    sim.at(0, lambda: trace.append(0))
    sim.at(10, lambda: trace.append(10))
    sim.at(20, lambda: trace.append(20))
    sim.set_tie_breaker(FifoTieBreaker())
    assert sim.run(until=10) == 2
    assert trace == [0, 10]
    assert sim.now == 10
    assert sim.pending() == 1


def test_removing_tiebreaker_returns_inflight_events_to_heap():
    """Unexecuted same-tick peers survive switching back to default."""
    trace = []
    sim = Simulator()
    for name in ("a", "b", "c"):
        sim.at(0, lambda name=name: trace.append(name))
    sim.set_tie_breaker(FifoTieBreaker())
    sim.step()  # picks "a" from the same-tick set, leaves b+c queued
    assert trace == ["a"]
    assert sim.pending() == 2
    sim.set_tie_breaker(None)
    sim.run()
    assert trace == ["a", "b", "c"]


@pytest.mark.parametrize("name", ["binder-burst", "city-smoke",
                                  "fig10-smoke"])
def test_scenario_digest_identical_default_vs_fifo(name):
    scenario = make_scenario(name)
    default_outcome = scenario.run(None)
    fifo_outcome = scenario.run(FifoTieBreaker())
    assert fifo_outcome.digest == default_outcome.digest
    assert fifo_outcome.final == default_outcome.final


def test_storm_scenario_digest_identical_default_vs_fifo():
    scenario = make_scenario("storm-smoke")
    default_outcome = scenario.run(None)
    fifo_outcome = scenario.run(FifoTieBreaker())
    assert fifo_outcome.digest == default_outcome.digest
    assert fifo_outcome.records == default_outcome.records
