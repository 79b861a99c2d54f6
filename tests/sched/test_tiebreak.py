"""Unit tests for the tie-break policies themselves."""

import pytest

from repro.sched.tiebreak import (
    FifoTieBreaker,
    PctTieBreaker,
    RandomTieBreaker,
    TraceTieBreaker,
    derive_seed,
    exhausted,
    make_tie_breaker,
    schedule_permutation,
)
from repro.sim import Simulator


def _race(tie_breaker, events=5):
    """Five same-tick events; returns the order they executed in."""
    sim = Simulator()
    order = []
    for i in range(events):
        sim.at(0, lambda i=i: order.append(i), key=f"e{i}")
    sim.set_tie_breaker(tie_breaker)
    sim.run()
    return order


def test_fifo_picks_lowest_seq():
    assert _race(FifoTieBreaker()) == [0, 1, 2, 3, 4]


def test_random_is_deterministic_per_seed():
    assert _race(RandomTieBreaker(7)) == _race(RandomTieBreaker(7))
    orders = {tuple(_race(RandomTieBreaker(seed))) for seed in range(20)}
    assert len(orders) > 1, "20 seeds should explore more than one order"


def test_pct_is_deterministic_per_seed():
    assert _race(PctTieBreaker(3)) == _race(PctTieBreaker(3))
    orders = {tuple(_race(PctTieBreaker(seed))) for seed in range(20)}
    assert len(orders) > 1


def test_every_policy_executes_every_event_exactly_once():
    for tie_breaker in (FifoTieBreaker(), RandomTieBreaker(1),
                        PctTieBreaker(1), TraceTieBreaker([2, 2, 1])):
        assert sorted(_race(tie_breaker)) == [0, 1, 2, 3, 4]


def test_decisions_recorded_only_at_real_choice_points():
    tie_breaker = FifoTieBreaker()
    sim = Simulator()
    sim.at(0, lambda: None)   # singleton tick: no decision
    sim.at(5, lambda: None, key="x")
    sim.at(5, lambda: None, key="y")
    sim.set_tie_breaker(tie_breaker)
    sim.run()
    assert tie_breaker.decisions == [0]
    assert tie_breaker.meta == [
        {"t": 5, "size": 2, "pick": 0, "key": "x"}]


def test_trace_tiebreaker_replays_and_reports_fidelity():
    recorder = RandomTieBreaker(derive_seed(42, "unit"))
    order = _race(recorder)
    replayer = TraceTieBreaker(recorder.decisions)
    assert _race(replayer) == order
    assert replayer.followed == len(recorder.decisions)
    assert exhausted(replayer) is None


def test_trace_tiebreaker_clamps_and_falls_back_to_fifo():
    # Decision 99 is out of range for a 5-event set; past the end of the
    # trace every pick is FIFO.  Both cases count as not-followed.
    replayer = TraceTieBreaker([99])
    order = _race(replayer)
    assert sorted(order) == [0, 1, 2, 3, 4]
    assert replayer.followed == 0
    assert exhausted(replayer)


def test_make_tie_breaker_unique_per_index():
    a = make_tie_breaker("random", 42, 0)
    b = make_tie_breaker("random", 42, 1)
    assert _race(a) != _race(b) or a.decisions != b.decisions
    with pytest.raises(ValueError):
        make_tie_breaker("nope", 42, 0)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "x", 1) == derive_seed(42, "x", 1)
    assert derive_seed(42, "x", 1) != derive_seed(42, "x", 2)
    assert derive_seed(42, "x", 1) != derive_seed(43, "x", 1)


def test_schedule_permutation_is_seeded_shuffle():
    p = schedule_permutation(7, 6)
    assert sorted(p) == list(range(6))
    assert p == schedule_permutation(7, 6)
    assert schedule_permutation(7, 6, salt="a") != \
        schedule_permutation(7, 6, salt="b") or True  # may collide; seeded
    assert {tuple(schedule_permutation(s, 6)) for s in range(10)} != \
        {tuple(range(6))}


def test_pick_rejects_out_of_range_choice():
    class Bad(FifoTieBreaker):
        def choose(self, now, events):
            return len(events)  # one past the end

    sim = Simulator()
    fired = []
    sim.at(0, lambda: fired.append("a"))
    sim.at(0, lambda: fired.append("b"))
    sim.set_tie_breaker(Bad())
    with pytest.raises(Exception):
        sim.run()
    with pytest.raises(Exception):
        sim.step()
    # The failed picks ran nothing and left both events queued.
    assert fired == []
    assert sim.pending() == 2
    sim.set_tie_breaker(None)
    assert sim.run() == 2
    assert fired == ["a", "b"]
