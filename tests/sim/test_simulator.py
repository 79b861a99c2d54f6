"""Tests for the discrete-event core."""

import pytest

import random

from repro.sched import FifoTieBreaker, RandomTieBreaker
from repro.sim import Simulator, Process, Timeout, RngRegistry
from repro.sim.simulator import Event, SimulationError
from repro.sim.time import millis, seconds, to_seconds


class TestClockAndEvents:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.after(30, lambda: fired.append("c"))
        sim.after(10, lambda: fired.append("a"))
        sim.after(20, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.after(5, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.after(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.after(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.after(10, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_run_until_advances_clock_past_empty_queue(self):
        sim = Simulator()
        sim.run(until=1000)
        assert sim.now == 1000

    def test_run_until_does_not_run_later_events(self):
        sim = Simulator()
        fired = []
        sim.after(500, lambda: fired.append(1))
        sim.after(1500, lambda: fired.append(2))
        sim.run(until=1000)
        assert fired == [1]
        assert sim.now == 1000

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def first():
            sim.after(10, lambda: fired.append("second"))

        sim.after(5, first)
        sim.run()
        assert fired == ["second"]
        assert sim.now == 15

    def test_pending_counts_live_events(self):
        sim = Simulator()
        e1 = sim.after(10, lambda: None)
        sim.after(20, lambda: None)
        e1.cancel()
        assert sim.pending() == 1

    def test_clear_from_an_event_ends_the_run_there(self):
        sim = Simulator()
        fired = []
        sim.after(10, lambda: (fired.append(10), sim.clear()))
        sim.after(10, lambda: fired.append("same tick"))
        sim.after(5_000, lambda: fired.append(5_000))
        assert sim.run() == 1
        assert fired == [10]
        assert sim.now == 10
        assert sim.pending() == 0

    def test_max_events_limits_execution(self):
        sim = Simulator()
        count = []
        for _ in range(10):
            sim.after(1, lambda: count.append(1))
        sim.run(max_events=3)
        assert len(count) == 3


def seeded_schedule(sim: Simulator, seed: int, fired: list) -> None:
    """A random same-tick-heavy schedule: 60 roots over 8 timestamps,
    some cancelled, some spawning same-tick and later children."""
    rng = random.Random(seed)
    events = []

    def make(tag):
        def fire():
            fired.append((sim.now, tag))
            if rng.random() < 0.3:
                sim.call_soon(make(tag + "s"))
            if rng.random() < 0.2:
                sim.after(rng.randrange(3) * 10, make(tag + "l"))
        return fire

    for index in range(60):
        events.append(sim.at(rng.randrange(8) * 10, make(f"e{index}")))
    for event in rng.sample(events, 10):
        event.cancel()


class TestHeapOrder:
    """The heap holds (time, seq, event) entries; events never compare."""

    def test_same_time_fifo_across_scheduling_sites(self):
        sim = Simulator()
        fired = []
        sim.at(10, lambda: fired.append("a"))
        sim.after(5, lambda: (fired.append("first"),
                              sim.at(10, lambda: fired.append("c"))))
        sim.at(10, lambda: (fired.append("b"),
                            sim.call_soon(lambda: fired.append("d"))))
        sim.run()
        assert fired == ["first", "a", "b", "c", "d"]

    def test_cancelled_head_skipped_by_run(self):
        sim = Simulator()
        fired = []
        sim.after(1, lambda: fired.append("head")).cancel()
        sim.after(1, lambda: fired.append("next"))
        assert sim.run() == 1
        assert fired == ["next"]

    def test_cancelled_head_skipped_by_step(self):
        sim = Simulator()
        fired = []
        sim.after(1, lambda: fired.append("head")).cancel()
        sim.after(2, lambda: fired.append("next"))
        assert sim.step() is True
        assert fired == ["next"] and sim.now == 2
        assert sim.step() is False

    def test_cancelled_head_skipped_by_peek(self):
        sim = Simulator()
        sim.after(1, lambda: None).cancel()
        sim.after(7, lambda: None)
        assert sim.peek() == 7
        sim.after(9, lambda: None).cancel()
        sim.run()
        assert sim.peek() is None

    def test_pending_ignores_cancelled_entries(self):
        sim = Simulator()
        events = [sim.after(t, lambda: None) for t in (1, 1, 2, 3, 3)]
        events[0].cancel()
        events[3].cancel()
        assert sim.pending() == 3
        sim.run(max_events=1)
        assert sim.pending() == 2
        events[4].cancel()
        assert sim.pending() == 1

    def test_pending_counts_the_same_tick_set(self):
        sim = Simulator()
        sim.set_tie_breaker(FifoTieBreaker())
        events = [sim.after(5, lambda: None) for _ in range(4)]
        sim.after(6, lambda: None)
        assert sim.step()
        # Three same-tick events wait in the tie-breaker's set.
        assert sim.pending() == 4
        events[2].cancel()
        assert sim.pending() == 3

    def test_removing_tie_breaker_mid_tick_keeps_order(self):
        sim = Simulator()
        fired = []
        sim.set_tie_breaker(FifoTieBreaker())
        for tag in "abcd":
            sim.after(5, lambda t=tag: fired.append(t))
        sim.after(9, lambda: fired.append("later"))
        assert sim.step()
        sim.set_tie_breaker(None)
        assert sim.pending() == 4
        sim.run()
        assert fired == ["a", "b", "c", "d", "later"]

    @pytest.mark.parametrize("tie_breaker", [
        None, FifoTieBreaker, lambda: RandomTieBreaker(3)])
    def test_events_are_never_compared(self, tie_breaker):
        # Events define no ordering, so a heap that compared two of them
        # would raise TypeError somewhere in these schedules.
        with pytest.raises(TypeError):
            Event(0, 0, lambda: None) < Event(0, 1, lambda: None)
        for seed in range(5):
            sim = Simulator()
            if tie_breaker is not None:
                sim.set_tie_breaker(tie_breaker())
            fired = []
            seeded_schedule(sim, seed, fired)
            assert sim.peek() is not None
            sim.run(max_events=20)
            while sim.step():
                pass
            assert fired and sim.pending() == 0

    def test_fifo_tie_breaker_matches_default_order(self):
        for seed in range(5):
            orders = []
            for tie_breaker in (None, FifoTieBreaker()):
                sim = Simulator()
                sim.set_tie_breaker(tie_breaker)
                fired = []
                seeded_schedule(sim, seed, fired)
                sim.run()
                orders.append(fired)
            assert orders[0] == orders[1]


class TestProcesses:
    def test_process_timeouts_advance_clock(self):
        sim = Simulator()
        trace = []

        def prog():
            trace.append(sim.now)
            yield Timeout(100)
            trace.append(sim.now)
            yield Timeout(50)
            trace.append(sim.now)

        Process(sim, prog(), "p")
        sim.run()
        assert trace == [0, 100, 150]

    def test_process_result(self):
        sim = Simulator()

        def prog():
            yield Timeout(1)
            return 42

        proc = Process(sim, prog(), "p")
        sim.run()
        assert proc.done
        assert proc.result == 42

    def test_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield Timeout(1)
            raise ValueError("boom")

        Process(sim, bad(), "bad")
        with pytest.raises(ValueError):
            sim.run()

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def bad():
            yield "not a wait"

        Process(sim, bad(), "bad")
        with pytest.raises(TypeError):
            sim.run()


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(7).stream("x").random()
        b = RngRegistry(7).stream("x").random()
        assert a == b

    def test_streams_are_independent_by_name(self):
        reg = RngRegistry(7)
        assert reg.stream("x").random() != reg.stream("y").random()

    def test_same_stream_instance_returned(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_fork_differs_from_parent(self):
        reg = RngRegistry(3)
        child = reg.fork("drone-1")
        assert child.seed != reg.seed
        assert child.stream("x").random() != reg.stream("x").random()

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


class TestTimeHelpers:
    def test_conversions(self):
        assert millis(1.5) == 1500
        assert seconds(2) == 2_000_000
        assert to_seconds(2_000_000) == 2.0
