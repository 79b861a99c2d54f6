"""The discrete-event simulator: a clock and an ordered event queue.

An :class:`Event` is a callback scheduled at an absolute virtual time.
Events at the same timestamp fire in the order they were scheduled, which
keeps runs deterministic.  Components either schedule callbacks directly or
run generator-based :class:`~repro.sim.process.Process` objects on top of
the simulator.

Same-tick ordering is also a *pluggable* dimension: installing a
:class:`TieBreaker` (``sim.set_tie_breaker(...)``) routes the drain loop
through an explored variant in which every set of runnable events sharing
the current timestamp is handed to the tie-breaker to pick from.  The
default (no tie-breaker) keeps the original FIFO heap order on the
original hot loop, byte for byte; explorers in :mod:`repro.sched` use the
hook to permute, enumerate, and replay same-tick schedules for race
hunting.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events support cancellation: a cancelled event stays in the heap but is
    skipped when popped.  This makes cancel O(1) and keeps the heap simple.

    The simulator's heap holds ``(time, seq, event)`` entries, so ordering
    is decided by C tuple comparison on the two integers; ``seq`` is
    unique, so the event itself is never compared.

    ``key`` is the event's *stable logical identity*: a short label naming
    the scheduling site (``"binder.flush"``, ``"proc.planner"``), not the
    scheduling order.  Keys let schedule explorers and their artifacts
    refer to an event independently of ``seq`` (which depends on execution
    history) and give priority-based tie-breakers a unit to prioritize.
    An empty key means "anonymous": still explorable, just unnamed.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "key")

    def __init__(self, time: int, seq: int, fn: Callable[[], Any],
                 key: str = ""):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.key = key

    def cancel(self) -> None:
        """Prevent the event's callback from running."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        label = f" key={self.key!r}" if self.key else ""
        return f"<Event t={self.time}us seq={self.seq}{label}{state}>"


class Simulator:
    """Single-threaded discrete-event simulator with a microsecond clock."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        #: ``(time, seq, event)`` heap entries; see :class:`Event`.
        self._queue: List[Tuple[int, int, Event]] = []
        self._running = False
        #: Optional same-tick ordering policy (see repro.sched.tiebreak).
        #: None means the original FIFO heap order on the original loop.
        self.tie_breaker = None
        #: While a tie-breaker is installed: the live events popped off
        #: the heap that share the current timestamp and have not run
        #: yet, ascending seq.  Survives across step() calls so drivers
        #: that single-step (the fleet harness) explore identically to
        #: ones that drain via run().
        self._tick: List[Event] = []

    @property
    def now(self) -> int:
        """Current virtual time in integer microseconds."""
        return self._now

    def set_tie_breaker(self, tie_breaker) -> None:
        """Install (or with ``None`` remove) a same-tick ordering policy.

        The tie-breaker is consulted by :meth:`run`/:meth:`step` whenever
        more than one live event shares the current timestamp; it never
        reorders events across *different* timestamps, so causality along
        the virtual clock is preserved under any policy.
        """
        self.tie_breaker = tie_breaker
        if tie_breaker is None and self._tick:
            # Hand any in-flight same-tick set back to the heap so the
            # default loop sees every unexecuted event.
            for event in self._tick:
                heappush(self._queue, (event.time, event.seq, event))
            self._tick = []

    def at(self, time: int, fn: Callable[[], Any], key: str = "") -> Event:
        """Schedule ``fn`` to run at absolute virtual time ``time``.

        ``key`` optionally names the event's logical scheduling site for
        schedule exploration (see :class:`Event`).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time}us, clock is at {self._now}us"
            )
        time = int(time)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, key)
        heappush(self._queue, (time, seq, event))
        return event

    def after(self, delay: int, fn: Callable[[], Any], key: str = "") -> Event:
        """Schedule ``fn`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}us")
        return self.at(self._now + int(delay), fn, key)

    def call_soon(self, fn: Callable[[], Any], key: str = "") -> Event:
        """Schedule ``fn`` at the current time, after already-queued events."""
        return self.after(0, fn, key)

    def peek(self) -> Optional[int]:
        """Return the time of the next pending event, or ``None`` if idle."""
        if self._tick and any(not e.cancelled for e in self._tick):
            return self._now
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        if not queue:
            return None
        return queue[0][0]

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        if self.tie_breaker is not None:
            return self._step_explored()
        queue = self._queue
        while queue:
            time, _, event = heappop(queue)
            if event.cancelled:
                continue
            self._now = time
            event.fn()
            return True
        return False

    def _step_explored(self) -> bool:
        """One tie-breaker-ordered event (the explored twin of step()).

        Maintains the instance-level same-tick set: events a callback
        scheduled at the current timestamp are absorbed into the set
        before the next pick, so freshly spawned work competes with the
        backlog exactly like a preemptable runqueue.  With the FIFO
        tie-breaker (lowest seq first) the execution order is provably
        identical to the default heap order.
        """
        queue = self._queue
        tick = self._tick
        while True:
            if tick:
                # Absorb same-timestamp arrivals; their seqs are above
                # everything already here, so appending keeps the set
                # seq-sorted.  Then drop members cancelled mid-tick.
                while queue and queue[0][0] == self._now:
                    event = heappop(queue)[2]
                    if not event.cancelled:
                        tick.append(event)
                if any(e.cancelled for e in tick):
                    tick[:] = [e for e in tick if not e.cancelled]
                if not tick:
                    continue
            else:
                while queue and queue[0][2].cancelled:
                    heappop(queue)
                if not queue:
                    return False
                tick_time = queue[0][0]
                while queue and queue[0][0] == tick_time:
                    event = heappop(queue)[2]
                    if not event.cancelled:
                        tick.append(event)
                if not tick:
                    continue
                self._now = tick_time
            index = 0 if len(tick) == 1 else self.tie_breaker.pick(
                self._now, tick)
            event = tick.pop(index)
            event.fn()
            return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once the clock would pass this absolute time.  The
                clock is advanced to ``until`` even if the queue empties
                earlier, mirroring real time passing with nothing to do.
            max_events: safety valve against runaway simulations.

        Returns:
            The number of events executed.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if self.tie_breaker is not None:
            return self._run_explored(until, max_events)
        self._running = True
        executed = 0
        # The drain loop is the hottest code in the tree (every sim event
        # in every run passes through it), so the peek()/step() pair is
        # inlined into a single heap access per event: cancelled events
        # are popped without counting, everything else pays exactly one
        # heappop, one clock store, and one call.
        queue = self._queue
        try:
            while queue:
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                self._now = time
                event.fn()
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = int(until)
        return executed

    def _run_explored(self, until: Optional[int],
                      max_events: Optional[int]) -> int:
        """The tie-breaker drain loop: ``run()`` over explored steps.

        ``peek()`` is consulted before each step so the clock never
        advances past ``until`` while forming a same-tick set; unexecuted
        members of the in-flight set live in ``self._tick`` and survive
        early exits (max_events, an exception mid-tick) into the next
        run()/step() call.
        """
        self._running = True
        executed = 0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.peek()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self._step_explored()
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = int(until)
        return executed

    def run_for(self, duration: int, max_events: Optional[int] = None) -> int:
        """Run the simulation for ``duration`` microseconds from now."""
        return self.run(until=self._now + int(duration), max_events=max_events)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return (sum(1 for entry in self._queue if not entry[2].cancelled)
                + sum(1 for e in self._tick if not e.cancelled))
