"""The discrete-event simulator: a clock and an ordered event queue.

An :class:`Event` is a callback scheduled at an absolute virtual time.
Events at the same timestamp fire in the order they were scheduled, which
keeps runs deterministic.  Components either schedule callbacks directly or
run generator-based :class:`~repro.sim.process.Process` objects on top of
the simulator.

Same-tick ordering is also a *pluggable* dimension.  :meth:`Simulator.step`
(one event) and :meth:`Simulator.run` (many) both pop events in heap
order.  When a tie-breaker is installed (``sim.set_tie_breaker(...)``,
see :mod:`repro.sched.tiebreak`) and the next event shares its timestamp
with other live events, both hand that same-tick set to one picker: the
tie-breaker chooses the event to run and the others stay queued.
Explorers in :mod:`repro.sched` use the hook to permute, enumerate, and
replay same-tick schedules for race hunting; with no tie-breaker (the
default) the order is plain FIFO.
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
    """Single-threaded discrete-event simulator with a microsecond clock.

    Events run in ``(time, seq)`` order.  An installed tie-breaker may
    reorder events that share a timestamp, never events at different
    timestamps.  Every event that has not run yet, including the peers a
    tie-breaker passed over, stays in the heap, so :meth:`peek`,
    :meth:`pending` and the drain loop see one queue.
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        #: ``(time, seq, event)`` heap entries; see :class:`Event`.
        self._queue: List[Tuple[int, int, Event]] = []
        self._running = False
        #: Optional same-tick ordering policy (see repro.sched.tiebreak).
        #: None means plain FIFO heap order.
        self.tie_breaker = None

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
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        if not queue:
            return None
        return queue[0][0]

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _, event = heappop(queue)
            if event.cancelled:
                continue
            self._now = time
            if (self.tie_breaker is not None and queue
                    and queue[0][0] == time):
                event = self._pick(time, event)
            event.fn()
            return True
        return False

    def _pick(self, time: int, head: Event) -> Event:
        """Let the tie-breaker choose among ``head``'s same-tick peers.

        ``head`` has just been popped; its live peers at ``time`` are
        popped after it in ``seq`` order, so the set the tie-breaker sees
        is seq-sorted.  Every peer not chosen goes back under its
        original ``(time, seq)``, so events a callback schedules at the
        current time join the next pick on their own.  If ``pick()``
        raises, the whole set goes back and nothing has run.
        """
        queue = self._queue
        peers = [head]
        while queue and queue[0][0] == time:
            event = heappop(queue)[2]
            if not event.cancelled:
                peers.append(event)
        if len(peers) == 1:
            return head
        try:
            chosen = peers.pop(self.tie_breaker.pick(time, peers))
        finally:
            for event in peers:
                heappush(queue, (time, event.seq, event))
        return chosen

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
        self._running = True
        executed = 0
        # The drain loop is the hottest code in the tree (every sim event
        # in every run passes through it), so the peek()/step() pair is
        # inlined into a single heap access per event: cancelled events
        # are popped without counting, everything else pays exactly one
        # heappop, one clock store, one tie-breaker test, and one call.
        queue = self._queue
        tie_breaker = self.tie_breaker
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
                if (tie_breaker is not None and queue
                        and queue[0][0] == time):
                    event = self._pick(time, event)
                event.fn()
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = int(until)
        return executed

    def run_for(self, duration: int) -> int:
        """Run the simulation for ``duration`` microseconds from now."""
        return self.run(until=self._now + int(duration))

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def clear(self) -> None:
        """Drop every queued event, so a :meth:`run` in progress returns
        once the current event does."""
        self._queue.clear()
