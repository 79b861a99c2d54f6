"""Tie-breakers: pluggable same-tick ordering policies for the simulator.

A :class:`TieBreaker` installed on a simulator
(:meth:`repro.sim.Simulator.set_tie_breaker`) is consulted by its drain
loop, :meth:`~repro.sim.Simulator.step` and
:meth:`~repro.sim.Simulator.run` alike, every time more than one live
event shares the next timestamp.  It sees the *same-tick set* in
ascending scheduling (``seq``) order and returns the index of the event
to run next; the others stay queued and are offered again, with any
events spawned at that timestamp, at the next pick.  The simulator never
lets it reorder events across different timestamps, so every policy
explores only legitimate interleavings of concurrent work.

Every pick from a non-trivial set is a *decision*, recorded as the chosen
index into the seq-sorted set.  The decision list is the whole schedule:
feeding it back through a :class:`TraceTieBreaker` replays the run
bit-for-bit, which is what the :mod:`repro.sched.explorer` shrinker and
the checked-in regression fixtures rely on.

Policies:

* :class:`FifoTieBreaker` — lowest ``seq`` first; provably identical to
  the default (no tie-breaker) heap order.
* :class:`RandomTieBreaker` — seeded uniform pick; the workhorse explorer.
* :class:`PctTieBreaker` — naive PCT: random priorities per event *key*
  with seeded priority-change points, biasing runs toward the rare
  orderings a uniform pick almost never lands on.
* :class:`TraceTieBreaker` — follows a recorded decision list (FIFO once
  exhausted): exact replay and shrinking.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.sim.rng import RngRegistry


def derive_seed(root: int, *parts: object) -> int:
    """A stable child seed from a root seed and any hashable labels."""
    text = ":".join([str(int(root))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class TieBreaker:
    """Base policy: record every decision, delegate the choice.

    Subclasses implement :meth:`choose`; :meth:`pick` wraps it with
    decision recording.  ``decisions`` holds the chosen index per
    decision point; ``meta`` mirrors it with the context a human (or an
    artifact) needs: timestamp, set size, and the chosen event's key.
    """

    #: strategy name stamped into artifacts.
    name = "base"

    def __init__(self) -> None:
        self.decisions: List[int] = []
        self.meta: List[dict] = []

    def reset(self) -> None:
        """Clear recorded decisions (reuse across runs is discouraged —
        explorers build one tie-breaker per schedule)."""
        self.decisions.clear()
        self.meta.clear()

    def pick(self, time: int, events: Sequence) -> int:
        index = self.choose(time, events)
        if not 0 <= index < len(events):
            raise ValueError(
                f"{self.name}: chose {index} from a set of {len(events)}")
        self.decisions.append(index)
        self.meta.append({"t": time, "size": len(events), "pick": index,
                          "key": events[index].key})
        return index

    def choose(self, time: int, events: Sequence) -> int:
        raise NotImplementedError


class FifoTieBreaker(TieBreaker):
    """Scheduling order (lowest seq) — the default semantics, explored.

    Running under this policy must be byte-identical to running with no
    tie-breaker at all; tests/sim/test_tiebreak_equivalence.py holds the
    pair together on golden digests and raw event sequences.
    """

    name = "fifo"

    def choose(self, time: int, events: Sequence) -> int:
        return 0


class RandomTieBreaker(TieBreaker):
    """Seeded uniform same-tick permutation."""

    name = "random"

    def __init__(self, seed: int):
        super().__init__()
        self.seed = int(seed)
        self._rng = RngRegistry(self.seed).stream("sched.tiebreak")

    def choose(self, time: int, events: Sequence) -> int:
        return self._rng.randrange(len(events))


class PctTieBreaker(TieBreaker):
    """Naive probabilistic concurrency testing (PCT) on event keys.

    Each logical key gets a random priority on first sight; the
    highest-priority member of the set runs first, so one key's events
    are systematically delayed behind another's for a whole run — the
    kind of sustained bias that flushes out ordering assumptions a
    uniform pick rarely hits.  At seeded change points the chosen key's
    priority is re-rolled, moving the bias around.  Anonymous events
    (empty key) are prioritized individually by their seq.
    """

    name = "pct"

    #: one priority change point every ~CHANGE_PERIOD decisions.
    CHANGE_PERIOD = 16

    def __init__(self, seed: int):
        super().__init__()
        self.seed = int(seed)
        self._rng = RngRegistry(self.seed).stream("sched.pct")
        self._priorities: Dict[str, float] = {}

    def _priority(self, event) -> float:
        label = event.key or f"anon#{event.seq}"
        priority = self._priorities.get(label)
        if priority is None:
            priority = self._rng.random()
            self._priorities[label] = priority
        return priority

    def choose(self, time: int, events: Sequence) -> int:
        best = max(range(len(events)),
                   key=lambda i: (self._priority(events[i]), -events[i].seq))
        if self._rng.random() < 1.0 / self.CHANGE_PERIOD:
            label = events[best].key or f"anon#{events[best].seq}"
            self._priorities[label] = self._rng.random()
        return best


class TraceTieBreaker(TieBreaker):
    """Replay a recorded decision list exactly.

    Past the end of the trace (or for a decision whose recorded index no
    longer fits the set — possible while *shrinking* a schedule) the
    policy falls back to FIFO, clamping out-of-range picks.  ``followed``
    counts decisions taken verbatim, so replays can assert fidelity.
    """

    name = "trace"

    def __init__(self, choices: Sequence[int]):
        super().__init__()
        self.choices = [int(c) for c in choices]
        self.followed = 0

    def choose(self, time: int, events: Sequence) -> int:
        position = len(self.decisions)
        if position >= len(self.choices):
            return 0
        wanted = self.choices[position]
        if 0 <= wanted < len(events):
            self.followed += 1
            return wanted
        return min(max(wanted, 0), len(events) - 1)


#: Strategy registry for the CLI / explorer.
STRATEGIES = {
    "fifo": FifoTieBreaker,
    "random": RandomTieBreaker,
    "pct": PctTieBreaker,
}


def make_tie_breaker(strategy: str, seed: int,
                     schedule_index: int = 0) -> TieBreaker:
    """Build the ``schedule_index``-th tie-breaker of a seeded family."""
    if strategy == "fifo":
        return FifoTieBreaker()
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}: choose from "
            f"{sorted(STRATEGIES)}")
    return STRATEGIES[strategy](derive_seed(seed, strategy, schedule_index))


def schedule_permutation(seed: int, length: int,
                         salt: object = "") -> List[int]:
    """A seeded permutation of ``range(length)`` for metamorphic tests
    that permute order-free structures (slot update order, candidate
    lists) the way a tie-breaker would permute a same-tick set."""
    order = list(range(length))
    RngRegistry(derive_seed(seed, "perm", salt)).stream(
        "sched.permutation").shuffle(order)
    return order


def exhausted(trace: TraceTieBreaker) -> Optional[str]:
    """Human-readable fidelity check after a replay (None when clean)."""
    if trace.followed < len(trace.choices):
        return (f"replayed {trace.followed}/{len(trace.choices)} recorded "
                f"decisions verbatim (run diverged or trace over-long)")
    return None
