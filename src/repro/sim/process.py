"""Generator-based processes on top of the simulator.

A :class:`Process` wraps a generator that yields *wait descriptions*:

* :class:`Timeout` — resume after a number of microseconds;
* :class:`WaitSignal` — resume when a :class:`Signal` fires, receiving the
  value passed to :meth:`Signal.fire`.

Processes are used for everything that is naturally sequential but not
scheduled by the simulated kernel: network message delivery, the cloud
flight planner's supervision loop, scripted mission steps, and so on.
(Threads *inside* the simulated kernel use a different mechanism; see
:mod:`repro.kernel.thread`.)
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.sim.simulator import Simulator


class Timeout:
    """Yielded by a process to sleep for ``delay`` microseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ValueError(f"negative timeout {delay}")
        self.delay = int(delay)


class Signal:
    """A broadcast condition processes can wait on.

    Firing wakes every current waiter exactly once; waiters registered after
    the fire wait for the next one.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Wake all current waiters, delivering ``value`` to each."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self._sim.call_soon(lambda w=waiter: w(value))

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class WaitSignal:
    """Yielded by a process to block until ``signal`` fires."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


class Process:
    """Drives a generator over the simulator's virtual clock."""

    def __init__(self, sim: Simulator, gen: Generator, name: str = ""):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.finished = Signal(sim, f"{name}.finished")
        sim.call_soon(lambda: self._advance(None))

    def _advance(self, value: Any) -> None:
        if self.done:
            return
        try:
            waited = self._gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.finished.fire(self.result)
            return
        except BaseException as exc:  # re-raised below; the driver records any failure, GeneratorExit included  # repro-lint: disable=error-taxonomy
            self.done = True
            self.exception = exc
            self.finished.fire(None)
            raise
        if isinstance(waited, Timeout):
            self._sim.after(waited.delay, lambda: self._advance(None))
        elif isinstance(waited, WaitSignal):
            waited.signal._subscribe(self._advance)
        elif isinstance(waited, Signal):
            waited._subscribe(self._advance)
        else:
            raise TypeError(f"process {self.name!r} yielded {waited!r}")

    def join(self) -> Any:
        """Step the simulator until this process finishes (or nothing is
        left to run); re-raise its exception, else return its result."""
        while not self.done:
            if not self._sim.step():
                break
        if self.exception is not None:
            raise self.exception
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<Process {self.name!r} {state}>"
