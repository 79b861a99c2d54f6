"""Generator-based processes on top of the simulator.

A :class:`Process` wraps a generator that yields :class:`Timeout` wait
descriptions, resuming it after that many microseconds.

Processes are used for everything that is naturally sequential but not
scheduled by the simulated kernel: network message delivery, the cloud
flight planner's supervision loop, scripted mission steps, and so on.
(Threads *inside* the simulated kernel use a different mechanism; see
:mod:`repro.kernel.thread`.)
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.simulator import Simulator


class Timeout:
    """Yielded by a process to sleep for ``delay`` microseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ValueError(f"negative timeout {delay}")
        self.delay = int(delay)


class Process:
    """Drives a generator over the simulator's virtual clock."""

    def __init__(self, sim: Simulator, gen: Generator, name: str = ""):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        sim.call_soon(self._advance)

    def _advance(self) -> None:
        if self.done:
            return
        try:
            waited = next(self._gen)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            return
        except BaseException as exc:  # re-raised below; the driver records any failure, GeneratorExit included  # repro-lint: disable=error-taxonomy
            self.done = True
            self.exception = exc
            raise
        if isinstance(waited, Timeout):
            self._sim.after(waited.delay, self._advance)
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
