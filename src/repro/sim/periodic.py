"""A callback repeated on the simulator clock until stopped.

Service loops (telemetry rounds, monitors, samplers, the flight loop)
all share one shape: run a body, then schedule the next run one period
later, until someone stops the loop.  :class:`Periodic` is that shape.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from repro.sim.simulator import Simulator


class Periodic:
    """Run ``fn`` every ``period`` microseconds until :meth:`stop`.

    ``period`` is an int, or a zero-argument callable returning one.  It
    is read after each run of ``fn``, so a jittered loop draws its next
    delay after the body's own random draws.  Every scheduled run carries
    ``key`` (see :class:`~repro.sim.simulator.Event`).

    :meth:`stop` works from anywhere, ``fn`` included.  A run already
    queued when the loop stops stays in the heap and does nothing; it is
    not cancelled, so same-tick schedules see the same events.  Each
    :meth:`start` begins a fresh chain of runs, and the runs of an older
    chain stay inert.
    """

    def __init__(self, sim: Simulator,
                 period: Union[int, Callable[[], int]],
                 fn: Callable[[], Any], key: str = ""):
        self.sim = sim
        self.period = period
        self.fn = fn
        self.key = key
        #: the current chain's run function; None while stopped.
        self._run: Optional[Callable[[], None]] = None

    @property
    def running(self) -> bool:
        return self._run is not None

    def start(self, delay: Optional[int] = None) -> None:
        """Run ``fn`` now, or first after ``delay`` microseconds.  Does
        nothing while the loop is already running."""
        if self._run is not None:
            return
        sim, fn, key = self.sim, self.fn, self.key
        jittered = callable(self.period)

        def run() -> None:
            if self._run is run:
                fn()
                if self._run is run:
                    period = self.period
                    sim.after(period() if jittered else period, run, key)

        self._run = run
        if delay is None:
            run()
        else:
            sim.after(delay, run, key)

    def stop(self) -> None:
        self._run = None
