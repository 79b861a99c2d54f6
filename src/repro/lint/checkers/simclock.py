"""sim-clock: no wall-clock reads or sleeps on the simulated path.

Golden-trace digests, the recorded run digests, and every replay test
assume timestamps come from the one simulated clock
(``Simulator.now``).  A single ``time.time()`` on the sim path makes
runs diverge between hosts.  Modules that legitimately measure host
time (speedup and overhead numbers) are allowlisted in
:class:`~repro.lint.config.LintConfig.sim_clock_allow` or carry an
inline ``# repro-lint: disable=sim-clock``.
"""

from __future__ import annotations

from repro.lint.checkers._astutil import ImportMap, iter_calls
from repro.lint.core import Checker, register

BANNED_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@register
class SimClockChecker(Checker):
    rule = "sim-clock"
    description = ("wall-clock reads/sleeps are banned in sim-path "
                   "modules; timestamps come from the sim clock")

    def check_file(self, src, config):
        if src.package_rel in config.sim_clock_allow:
            return
        imap = ImportMap(src.tree)
        for call in iter_calls(src.tree):
            name = imap.resolve(call.func)
            if name in BANNED_CALLS:
                yield self.finding(
                    config, src.path, call.lineno, call.col_offset,
                    f"wall-clock call {name}() in a sim-path module; "
                    f"timestamps must come from the sim clock "
                    f"(Simulator.now / repro.sim.time) — allowlist the "
                    f"module in LintConfig.sim_clock_allow only for real "
                    f"wall-time measurement sites")
