"""Continuous invariants checked while a fleet soaks.

The monitor rides the simulation clock (every ``SWEEP_INTERVAL_S`` of sim
time) and asserts the properties the paper's design promises must hold
at *every* instant, not just at the end of a flight:

* **tenant isolation** — at most one tenant per drone is ``AT_WAYPOINT``
  and it is the VDC's ``active_tenant``; finished tenants are denied
  every device they ever had.
* **geofence containment** — while a fenced tenant's VFC is ACTIVE the
  physical drone stays inside that waypoint's geofence (RECOVERING /
  HOLDING are the sanctioned excursion-handling states and are exempt).
* **allotment accounting** — per-tenant ``time_used``/``energy_used``
  never decrease and never exceed the purchased allotment (plus the
  VDC's one enforcement-tick grace).
* **metric monotonicity** — no ``obs`` counter ever goes backwards
  (when telemetry is enabled).

Violations are collected, not raised, so a soak reports *all* breakage;
``InvariantMonitor.assert_clean()`` is the one-liner for tests.
:class:`SweepMonitor` and :class:`Violation` are shared with the city's
control-plane monitor (:mod:`repro.loadgen.city`).

The checks read plain attributes only (``policy._tenants`` phases via
``phase_of``, autopilot position, battery accounts) — they never call
``policy.allows`` or any instrumented path, so watching a run does not
perturb its trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import repro.obs as obs
from repro.sim import Periodic
from repro.vdc.device_access import TenantPhase

#: meters of slack on containment: breach detection, recovery planning
#: and the recovery flight itself all take sim time during which the
#: drone is legitimately just outside the fence.
FENCE_SLACK_M = 10.0

#: seconds of slack on the duration allotment: the VDC enforces on a 1 s
#: tick and the mission runner grants +10 s to wrap up (see
#: MissionRunner window_s), so momentary overshoot up to ~15 s is the
#: design working, not breaking.
TIME_SLACK_S = 30.0


@dataclass(frozen=True)
class Violation:
    """One broken promise, timestamped on the sim clock: ``subject`` is
    the drone, tenant or shard that broke ``rule``."""

    t_us: int
    subject: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return (f"[t={self.t_us / 1e6:.2f}s] {self.subject}: "
                f"{self.rule}: {self.detail}")


def assert_no_violations(violations: List[Violation]) -> None:
    """Raise ``AssertionError`` listing the first 20 violations, if any."""
    if violations:
        lines = "\n".join(f"  {v}" for v in violations[:20])
        more = len(violations) - 20
        suffix = f"\n  ... and {more} more" if more > 0 else ""
        raise AssertionError(
            f"{len(violations)} invariant violation(s):\n{lines}{suffix}")


class SweepMonitor:
    """Runs ``_sweep`` every ``interval_s`` of sim time between
    :meth:`start` and :meth:`stop`.

    A sweep records each broken rule through ``_flag``; read
    ``violations`` (or call :meth:`assert_clean`) after the run.
    ``checks`` counts finished sweeps, so tests can prove the monitor
    actually ran.
    """

    def __init__(self, sim, interval_s: float):
        self.sim = sim
        self.interval_us = int(interval_s * 1e6)
        self.violations: List[Violation] = []
        self.checks = 0
        self._loop = Periodic(sim, self.interval_us, self._run)

    def start(self):
        self._loop.start()
        return self

    def stop(self) -> None:
        self._loop.stop()

    def assert_clean(self) -> None:
        assert_no_violations(self.violations)

    def _flag(self, subject: str, rule: str, detail: str) -> None:
        self.violations.append(Violation(self.sim.now, subject, rule, detail))

    def _run(self) -> None:
        self._sweep()
        self.checks += 1

    def _sweep(self) -> None:
        raise NotImplementedError


#: Sim-time interval between two sweeps over a fleet's drones.
SWEEP_INTERVAL_S = 0.5


class InvariantMonitor(SweepMonitor):
    """Periodically checks every watched drone node.

    ``watch(name, node)`` before ``start()``.
    """

    def __init__(self, sim):
        super().__init__(sim, SWEEP_INTERVAL_S)
        self._nodes: Dict[str, object] = {}
        # high-water marks for the accounting invariants.
        self._time_seen: Dict[Tuple[str, str], float] = {}
        self._energy_seen: Dict[Tuple[str, str], float] = {}
        self._counters_seen: Dict[Tuple[str, Tuple], float] = {}
        # optional security fabric (see watch_security).
        self._fabric = None

    # -- wiring ---------------------------------------------------------------
    def watch(self, name: str, node) -> "InvariantMonitor":
        self._nodes[name] = node
        return self

    def watch_security(self, fabric) -> "InvariantMonitor":
        """Also assert the hardening layer's **containment** promise: a
        tenant the anomaly detector has flagged must, within a couple of
        sweeps, be contained — quarantined by a simplex controller,
        finished, or unknown to every drone (a cloud-side attacker the
        order guard already starves).  A flag left dangling means the
        detector fired but nothing acted on it."""
        self._fabric = fabric
        return self

    # -- the sweep ------------------------------------------------------------
    def _sweep(self) -> None:
        for name, node in self._nodes.items():
            self._check_isolation(name, node)
            self._check_containment(name, node)
            self._check_allotments(name, node)
        self._check_counters()
        if self._fabric is not None:
            self._check_security()

    def _check_security(self) -> None:
        grace_us = 2 * self.interval_us
        for tenant, flag in sorted(self._fabric.detector.flagged.items()):
            if self.sim.now - flag["since_us"] <= grace_us:
                continue  # the simplex may still be reacting.
            if not self._fabric.is_contained(tenant):
                self._flag("*", "security",
                           f"tenant {tenant} flagged at edge "
                           f"{flag['edge']!r} for "
                           f"{(self.sim.now - flag['since_us']) / 1e6:.1f} s "
                           f"without containment")

    def _check_isolation(self, name: str, node) -> None:
        vdc = node.vdc
        at_waypoint = [tenant for tenant in vdc.drones
                       if vdc.policy.phase_of(tenant) is TenantPhase.AT_WAYPOINT]
        if len(at_waypoint) > 1:
            self._flag(name, "isolation",
                       f"{len(at_waypoint)} tenants active at a waypoint "
                       f"simultaneously: {sorted(at_waypoint)}")
        if at_waypoint and vdc.active_tenant not in at_waypoint:
            self._flag(name, "isolation",
                       f"active_tenant={vdc.active_tenant!r} but "
                       f"AT_WAYPOINT={sorted(at_waypoint)}")
        # Finished tenants keep no device access (policy reads only —
        # allows() would count queries and perturb the trace).
        for tenant, drone in vdc.drones.items():
            if not drone.finished:
                continue
            if vdc.policy.phase_of(tenant) not in (TenantPhase.FINISHED, None):
                self._flag(name, "isolation",
                           f"finished tenant {tenant} still in phase "
                           f"{vdc.policy.phase_of(tenant)}")

    def _check_containment(self, name: str, node) -> None:
        position = node.sitl.autopilot.position()
        for tenant, drone in node.vdc.drones.items():
            vfc = drone.vfc
            # ACTIVE is the only state promising containment; RECOVERING
            # and HOLDING are the sanctioned ways out of an excursion.
            if vfc.state.name != "ACTIVE":
                continue
            autopilot = node.sitl.autopilot
            fence = autopilot.fence if autopilot.fence_enabled else None
            if fence is None or node.vdc.active_tenant != tenant:
                continue
            distance = fence.center.horizontal_distance_to(position)
            if distance > fence.radius_m + FENCE_SLACK_M:
                self._flag(name, "containment",
                           f"{tenant} ACTIVE but drone {distance:.1f} m from "
                           f"fence center (radius {fence.radius_m:.0f} m)")

    def _check_allotments(self, name: str, node) -> None:
        vdc = node.vdc
        for tenant, drone in vdc.drones.items():
            time_used = vdc.time_used(tenant)
            energy_used = vdc.energy_used(tenant)
            key = (name, tenant)
            if time_used < self._time_seen.get(key, 0.0) - 1e-9:
                self._flag(name, "allotment",
                           f"{tenant} time_used went backwards: "
                           f"{self._time_seen[key]:.3f} -> {time_used:.3f}")
            if energy_used < self._energy_seen.get(key, 0.0) - 1e-6:
                self._flag(name, "allotment",
                           f"{tenant} energy_used went backwards: "
                           f"{self._energy_seen[key]:.3f} -> {energy_used:.3f}")
            self._time_seen[key] = max(self._time_seen.get(key, 0.0), time_used)
            self._energy_seen[key] = max(self._energy_seen.get(key, 0.0),
                                         energy_used)
            limit_s = drone.definition.max_duration_s + TIME_SLACK_S
            if time_used > limit_s:
                self._flag(name, "allotment",
                           f"{tenant} used {time_used:.1f} s of a "
                           f"{drone.definition.max_duration_s:.0f} s allotment "
                           f"(+{TIME_SLACK_S:.0f} s grace)")

    def _check_counters(self) -> None:
        if not obs.on:
            return
        for instrument in obs.get_registry().instruments():
            if getattr(instrument, "kind", None) != "counter":
                continue
            key = (instrument.name, tuple(sorted(instrument.labels.items())))
            last = self._counters_seen.get(key)
            if last is not None and instrument.value < last:
                self._flag("*", "metrics",
                           f"counter {instrument.name}{instrument.labels} "
                           f"went backwards: {last} -> {instrument.value}")
            self._counters_seen[key] = instrument.value
