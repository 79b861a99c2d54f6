"""SecurityFabric: one-call wiring of the hardening layer into a run.

The fabric owns the fleet-wide :class:`AnomalyDetector` plus the
cloud-edge order guard, builds per-node binder/MAVLink guards and a
:class:`SimplexController` for every drone it protects, and mints the
per-tenant :class:`TenantSession` secure channels (secrets derived from
the scenario seed, so runs replay bit-for-bit).

Everything is additive and reference-based: ``protect_*`` methods set
the optional hook attributes the stack exposes
(``AdmissionController.abuse_guard``, ``BinderDriver.rate_guard``,
``MavProxy.rate_guard``, ``MavlinkConnection.session``) and nothing
else changes — a run without a fabric is byte-identical to one built
before this module existed.
"""

from __future__ import annotations

from typing import Dict, List

from repro.security.anomaly import AnomalyDetector
from repro.security.channel import TenantSession
from repro.security.guards import RateGuard
from repro.security.simplex import SimplexController

#: Platform containers never throttled at the binder edge: the device
#: container's services, the flight container's HAL/proxy, and host
#: ("" container) processes are trusted infrastructure, not tenants.
PLATFORM_CONTAINERS = ("", "device", "flight", "host")


# Guard, channel and detector settings, sized for the loadgen scenarios:
# honest workloads fit comfortably inside every bucket; the flood
# workloads exceed them within one window.

#: binder transactions per tenant container.
BINDER_RATE_PER_S = 120.0
BINDER_BURST = 60
#: MAVLink commands per tenant VFC connection.
MAVLINK_RATE_PER_S = 10.0
MAVLINK_BURST = 15
#: portal orders per user.
ORDER_RATE_PER_S = 0.5
ORDER_BURST = 4
#: secure-channel key schedule.
REKEY_INTERVAL_S = 20.0
REPLAY_WINDOW = 64
#: anomaly detector windowing.
ANOMALY_WINDOW_S = 1.0
ANOMALY_THRESHOLD = 10
SUSTAIN_WINDOWS = 2
CLEAR_WINDOWS = 3


class SecurityFabric:
    """Build and hold every security component for one fleet run."""

    def __init__(self, sim, seed: int = 0):
        self.sim = sim
        self.seed = seed
        clock = lambda: sim.now / 1e6  # noqa: E731
        self._clock = clock
        self.detector = AnomalyDetector(
            sim, window_s=ANOMALY_WINDOW_S, threshold=ANOMALY_THRESHOLD,
            sustain_windows=SUSTAIN_WINDOWS, clear_windows=CLEAR_WINDOWS)
        self.order_guard = RateGuard(
            clock, edge="order", rate_per_s=ORDER_RATE_PER_S,
            burst=ORDER_BURST, detector=self.detector)
        self.simplexes: List[SimplexController] = []
        self.sessions: Dict[str, TenantSession] = {}
        self._node_guards: List[RateGuard] = []
        self._started = False

    # -- wiring ---------------------------------------------------------------
    def protect_admission(self, admission) -> "SecurityFabric":
        """Rate-guard portal orders ahead of the pending-queue check, so
        a storm of bogus orders is refused before it occupies slots."""
        admission.abuse_guard = self.order_guard
        return self

    def protect_node(self, node) -> SimplexController:
        """Guard one drone node's binder and MAVLink edges and attach a
        simplex safety controller for its tenants."""
        binder_guard = RateGuard(
            self._clock, edge="binder",
            rate_per_s=BINDER_RATE_PER_S, burst=BINDER_BURST,
            exempt=PLATFORM_CONTAINERS, detector=self.detector)
        mavlink_guard = RateGuard(
            self._clock, edge="mavlink",
            rate_per_s=MAVLINK_RATE_PER_S, burst=MAVLINK_BURST,
            detector=self.detector)
        node.driver.rate_guard = binder_guard
        node.proxy.rate_guard = mavlink_guard
        self._node_guards.extend((binder_guard, mavlink_guard))
        simplex = SimplexController(self.sim, node,
                                    guards=(binder_guard, mavlink_guard),
                                    detector=self.detector)
        self.simplexes.append(simplex)
        return simplex

    def session_for(self, tenant: str) -> TenantSession:
        """The tenant's secure-channel session (created on first use;
        the secret is seed+tenant derived, shared only by the two
        endpoints the harness hands it to)."""
        session = self.sessions.get(tenant)
        if session is None:
            session = TenantSession(
                secret=f"andrones3cret:{self.seed}:{tenant}", tenant=tenant,
                rekey_interval_s=REKEY_INTERVAL_S,
                replay_window=REPLAY_WINDOW,
                detector=self.detector)
            if self._started:
                session.start(self.sim)
            self.sessions[tenant] = session
        return session

    def start(self) -> "SecurityFabric":
        if not self._started:
            self._started = True
            self.detector.start()
            for session in self.sessions.values():
                session.start(self.sim)
        return self

    def stop(self) -> None:
        self._started = False
        self.detector.stop()
        for session in self.sessions.values():
            session.stop()

    # -- introspection (invariant monitor) -------------------------------------
    def is_contained(self, tenant: str) -> bool:
        """A flagged tenant counts as contained once some simplex has it
        engaged (quarantined + SAFETY/finished) or no node knows it
        (cloud-side user names, e.g. an order-storm attacker)."""
        known = False
        for simplex in self.simplexes:
            if tenant in simplex.node.vdc.drones:
                known = True
                if simplex.is_engaged(tenant):
                    return True
                drone = simplex.node.vdc.drones[tenant]
                if drone.finished:
                    return True
        return not known

    def guard_snapshots(self) -> List[Dict]:
        guards = [self.order_guard, *self._node_guards]
        return [guard.snapshot() for guard in guards]
