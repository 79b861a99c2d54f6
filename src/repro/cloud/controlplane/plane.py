"""The city-scale control plane: shards, placement, flights, migration.

:class:`CityControlPlane` is the orchestrator that ties the package
together.  Orders arrive from the synthetic city stream, are routed by
consistent hash to a shard worker (portal + admission + VDR partition),
placed onto a physical drone by the pluggable placer, flown in batches
per drone, and — when a tenant's task spans more than one flight —
migrated between drones through the VDR export/import path.

Everything runs on the discrete-event sim clock and every externally
visible action is appended to a journal; the journal's SHA-256 digest is
how the harness proves two runs at the same seed are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

import repro.obs as obs
from repro.cloud.controlplane.errors import (
    ControlPlaneConfigError,
    DroneStateError,
    MigrationError,
    NoFeasiblePlacementError,
)
from repro.cloud.controlplane.fleet import (
    DroneSpec,
    FleetDirectory,
    whitelist_rank,
)
from repro.cloud.controlplane.migration import (
    MigrationCoordinator,
    MigrationTicket,
)
from repro.cloud.controlplane.placement import (
    PlacementDecision,
    PlacementRequest,
    feasible,
    make_placer,
)
from repro.cloud.controlplane.ring import ConsistentHashRouter
from repro.cloud.controlplane.shard import ControlPlaneShard
from repro.cloud.portal import Order


#: Every state a :class:`TenantRecord` can be in.
TENANT_STATES = ("queued", "flying", "migrating", "completed", "failed",
                 "rejected")


@dataclass
class TenantRecord:
    """Control-plane view of one virtual-drone order's lifecycle."""

    tenant: str
    user: str
    order_id: int
    shard_id: str
    request: PlacementRequest
    drone_id: Optional[str] = None
    #: flights this tenant still needs; > 1 means migration(s) ahead.
    legs_remaining: int = 1
    #: one of :data:`TENANT_STATES`.
    state: str = "queued"
    submitted_t_us: int = 0
    completed_t_us: Optional[int] = None
    migrations: int = 0
    ticket: Optional[MigrationTicket] = None
    #: the owning plane's change set (:attr:`CityControlPlane.changed`),
    #: attached by the plane right after it builds the record.
    changes: Optional[Set[str]] = field(default=None, init=False,
                                        repr=False, compare=False)

    def __setattr__(self, name: str, value: Any) -> None:
        # The write barrier: every write, including ones made from
        # outside the plane, marks the tenant changed.
        object.__setattr__(self, name, value)
        if self.changes is not None:
            self.changes.add(self.tenant)


class CityControlPlane:
    """Shard router + fleet directory + placer + migration coordinator."""

    def __init__(self, sim, specs: List[DroneSpec], shard_count: int = 4,
                 placer: str = "binpack", max_pending: int = 32,
                 dispatch_delay_s: float = 5.0,
                 flight_overhead_s: float = 30.0,
                 service_fraction: float = 0.25,
                 migration_retry_limit: int = 2,
                 migration_retry_backoff_s: float = 5.0):
        if shard_count < 1:
            raise ControlPlaneConfigError(
                f"shard_count must be >= 1, got {shard_count}")
        if dispatch_delay_s < 0 or flight_overhead_s < 0:
            raise ControlPlaneConfigError(
                "dispatch delay and flight overhead must be >= 0")
        if service_fraction <= 0:
            raise ControlPlaneConfigError(
                f"service_fraction must be positive, got {service_fraction}")
        self.sim = sim
        self.shards = [
            ControlPlaneShard(f"shard-{i}", i, max_pending=max_pending)
            for i in range(shard_count)
        ]
        self._shards_by_id = {shard.shard_id: shard for shard in self.shards}
        self.router = ConsistentHashRouter(
            [shard.shard_id for shard in self.shards])
        self.fleet = FleetDirectory(specs)
        self.placer = make_placer(placer)
        self.dispatch_delay_us = int(dispatch_delay_s * 1e6)
        self.flight_overhead_s = flight_overhead_s
        self.service_fraction = service_fraction
        self.migrations = MigrationCoordinator(
            sim, self.placer, self.fleet, self._migration_placed,
            self._migration_failed, self.journal,
            retry_limit=migration_retry_limit,
            retry_backoff_s=migration_retry_backoff_s)
        self.records: Dict[str, TenantRecord] = {}
        #: tenants whose record was written since the invariant monitor
        #: last drained this set; every record the plane creates feeds it.
        self.changed: Set[str] = set()
        self._journal: List[Dict[str, Any]] = []
        self._launch_scheduled: set = set()
        self._locality_sum_m = 0.0
        self._locality_count = 0

    # -- journal & determinism --------------------------------------------------
    def journal(self, **fields: Any) -> None:
        entry = dict(fields)
        entry["t_us"] = self.sim.now
        self._journal.append(entry)

    def journal_entries(self) -> List[Dict[str, Any]]:
        return list(self._journal)

    def digest(self) -> str:
        """SHA-256 over the journal — equal digests mean two runs made
        the same decisions at the same sim times in the same order."""
        payload = json.dumps(self._journal, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    # -- order intake -----------------------------------------------------------
    def shard_for(self, user: str) -> ControlPlaneShard:
        return self._shards_by_id[self.router.route(user)]

    def submit_order(self, user: str, waypoints: List[Dict[str, float]],
                     east_m: float, north_m: float, *,
                     whitelist_class: str = "standard", legs: int = 1,
                     max_charge: float = 25.0, max_duration_s: float = 600.0,
                     drone_type: str = "standard") -> TenantRecord:
        """Route, admit, order, and place one virtual drone.

        Raises :class:`~repro.cloud.portal.PortalBusyError` when the
        owning shard's admission gate refuses (back-pressure; retry
        after ``retry_after_s``) and
        :class:`NoFeasiblePlacementError` when no physical drone can
        host the tenant (the order is cancelled through the portal, so
        the admission slot is released — a *typed reject through the
        admission layer*, not a leak).  A bad ``legs`` or
        ``whitelist_class`` raises :class:`ControlPlaneConfigError` before
        admission, so it takes no slot.
        """
        if legs < 1:
            raise ControlPlaneConfigError(f"legs must be >= 1, got {legs}")
        whitelist_rank(whitelist_class)
        shard = self.shard_for(user)
        order = shard.submit(user, waypoints, max_charge=max_charge,
                             max_duration_s=max_duration_s,
                             drone_type=drone_type)
        tenant = order.definition.name
        request = PlacementRequest(
            tenant=tenant, east_m=east_m, north_m=north_m,
            energy_j=order.definition.energy_allotted_j,
            duration_s=min(max_duration_s, order.estimated_flight_time_s),
            whitelist_class=whitelist_class)
        record = TenantRecord(
            tenant=tenant, user=user, order_id=order.order_id,
            shard_id=shard.shard_id, request=request, legs_remaining=legs,
            submitted_t_us=self.sim.now)
        record.changes = self.changed
        try:
            decision = self.placer.place(request, self.fleet.states())
        except NoFeasiblePlacementError:
            shard.portal.cancel_order(order.order_id)
            obs.counter("cp.rejected", shard=shard.shard_id,
                        reason="capacity").inc()
            record.state = "rejected"
            self.records[tenant] = record
            self.journal(kind="order_rejected", tenant=tenant,
                         shard=shard.shard_id, reason="capacity")
            raise
        self._commit_placement(record, order, decision)
        return record

    def _enqueue(self, record: TenantRecord,
                 decision: PlacementDecision) -> None:
        """Queue ``record`` on the drone ``decision`` chose — the one
        placement commit, shared by fresh orders and migrations."""
        self.fleet.get(decision.drone_id).enqueue(
            record.request.as_placed())
        record.drone_id = decision.drone_id
        record.state = "queued"
        self._locality_sum_m += decision.distance_m
        self._locality_count += 1
        obs.counter("cp.placements", drone=decision.drone_id,
                    policy=self.placer.name).inc()

    def _commit_placement(self, record: TenantRecord, order: Order,
                          decision: PlacementDecision) -> None:
        self._enqueue(record, decision)
        self.records[record.tenant] = record
        window_start_s = (self.sim.now + self.dispatch_delay_us) / 1e6
        self._shards_by_id[record.shard_id].portal.confirm_window(
            order.order_id, window_start_s,
            window_start_s + record.request.duration_s)
        self.journal(kind="order_placed", tenant=record.tenant,
                     shard=record.shard_id, drone=decision.drone_id,
                     score=round(decision.score, 6))
        self._maybe_schedule_flight(decision.drone_id)

    # -- flight lifecycle -------------------------------------------------------
    def _maybe_schedule_flight(self, drone_id: str) -> None:
        drone = self.fleet.get(drone_id)
        if (drone.in_flight or not drone.available or not drone.pending
                or drone_id in self._launch_scheduled):
            return
        self._launch_scheduled.add(drone_id)
        self.sim.after(self.dispatch_delay_us,
                       lambda: self._launch(drone_id))

    def _launch(self, drone_id: str) -> None:
        self._launch_scheduled.discard(drone_id)
        drone = self.fleet.get(drone_id)
        if drone.in_flight or not drone.available or not drone.pending:
            return
        manifest = drone.begin_flight()
        obs.counter("cp.flights", drone=drone_id).inc()
        self.journal(kind="flight_started", drone=drone_id,
                     tenants=sorted(p.tenant for p in manifest))
        for placed in manifest:
            record = self.records[placed.tenant]
            record.state = "flying"
            shard = self._shards_by_id[record.shard_id]
            local_id = record.order_id % 1_000_000
            shard.portal.flight_started(
                record.order_id,
                ip=f"10.{shard.index}.{(local_id >> 8) & 0xFF}"
                   f".{local_id & 0xFF}",
                port=2200)
        flight_s = self.flight_overhead_s + sum(
            self.service_fraction * p.duration_s for p in manifest)
        self.sim.after(int(flight_s * 1e6),
                       lambda: self._complete_flight(drone_id))

    def _complete_flight(self, drone_id: str) -> None:
        drone = self.fleet.get(drone_id)
        served = drone.complete_flight()
        self.journal(kind="flight_completed", drone=drone_id,
                     tenants=sorted(p.tenant for p in served))
        for placed in served:
            record = self.records[placed.tenant]
            record.legs_remaining -= 1
            shard = self._shards_by_id[record.shard_id]
            if record.legs_remaining <= 0:
                shard.portal.flight_completed(
                    record.order_id,
                    [f"files/{record.tenant}/summary.json"])
                record.state = "completed"
                record.completed_t_us = self.sim.now
                obs.counter("cp.completed", shard=record.shard_id).inc()
                self.journal(kind="tenant_completed", tenant=record.tenant,
                             shard=record.shard_id)
            else:
                shard.portal.flight_interrupted(record.order_id)
                record.state = "migrating"
                record.migrations += 1
                self._begin_migration(record, drone_id)
        self._maybe_schedule_flight(drone_id)

    # -- migration --------------------------------------------------------------
    def _begin_migration(self, record: TenantRecord,
                         source_drone: str) -> None:
        shard = self._shards_by_id[record.shard_id]
        order = shard.portal.orders[record.order_id]
        waypoint_count = len(order.definition.waypoints)
        completed = frozenset(range(max(1, waypoint_count // 2)))
        ticket = MigrationTicket(
            tenant=record.tenant, source_drone=source_drone,
            request=record.request, definition=order.definition,
            completed_waypoints=completed)
        record.ticket = ticket
        self.migrations.begin(ticket, shard.vdr)

    def _migration_placed(self, ticket: MigrationTicket,
                          decision: PlacementDecision) -> None:
        if not feasible(self.fleet.get(decision.drone_id), ticket.request):
            # Headroom taken by fresh orders between PLACING and now;
            # the coordinator treats this as a retryable abort.
            raise DroneStateError(
                f"{decision.drone_id} no longer feasible for "
                f"{ticket.tenant!r}")
        self._enqueue(self.records[ticket.tenant], decision)
        self._maybe_schedule_flight(decision.drone_id)

    def _migration_failed(self, ticket: MigrationTicket,
                          error: MigrationError) -> None:
        record = self.records[ticket.tenant]
        record.state = "failed"
        record.completed_t_us = self.sim.now
        shard = self._shards_by_id[record.shard_id]
        # Terminal: the order stays interrupted (the tenant's state is
        # preserved in the VDR history) and the admission slot frees up.
        shard.portal.flight_completed(record.order_id, [], interrupted=True)

    # -- failure injection ------------------------------------------------------
    def restart_drone(self, drone_id: str, downtime_s: float) -> None:
        """Take a physical drone's VDC host down for ``downtime_s``.

        Illegal mid-flight (a crash of an airborne drone is a different
        failure class than a host restart between flights).  Queued
        tenants stay queued; migrations that chose this drone as a
        target abort at import and re-place elsewhere.
        """
        drone = self.fleet.get(drone_id)
        if drone.in_flight:
            raise DroneStateError(
                f"{drone_id} is mid-flight; cannot restart its host now")
        if not drone.available:
            raise DroneStateError(f"{drone_id} is already down")
        if downtime_s <= 0:
            raise ControlPlaneConfigError(
                f"downtime_s must be positive, got {downtime_s}")
        drone.available = False
        obs.counter("cp.drone_restarts", drone=drone_id).inc()
        self.journal(kind="drone_restart", drone=drone_id,
                     downtime_s=downtime_s)
        self.sim.after(int(downtime_s * 1e6),
                       lambda: self._drone_back(drone_id))

    def _drone_back(self, drone_id: str) -> None:
        drone = self.fleet.get(drone_id)
        drone.available = True
        self.journal(kind="drone_back", drone=drone_id)
        self._maybe_schedule_flight(drone_id)

    # -- roll-ups ---------------------------------------------------------------
    def rollup(self) -> None:
        """Refresh fleet-level gauges from shard and fleet state.

        Gauges are all it sets, so with telemetry off it does nothing."""
        if not obs.on:
            return
        active = sum(1 for r in self.records.values()
                     if r.state in ("queued", "flying", "migrating"))
        obs.gauge("cp.tenants_active").set(active)
        for shard in self.shards:
            obs.gauge("cp.shard_pending",
                      shard=shard.shard_id).set(shard.admission.pending)
            obs.gauge("cp.vdr_stored_bytes",
                      shard=shard.shard_id).set(
                          shard.vdr.total_stored_bytes())

    def mean_placement_distance_m(self) -> float:
        """Mean pad-to-waypoint distance over all committed placements —
        the placement-quality headline the benchmark compares placers on."""
        if not self._locality_count:
            return 0.0
        return self._locality_sum_m / self._locality_count

    def stats(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        for record in self.records.values():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        return {
            "tenants": len(self.records),
            "by_state": by_state,
            "flights": sum(d.flights_flown for d in self.fleet.states()),
            "migrations": self.migrations.stats(),
            "shards": [shard.snapshot() for shard in self.shards],
        }
