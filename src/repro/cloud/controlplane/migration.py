"""Migrating paused virtual drones between flights, via the VDR.

A virtual drone whose task was interrupted on one flight "can be resumed
on a later flight" (paper §2/§4.4) — and at city scale the later flight
is usually on a *different* physical drone.  The coordinator drives that
hand-off through the existing VDR export/import path on the sim clock:

    REQUESTED ──> EXPORTING ──> STORED ──> PLACING ──> IMPORTING ──> COMPLETED
                                              ▲            │
                                              └── retry ────┘
                 (any step) ──> FAILED

* **EXPORTING** models committing the container's diff layer; the entry
  lands in the tenant's home-shard VDR (the tenant's state is then safe
  regardless of what happens to either physical drone).
* **PLACING** re-runs the pluggable placer over the fleet minus the
  source drone; no feasible target is retried with deterministic
  backoff, then surfaces as :class:`MigrationTargetError`.
* **IMPORTING** re-validates the world before committing: the VDR entry
  must still exist, and the target must still be up with a free slot —
  a target that restarted mid-import raises
  :class:`MigrationAbortedError` and the ticket loops back to PLACING.

Every transition emits a ``cp.migration_state`` event and appends to the
plane's journal; the whole migration is bracketed by a ``cp.migration``
span so traces show hand-off latency end to end.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import repro.obs as obs
from repro.cloud.controlplane.errors import (
    MigrationAbortedError,
    MigrationError,
    MigrationStateError,
    MigrationTargetError,
    NoFeasiblePlacementError,
)
from repro.cloud.controlplane.fleet import DroneStateError, FleetDirectory
from repro.cloud.controlplane.placement import (
    PlacementDecision,
    PlacementPolicy,
    PlacementRequest,
)
from repro.cloud.vdr import UnknownVdrEntryError, VirtualDroneRepository
from repro.containers.image import Layer
from repro.vdc.definition import VirtualDroneDefinition

#: Base image tag recorded on migration VDR entries.
BASE_IMAGE_TAG = "android-things-base"

#: Sim time to export a tenant's container diff at the source drone, and
#: to import it at the destination.
EXPORT_US = 2_000_000
IMPORT_US = 1_000_000


class MigrationState(enum.Enum):
    REQUESTED = "requested"
    EXPORTING = "exporting"
    STORED = "stored"
    PLACING = "placing"
    IMPORTING = "importing"
    COMPLETED = "completed"
    FAILED = "failed"


#: Legal transitions of the migration state machine.
TRANSITIONS = {
    MigrationState.REQUESTED: (MigrationState.EXPORTING,
                               MigrationState.FAILED),
    MigrationState.EXPORTING: (MigrationState.STORED, MigrationState.FAILED),
    MigrationState.STORED: (MigrationState.PLACING, MigrationState.FAILED),
    MigrationState.PLACING: (MigrationState.IMPORTING,
                             MigrationState.PLACING, MigrationState.FAILED),
    MigrationState.IMPORTING: (MigrationState.COMPLETED,
                               MigrationState.PLACING, MigrationState.FAILED),
    MigrationState.COMPLETED: (),
    MigrationState.FAILED: (),
}


@dataclass
class MigrationTicket:
    """One migration in flight, with its full transition history."""

    tenant: str
    source_drone: str
    request: PlacementRequest
    definition: VirtualDroneDefinition
    completed_waypoints: frozenset
    state: MigrationState = MigrationState.REQUESTED
    target_drone: Optional[str] = None
    entry_id: Optional[str] = None
    attempts: int = 0
    failure: Optional[str] = None
    #: (t_us, state) per transition, REQUESTED included.
    history: List[Tuple[int, str]] = field(default_factory=list)
    #: the home shard's VDR and the ``cp.migration`` span, both set by
    #: :meth:`MigrationCoordinator.begin`.
    vdr: Optional[VirtualDroneRepository] = field(
        default=None, repr=False, compare=False)
    span: Any = field(default=None, repr=False, compare=False)

    def transition(self, to: MigrationState, t_us: int) -> None:
        if to not in TRANSITIONS[self.state]:
            raise MigrationStateError(self.tenant, self.state.value, to.value)
        previous = self.state
        self.state = to
        self.history.append((t_us, to.value))
        obs.event("cp.migration_state", tenant=self.tenant, state=to.value,
                  previous=previous.value)


class MigrationCoordinator:
    """Runs migration tickets to completion on the sim clock.

    ``on_placed`` commits a tenant to its new drone (raising
    :class:`DroneStateError` when the slot went elsewhere meanwhile);
    ``on_failed`` finalizes the order as interrupted."""

    def __init__(self, sim, placer: PlacementPolicy, fleet: FleetDirectory,
                 on_placed: Callable[[MigrationTicket, PlacementDecision],
                                     None],
                 on_failed: Callable[[MigrationTicket, MigrationError], None],
                 journal: Callable[..., None],
                 retry_limit: int = 2, retry_backoff_s: float = 5.0):
        self.sim = sim
        self.placer = placer
        self.fleet = fleet
        self._on_placed = on_placed
        self._on_failed = on_failed
        self._journal = journal
        self.retry_limit = retry_limit
        self.retry_backoff_us = int(retry_backoff_s * 1e6)
        self.tickets: List[MigrationTicket] = []

    # -- entry point ------------------------------------------------------------
    def begin(self, ticket: MigrationTicket,
              vdr: VirtualDroneRepository) -> MigrationTicket:
        """Start ``ticket``, exporting into the home shard's ``vdr``."""
        ticket.history.append((self.sim.now, ticket.state.value))
        self.tickets.append(ticket)
        ticket.vdr = vdr
        ticket.span = obs.span("cp.migration", tenant=ticket.tenant,
                               source=ticket.source_drone)
        obs.counter("cp.migrations", outcome="started").inc()
        self._journal(kind="migration_requested", tenant=ticket.tenant,
                      source=ticket.source_drone)
        ticket.transition(MigrationState.EXPORTING, self.sim.now)
        self.sim.after(EXPORT_US, lambda: self._export_done(ticket))
        return ticket

    # -- steps ------------------------------------------------------------------
    def _export_done(self, ticket: MigrationTicket) -> None:
        resume_state = json.dumps({
            "tenant": ticket.tenant,
            "source": ticket.source_drone,
            "completed-waypoints": sorted(ticket.completed_waypoints),
        }, sort_keys=True)
        diff = Layer({"/data/resume.json": resume_state},
                     comment=f"migration of {ticket.tenant}")
        ticket.entry_id = ticket.vdr.store(
            ticket.tenant, ticket.definition, BASE_IMAGE_TAG, diff,
            resumable=True, completed_waypoints=ticket.completed_waypoints)
        ticket.transition(MigrationState.STORED, self.sim.now)
        self._journal(kind="migration_stored", tenant=ticket.tenant,
                      entry=ticket.entry_id)
        ticket.transition(MigrationState.PLACING, self.sim.now)
        self._try_place(ticket)

    def _try_place(self, ticket: MigrationTicket) -> None:
        ticket.attempts += 1
        try:
            decision = self.placer.place(
                ticket.request, self.fleet.states(exclude=ticket.source_drone))
        except NoFeasiblePlacementError as full:
            self._retry_or_fail(ticket, MigrationTargetError(str(full)))
            return
        ticket.target_drone = decision.drone_id
        ticket.transition(MigrationState.IMPORTING, self.sim.now)
        self.sim.after(IMPORT_US,
                       lambda: self._import_done(ticket, decision))

    def _import_done(self, ticket: MigrationTicket,
                     decision: PlacementDecision) -> None:
        try:
            ticket.vdr.fetch(ticket.entry_id)
        except UnknownVdrEntryError as gone:
            self._abort(ticket, f"VDR entry vanished: {gone}")
            return
        if not self.fleet.get(decision.drone_id).available:
            self._abort(ticket,
                        f"target {decision.drone_id} restarted mid-import")
            return
        try:
            self._on_placed(ticket, decision)
        except DroneStateError as raced:
            # The slot went to a fresh order between PLACING and now.
            self._abort(ticket, str(raced))
            return
        ticket.vdr.delete(ticket.entry_id)  # checked out of the repository
        ticket.transition(MigrationState.COMPLETED, self.sim.now)
        obs.counter("cp.migrations", outcome="completed").inc()
        self._journal(kind="migration_completed", tenant=ticket.tenant,
                      source=ticket.source_drone, target=ticket.target_drone)
        ticket.span.end(outcome="completed", target=ticket.target_drone,
                        attempts=ticket.attempts)

    # -- failure handling -------------------------------------------------------
    def _abort(self, ticket: MigrationTicket, reason: str) -> None:
        """Drop the IMPORTING target and loop back to PLACING."""
        ticket.target_drone = None
        self._journal(kind="migration_aborted", tenant=ticket.tenant,
                      reason=reason)
        ticket.transition(MigrationState.PLACING, self.sim.now)
        self._retry_or_fail(ticket,
                            MigrationAbortedError(ticket.tenant, reason))

    def _retry_or_fail(self, ticket: MigrationTicket,
                       error: MigrationError) -> None:
        if ticket.attempts <= self.retry_limit:
            obs.counter("cp.migrations", outcome="retried").inc()
            self.sim.after(self.retry_backoff_us,
                           lambda: self._try_place(ticket))
            return
        ticket.failure = str(error)
        ticket.transition(MigrationState.FAILED, self.sim.now)
        obs.counter("cp.migrations", outcome="failed").inc()
        self._journal(kind="migration_failed", tenant=ticket.tenant,
                      reason=str(error))
        ticket.span.end(outcome="failed", reason=str(error),
                        attempts=ticket.attempts)
        self._on_failed(ticket, error)

    # -- reporting --------------------------------------------------------------
    def stats(self) -> dict:
        by_state = {state.value: 0 for state in MigrationState}
        for ticket in self.tickets:
            by_state[ticket.state.value] += 1
        return by_state
