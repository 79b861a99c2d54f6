"""Migration: the state machine, VDR hand-off, and mid-import restarts."""

import pytest

from repro.cloud.controlplane import (
    CityControlPlane,
    DroneSpec,
    MigrationState,
    MigrationStateError,
    MigrationTicket,
    NoFeasiblePlacementError,
    PlacementRequest,
    TRANSITIONS,
)
from repro.cloud.portal import OrderState, PortalBusyError
from repro.sim import Simulator

WAYPOINTS = [
    {"latitude": 43.609, "longitude": -85.811, "altitude": 15},
    {"latitude": 43.610, "longitude": -85.812, "altitude": 15},
]


def spec(drone_id, east=0.0, north=0.0, capacity=2):
    return DroneSpec(drone_id=drone_id, east_m=east, north_m=north,
                     capacity=capacity, energy_budget_j=30_000.0,
                     time_budget_s=240.0, whitelist_class="standard")


def make_plane(sim, specs, **kwargs):
    kwargs.setdefault("shard_count", 1)
    kwargs.setdefault("migration_retry_limit", 2)
    kwargs.setdefault("migration_retry_backoff_s", 5.0)
    return CityControlPlane(sim, specs, **kwargs)


def submit(plane, user="alice", legs=2, east=0.0, north=0.0):
    # max_charge=2.0 -> 4,000 J allotment, well inside one flight budget.
    return plane.submit_order(user, WAYPOINTS, east, north, legs=legs,
                              max_charge=2.0)


class TestStateMachine:
    def ticket(self):
        request = PlacementRequest(tenant="vd1", east_m=0.0, north_m=0.0,
                                   energy_j=100.0, duration_s=10.0)
        return MigrationTicket(tenant="vd1", source_drone="pd-a",
                               request=request, definition=None,
                               completed_waypoints=frozenset([0]))

    def test_happy_path_transitions(self):
        ticket = self.ticket()
        for state in (MigrationState.EXPORTING, MigrationState.STORED,
                      MigrationState.PLACING, MigrationState.IMPORTING,
                      MigrationState.COMPLETED):
            ticket.transition(state, t_us=0)
        assert [name for _, name in ticket.history] == [
            "exporting", "stored", "placing", "importing", "completed"]

    def test_illegal_transition_is_typed(self):
        ticket = self.ticket()
        with pytest.raises(MigrationStateError):
            ticket.transition(MigrationState.COMPLETED, t_us=0)

    def test_terminal_states_have_no_exits(self):
        assert TRANSITIONS[MigrationState.COMPLETED] == ()
        assert TRANSITIONS[MigrationState.FAILED] == ()

    def test_import_can_fall_back_to_placing(self):
        assert MigrationState.PLACING in TRANSITIONS[MigrationState.IMPORTING]


class TestMigrationViaVdr:
    def test_two_leg_order_migrates_to_another_drone(self):
        sim = Simulator()
        plane = make_plane(sim, [spec("pd-a"), spec("pd-b", east=500.0)])
        record = submit(plane, east=0.0)
        assert record.drone_id == "pd-a"
        sim.run()
        assert record.state == "completed"
        assert record.migrations == 1
        assert record.drone_id == "pd-b"  # resumed on the other drone
        ticket = record.ticket
        assert ticket.state is MigrationState.COMPLETED
        assert ticket.source_drone == "pd-a"
        assert ticket.target_drone == "pd-b"
        # Checked out of the repository on completion.
        assert plane.shards[0].vdr.total_stored_bytes() == 0
        order = plane.shards[0].portal.orders[record.order_id]
        assert order.state is OrderState.COMPLETED
        assert plane.shards[0].admission.pending == 0

    def test_restart_of_target_mid_import_aborts_and_replaces(self):
        sim = Simulator()
        plane = make_plane(sim, [spec("pd-a"), spec("pd-b", east=500.0)])
        record = submit(plane)
        # Flight: 5 s dispatch + 30 s overhead + 0.25 * 25 s service;
        # export takes 2 s more, so the import window opens ~43.25 s in.
        # Take the only candidate target down across that window.
        sim.after(int(43.3e6),
                  lambda: plane.restart_drone("pd-b", downtime_s=3.0))
        sim.run()
        assert record.state == "completed"
        ticket = record.ticket
        assert ticket.state is MigrationState.COMPLETED
        assert ticket.attempts >= 2  # first import aborted, then re-placed
        aborted = [e for e in plane.journal_entries()
                   if e.get("kind") == "migration_aborted"]
        assert aborted and "restarted mid-import" in aborted[0]["reason"]
        restarts = [e for e in plane.journal_entries()
                    if e.get("kind") == "drone_restart"]
        assert restarts and restarts[0]["drone"] == "pd-b"

    def test_slot_raced_mid_import_aborts_and_replaces(self):
        sim = Simulator()
        plane = make_plane(sim, [spec("pd-a"),
                                 spec("pd-b", east=500.0, capacity=1)])
        record = submit(plane)
        # The import window opens ~43.25 s in (see the restart test);
        # a fresh order next to pd-b takes its only slot inside it.
        seen = []

        def fresh_order():
            seen.append(record.ticket.state)
            submit(plane, user="bob", legs=1, east=500.0)

        sim.after(int(43.5e6), fresh_order)
        sim.run()
        assert seen == [MigrationState.IMPORTING]
        assert plane.records["bob-order2"].drone_id == "pd-b"
        aborted = [e for e in plane.journal_entries()
                   if e.get("kind") == "migration_aborted"]
        assert len(aborted) == 1
        assert "pd-b no longer feasible" in aborted[0]["reason"]
        ticket = record.ticket
        states = [name for _, name in ticket.history]
        steps = list(zip(states, states[1:]))
        assert ("importing", "placing") in steps
        # Re-placed once bob's flight took off and freed the slot.
        assert ticket.state is MigrationState.COMPLETED
        assert ticket.target_drone == "pd-b"
        assert ticket.attempts == 2
        assert record.state == "completed"

    def test_no_target_fails_typed_and_releases_the_slot(self):
        sim = Simulator()
        plane = make_plane(sim, [spec("pd-a")],
                           migration_retry_limit=1,
                           migration_retry_backoff_s=1.0)
        record = submit(plane)
        sim.run()
        # A one-drone fleet can never re-place (the source is excluded).
        assert record.state == "failed"
        assert record.ticket.state is MigrationState.FAILED
        assert "no feasible" in record.ticket.failure.lower() \
            or "pd-a" not in (record.ticket.target_drone or "")
        order = plane.shards[0].portal.orders[record.order_id]
        assert order.state is OrderState.INTERRUPTED
        assert plane.shards[0].admission.pending == 0  # slot released
        # The tenant's exported state is retained for inspection.
        assert plane.shards[0].vdr.total_stored_bytes() > 0


class TestAdmissionIntegration:
    def test_full_fleet_is_a_typed_reject_through_admission(self):
        sim = Simulator()
        plane = make_plane(sim, [spec("pd-a", capacity=1)])
        submit(plane, user="alice", legs=1)
        with pytest.raises(NoFeasiblePlacementError):
            submit(plane, user="bob", legs=1)
        rejected = plane.records["bob-order2"]
        assert rejected.state == "rejected"
        # The reject cancelled bob's order, releasing his admission slot.
        assert plane.shards[0].admission.pending == 1
        orders = plane.shards[0].portal.orders
        assert orders[rejected.order_id].state is OrderState.CANCELLED
        sim.run()
        # Capacity freed: the same user can order again and complete.
        retried = submit(plane, user="bob", legs=1)
        sim.run()
        assert retried.state == "completed"
        assert plane.shards[0].admission.pending == 0

    def test_admission_backpressure_is_typed_and_transient(self):
        sim = Simulator()
        plane = make_plane(sim, [spec("pd-a", capacity=4)], max_pending=1)
        submit(plane, user="alice", legs=1)
        with pytest.raises(PortalBusyError) as excinfo:
            submit(plane, user="bob", legs=1)
        assert excinfo.value.retry_after_s > 0
        sim.run()  # alice's flight completes, releasing the slot
        record = submit(plane, user="bob", legs=1)
        sim.run()
        assert record.state == "completed"
