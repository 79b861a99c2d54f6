"""The city invariant monitor catches each broken promise on its next sweep.

Each test admits a handful of orders on a live control plane, lets one
clean sweep pass, breaks exactly one promise by hand and runs the clock
to the next sweep.  The broken rule must be flagged, and only that rule:
a monitor that never fires would pass every seeded city run too.
"""

import pytest

from repro.cloud.controlplane import CityControlPlane, PlacedTenant
from repro.flight.geo import offset_geopoint
from repro.loadgen.city import (
    CITY_ALTITUDE_M,
    CITY_HOME,
    CityInvariantMonitor,
    CityScenario,
    make_city_specs,
)
from repro.sim import Simulator

SCENARIO = CityScenario(seed=42, shards=2, drones=4, capacity=3,
                        max_pending=12)
ORDERS = 6


class LivePlane:
    """A plane with ``ORDERS`` tenants queued and a monitor sweeping it.

    The sweeps run every 2 sim-s from t=0; flights launch only after the
    5 s dispatch delay, so every tenant is still queued at t=2 s.
    """

    def __init__(self):
        self.sim = Simulator()
        self.plane = CityControlPlane(
            self.sim, make_city_specs(SCENARIO), shard_count=SCENARIO.shards,
            max_pending=SCENARIO.max_pending)
        self.records = [self._submit(i) for i in range(ORDERS)]
        self.monitor = CityInvariantMonitor(
            self.sim, self.plane, SCENARIO.max_pending).start()
        self.sim.run_for(1_000_000)
        assert self.monitor.checks == 1 and not self.monitor.violations

    def _submit(self, index):
        east = 500.0 + 400.0 * index
        north = 3500.0 - 400.0 * index
        point = offset_geopoint(CITY_HOME, east, north, CITY_ALTITUDE_M)
        return self.plane.submit_order(
            f"user{index:04d}",
            [{"latitude": point.latitude, "longitude": point.longitude,
              "altitude": point.altitude_m}],
            east, north, max_charge=4.0, max_duration_s=60.0)

    def next_sweep(self):
        """Advance to the next sweep; return the rules it flagged."""
        self.sim.run_for(2_000_000)
        assert self.monitor.checks == 2
        return {violation.rule for violation in self.monitor.violations}


@pytest.fixture
def live():
    return LivePlane()


def test_untouched_plane_stays_clean(live):
    assert live.next_sweep() == set()


def test_routing_flags_records_whose_shard_left_the_ring(live):
    gone = live.records[0].shard_id
    live.plane.router.remove_shard(gone)
    assert live.next_sweep() == {"routing"}
    flagged = {v.subject for v in live.monitor.violations}
    assert flagged == {r.tenant for r in live.records if r.shard_id == gone}


def test_conservation_flags_a_hosted_completed_tenant(live):
    live.records[0].state = "completed"
    assert live.next_sweep() == {"conservation"}
    assert [v.subject for v in live.monitor.violations] \
        == [live.records[0].tenant]


def test_conservation_flags_an_unknown_state(live):
    live.records[0].state = "lost"
    assert live.next_sweep() == {"conservation"}
    assert "unknown state 'lost'" in live.monitor.violations[0].detail


def test_single_placement_flags_a_tenant_on_two_drones(live):
    record = live.records[0]
    other = next(d for d in live.plane.fleet.states()
                 if d.spec.drone_id != record.drone_id and d.slots_free)
    other.enqueue(record.request.as_placed())
    assert live.next_sweep() == {"single-placement"}


def test_capacity_flags_an_over_queued_drone(live):
    drone = live.plane.fleet.get(live.records[0].drone_id)
    for extra in range(drone.spec.capacity + 1):
        drone.pending[f"extra-{extra}"] = PlacedTenant(
            tenant=f"extra-{extra}", energy_j=1.0, duration_s=1.0,
            east_m=0.0, north_m=0.0, whitelist_class="standard")
    assert live.next_sweep() == {"capacity"}


def test_capacity_flags_headroom_the_drone_no_longer_keeps(live):
    """A tenant written straight into a queue, past the drone's
    mutators, breaks no budget; the headroom the placer reads is stale."""
    drone = next(d for d in live.plane.fleet.states() if d.slots_free)
    drone.pending["extra"] = PlacedTenant(
        tenant="extra", energy_j=1.0, duration_s=1.0,
        east_m=0.0, north_m=0.0, whitelist_class="standard")
    assert drone.committed_energy_j <= drone.spec.energy_budget_j
    assert drone.committed_time_s <= drone.spec.time_budget_s
    assert live.next_sweep() == {"capacity"}
    assert [v.subject for v in live.monitor.violations] \
        == [drone.spec.drone_id]
    assert "kept headroom" in live.monitor.violations[0].detail


def test_admission_flags_a_pending_count_out_of_range(live):
    live.plane.shards[0].admission.pending = SCENARIO.max_pending + 1
    assert live.next_sweep() == {"admission"}
