"""The incremental city monitor against the full sweep, tick by tick.

:class:`FullSweep` keeps the per-record rules as they were before they
went incremental: every record is re-checked on every sweep.
:class:`CheckedMonitor` runs it beside the incremental sweep in the same
sim event, so both read the same state, and fails on the first tick
whose violations differ.

The planted corruptions break promises in the ways an incremental sweep
could miss: writes to terminal records long after they were checked
clean, drone queues changed behind the records' back, and ring
membership changes.  Each plant is undone a few sweeps later so the
city still finishes.
"""

from itertools import count
from typing import Callable, Dict, List, Optional

import pytest

from repro.cloud.controlplane import TENANT_STATES
from repro.loadgen import CityHarness, CityScenario
from repro.loadgen.city import CityInvariantMonitor

SUBSEED_STRIDE = 1000003
#: the cities ``test_recorded_city_results.py`` pins.
FIXTURE_SEEDS = (42, 42 + SUBSEED_STRIDE, 1234, 1234 + SUBSEED_STRIDE)
#: both perfbench seed families: the default and held-out seeds, each
#: with its ten sub-seeds.
SOAK_SEEDS = tuple(base + k * SUBSEED_STRIDE
                   for base in (42, 1234) for k in range(10))

#: plants land between sweeps (those run at even sim seconds) ...
PLANT_AT_S = 100.5
#: ... and are undone two sweeps later, before any drone could launch
#: a corrupted queue (launches wait a 5 s dispatch delay).
UNDO_AFTER_S = 4.0


class FullSweep(CityInvariantMonitor):
    """Every rule over every record, every sweep: the monitor's sweep
    before it went incremental."""

    def sweep(self) -> None:
        self._check_capacity()
        self._full_placement()
        self._check_admission()
        self._full_routing()

    def _full_placement(self) -> None:
        hosts: Dict[str, List[str]] = {}
        for drone in self.plane.fleet.states():
            for tenant in list(drone.pending) + list(drone.flying):
                hosts.setdefault(tenant, []).append(drone.spec.drone_id)
        for tenant, drone_ids in hosts.items():
            if len(drone_ids) > 1:
                self._flag(tenant, "single-placement",
                           f"hosted by {sorted(drone_ids)} simultaneously")
        for tenant, record in self.plane.records.items():
            if record.state not in TENANT_STATES:
                self._flag(tenant, "conservation",
                           f"unknown state {record.state!r}")
            hosted = tenant in hosts
            if record.state in ("queued", "flying") and not hosted:
                self._flag(tenant, "conservation",
                           f"state {record.state!r} but hosted by no drone")
            if record.state in ("completed", "failed", "rejected") and hosted:
                self._flag(tenant, "conservation",
                           f"state {record.state!r} but still hosted by "
                           f"{hosts[tenant]}")

    def _full_routing(self) -> None:
        for record in self.plane.records.values():
            owner = self.plane.router.route(record.user)
            if owner != record.shard_id:
                self._flag(record.tenant, "routing",
                           f"user {record.user!r} admitted on "
                           f"{record.shard_id} but routes to {owner}")


class CheckedMonitor(CityInvariantMonitor):
    """The incremental monitor, with the full sweep run in each tick."""

    def __init__(self, sim, plane, max_pending):
        super().__init__(sim, plane, max_pending)
        self.oracle = FullSweep(sim, plane, max_pending)
        self.compared = 0

    def _sweep(self) -> None:
        start = len(self.violations)
        self.oracle.sweep()
        super()._sweep()
        assert self.violations[start:] == self.oracle.violations[start:], \
            f"sweep {self.checks} at t={self.sim.now} differs"
        self.compared += 1


Plant = Callable[[CityHarness], Optional[Callable[[], None]]]


def checked_run(seed: int, plant: Optional[Plant] = None):
    """Run the default city at ``seed`` under :class:`CheckedMonitor`.

    ``plant`` corrupts the plane at :data:`PLANT_AT_S` and returns its
    undo; it returns None when the city has no target for it yet, and is
    tried again a second later.
    """
    harness = CityHarness(CityScenario(seed=seed))
    monitor = harness.monitor = CheckedMonitor(
        harness.sim, harness.plane, harness.scenario.max_pending)

    def attempt() -> None:
        undo = plant(harness)
        if undo is None:
            harness.sim.after(1_000_000, attempt)
            return
        harness.sim.after(int(UNDO_AFTER_S * 1e6), undo)

    if plant is not None:
        harness.sim.after(int(PLANT_AT_S * 1e6), attempt)
    result = harness.run()
    assert monitor.compared == result.invariant_checks > 0
    return result


# -- planted corruptions ---------------------------------------------------------
def settled_record(harness: CityHarness, state: str):
    """A record that reached ``state`` at least five sweeps ago."""
    horizon = harness.sim.now - 10_000_000
    return next(r for r in harness.plane.records.values()
                if r.state == state
                and (r.completed_t_us or r.submitted_t_us) < horizon)


def airborne_drone(harness: CityHarness, ok: Callable):
    """An in-flight drone satisfying ``ok``: its next launch is at least
    one dispatch delay away."""
    return next((d for d in harness.plane.fleet.states()
                 if d.in_flight and ok(d)), None)


def overwrite_state(old: str, new: str) -> Plant:
    def plant(harness):
        record = settled_record(harness, old)
        record.state = new
        return lambda: setattr(record, "state", old)
    return plant


def rewrite_user(harness):
    record = settled_record(harness, "rejected")
    router = harness.plane.router
    original = record.user
    record.user = next(
        user for user in (f"{original}-moved{i}" for i in count())
        if router.route(user) != record.shard_id)
    return lambda: setattr(record, "user", original)


def enqueue_completed(harness):
    drone = airborne_drone(harness, lambda d: d.slots_free)
    if drone is None:
        return None
    record = settled_record(harness, "completed")
    drone.enqueue(record.request.as_placed())
    return lambda: drone.withdraw(record.tenant)


def pop_pending(harness):
    drone = airborne_drone(harness, lambda d: d.pending)
    if drone is None:
        return None
    tenant = next(iter(drone.pending))
    placed = drone.pending.pop(tenant)
    return lambda: drone.pending.__setitem__(tenant, placed)


def readd_shard(harness):
    router = harness.plane.router
    router.remove_shard("shard-1")
    router.add_shard("shard-1")
    return lambda: None


def drop_shard(harness):
    router = harness.plane.router
    router.remove_shard("shard-1")
    return lambda: router.add_shard("shard-1")


#: name -> (plant, a rule it must make the monitor flag, or None for a
#: plant that breaks no promise).  Knock-on flags may come too: a tenant
#: added to a queue can push it past its budgets.
PLANTS = {
    "rejected-to-queued": (overwrite_state("rejected", "queued"),
                           "conservation"),
    "completed-to-queued": (overwrite_state("completed", "queued"),
                            "conservation"),
    "completed-to-lost": (overwrite_state("completed", "lost"),
                          "conservation"),
    "rejected-user-rewritten": (rewrite_user, "routing"),
    "completed-enqueued": (enqueue_completed, "conservation"),
    "pending-popped": (pop_pending, "conservation"),
    "shard-removed-and-readded": (readd_shard, None),
    "shard-removed-for-two-sweeps": (drop_shard, "routing"),
}


def check_plant(seed: int, name: str) -> None:
    plant, rule = PLANTS[name]
    result = checked_run(seed, plant)
    rules = {v.rule for v in result.violations}
    assert rule in rules if rule else not rules
    assert all(v.t_us > PLANT_AT_S * 1e6 for v in result.violations)


# -- tier 1 ------------------------------------------------------------------------
@pytest.mark.parametrize("seed", FIXTURE_SEEDS)
def test_incremental_sweep_matches_full_sweep(seed):
    result = checked_run(seed)
    assert result.violations == [] and not result.deadline_hit


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_incremental_sweep_matches_full_sweep_under_plants(name):
    check_plant(42, name)


def test_every_record_write_marks_its_tenant_changed():
    harness = CityHarness(CityScenario(seed=42))
    harness.run()
    plane = harness.plane
    record = next(iter(plane.records.values()))
    plane.changed.clear()
    record.migrations = record.migrations
    assert plane.changed == {record.tenant}


# -- soak: both seed families ------------------------------------------------------
@pytest.mark.soak
@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_soak_incremental_sweep_matches_full_sweep(seed):
    result = checked_run(seed)
    assert not result.deadline_hit


@pytest.mark.soak
@pytest.mark.parametrize("name", sorted(PLANTS))
@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_soak_incremental_sweep_matches_full_sweep_under_plants(seed, name):
    check_plant(seed, name)
