"""A drone's kept next-flight headroom, and what a rejected order costs."""

import random

import pytest

from repro.cloud.controlplane import (
    BinPackingPlacer,
    DroneState,
    FleetDirectory,
    NoFeasiblePlacementError,
    PlacedTenant,
    PlacementRequest,
)
from repro.loadgen.city import CityScenario, make_city_specs


def placed(name, energy_j, duration_s):
    return PlacedTenant(tenant=name, energy_j=energy_j,
                        duration_s=duration_s, east_m=0.0, north_m=0.0,
                        whitelist_class="standard")


def assert_headroom_exact(drone):
    spec = drone.spec
    assert drone.energy_headroom_j == spec.energy_budget_j - sum(
        p.energy_j for p in drone.pending.values())
    assert drone.time_headroom_s == spec.time_budget_s - sum(
        p.duration_s for p in drone.pending.values())


@pytest.mark.parametrize("seed", range(5))
def test_kept_headroom_equals_the_resummed_queue_after_every_step(seed):
    """Random enqueue / withdraw / fly sequences with allotments that do
    not add up exactly in binary: the kept headroom is bit-equal to the
    budget minus the re-summed queue after every step."""
    rng = random.Random(seed)
    spec = make_city_specs(CityScenario(seed=42))[0]
    drone = FleetDirectory([spec]).get(spec.drone_id)
    assert_headroom_exact(drone)
    names = (f"vd{i}" for i in range(10_000))
    for _ in range(400):
        step = rng.random()
        if drone.in_flight and step < 0.2:
            drone.complete_flight()
        elif not drone.in_flight and drone.pending and step < 0.3:
            drone.begin_flight()
        elif drone.pending and step < 0.55:
            drone.withdraw(rng.choice(list(drone.pending)))
        elif drone.slots_free:
            drone.enqueue(placed(next(names),
                                 rng.uniform(0.1, 1e3) / 3.0,
                                 rng.uniform(0.1, 60.0) / 7.0))
        assert_headroom_exact(drone)


def test_a_rejected_placement_never_resums_a_queue(monkeypatch):
    """Every drone of a 12-drone city fleet has a free slot but too
    little energy or time left: the reject reads only kept headroom."""
    fleet = FleetDirectory(make_city_specs(CityScenario(seed=42)))
    drones = fleet.states()
    assert len(drones) == 12
    spec = drones[0].spec
    for index, drone in enumerate(drones):
        tight_energy = index % 2 == 0
        drone.enqueue(placed(
            f"hog{index}",
            spec.energy_budget_j * (0.9 if tight_energy else 0.1),
            spec.time_budget_s * (0.1 if tight_energy else 0.9)))
        assert drone.slots_free >= 1
    reads = []
    for name in ("committed_energy_j", "committed_time_s"):
        original = getattr(DroneState, name)

        def counted(drone, name=name, original=original):
            reads.append(name)
            return original.fget(drone)

        monkeypatch.setattr(DroneState, name, property(counted))
    request = PlacementRequest(
        tenant="late", east_m=0.0, north_m=0.0,
        energy_j=spec.energy_budget_j * 0.5,
        duration_s=spec.time_budget_s * 0.5,
        whitelist_class="guided-only")
    with pytest.raises(NoFeasiblePlacementError):
        BinPackingPlacer().place(request, drones)
    assert reads == []
