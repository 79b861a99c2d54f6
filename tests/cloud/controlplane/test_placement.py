"""Placement policies: feasibility, scoring, and typed rejects."""

import pytest

from repro.cloud.controlplane import (
    BinPackingPlacer,
    ControlPlaneConfigError,
    DroneSpec,
    DroneStateError,
    FirstFitPlacer,
    FleetDirectory,
    NoFeasiblePlacementError,
    PlacementRequest,
    feasible,
    make_placer,
)


def spec(drone_id="pd-0", east=0.0, north=0.0, capacity=2,
         energy=10_000.0, time_s=200.0, whitelist="standard"):
    return DroneSpec(drone_id=drone_id, east_m=east, north_m=north,
                     capacity=capacity, energy_budget_j=energy,
                     time_budget_s=time_s, whitelist_class=whitelist)


def request(tenant="vd1", east=0.0, north=0.0, energy=1_000.0,
            duration=60.0, whitelist="standard"):
    return PlacementRequest(tenant=tenant, east_m=east, north_m=north,
                            energy_j=energy, duration_s=duration,
                            whitelist_class=whitelist)


class TestFeasibility:
    def test_budgets_and_slots(self):
        fleet = FleetDirectory([spec(capacity=1)])
        drone = fleet.get("pd-0")
        assert feasible(drone, request())
        assert not feasible(drone, request(energy=10_001.0))
        assert not feasible(drone, request(duration=201.0))
        drone.enqueue(request().as_placed())
        assert not feasible(drone, request(tenant="vd2"))  # no slot

    def test_whitelist_rank_ordering(self):
        guided = FleetDirectory([spec(whitelist="guided-only")]).get("pd-0")
        full = FleetDirectory([spec(whitelist="full")]).get("pd-0")
        assert feasible(guided, request(whitelist="guided-only"))
        assert not feasible(guided, request(whitelist="standard"))
        for klass in ("guided-only", "standard", "full"):
            assert feasible(full, request(whitelist=klass))

    def test_unavailable_drone_is_infeasible(self):
        drone = FleetDirectory([spec()]).get("pd-0")
        drone.available = False
        assert not feasible(drone, request())

    def test_unknown_whitelist_class_is_typed(self):
        with pytest.raises(ControlPlaneConfigError):
            feasible(FleetDirectory([spec()]).get("pd-0"),
                     request(whitelist="root"))


class TestBinPacking:
    def test_prefers_tight_fit(self):
        # Same location; pd-small leaves less leftover budget.
        fleet = FleetDirectory([
            spec("pd-big", energy=30_000.0, time_s=600.0),
            spec("pd-small", energy=4_000.0, time_s=100.0),
        ])
        decision = BinPackingPlacer().place(
            request(energy=3_000.0, duration=80.0), fleet.states())
        assert decision.drone_id == "pd-small"
        assert decision.feasible == 2 and decision.considered == 2

    def test_prefers_nearby_pad(self):
        fleet = FleetDirectory([
            spec("pd-far", east=3_000.0),
            spec("pd-near", east=100.0),
        ])
        decision = BinPackingPlacer().place(request(east=0.0), fleet.states())
        assert decision.drone_id == "pd-near"
        assert decision.distance_m == pytest.approx(100.0)

    def test_keeps_capable_drones_for_capable_tenants(self):
        fleet = FleetDirectory([
            spec("pd-full", whitelist="full"),
            spec("pd-std", whitelist="standard"),
        ])
        decision = BinPackingPlacer().place(
            request(whitelist="standard"), fleet.states())
        assert decision.drone_id == "pd-std"

    def test_tie_breaks_on_drone_id(self):
        fleet = FleetDirectory([spec("pd-b"), spec("pd-a")])
        decision = BinPackingPlacer().place(request(), fleet.states())
        assert decision.drone_id == "pd-a"

    def test_full_fleet_raises_typed_reject(self):
        fleet = FleetDirectory([spec(capacity=1)])
        fleet.get("pd-0").enqueue(request().as_placed())
        with pytest.raises(NoFeasiblePlacementError) as excinfo:
            BinPackingPlacer().place(request(tenant="vd2"), fleet.states())
        assert "vd2" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)


class TestFirstFit:
    def test_takes_first_feasible_in_id_order(self):
        fleet = FleetDirectory([
            spec("pd-1", east=10.0), spec("pd-0", east=9_000.0)])
        decision = FirstFitPlacer().place(request(), fleet.states())
        assert decision.drone_id == "pd-0"

    def test_registry_round_trip(self):
        assert isinstance(make_placer("binpack"), BinPackingPlacer)
        assert isinstance(make_placer("firstfit"), FirstFitPlacer)
        with pytest.raises(ControlPlaneConfigError):
            make_placer("oracle")


class TestDroneStateGuards:
    def test_enqueue_guards(self):
        drone = FleetDirectory([spec(capacity=1)]).get("pd-0")
        drone.enqueue(request().as_placed())
        with pytest.raises(DroneStateError):
            drone.enqueue(request().as_placed())  # duplicate tenant
        with pytest.raises(DroneStateError):
            drone.enqueue(request(tenant="vd2").as_placed())  # no slot

    def test_flight_transitions(self):
        drone = FleetDirectory([spec()]).get("pd-0")
        with pytest.raises(DroneStateError):
            drone.begin_flight()  # nothing queued
        drone.enqueue(request().as_placed())
        drone.begin_flight()
        with pytest.raises(DroneStateError):
            drone.begin_flight()  # already airborne
        served = drone.complete_flight()
        assert [p.tenant for p in served] == ["vd1"]
        with pytest.raises(DroneStateError):
            drone.complete_flight()
