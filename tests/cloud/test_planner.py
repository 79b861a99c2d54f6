"""Tests for the energy model, VRP solver, and flight planner."""

import random

import pytest

from repro.cloud.planner import (
    DroneEnergyModel,
    FlightPlanner,
    Stop,
    nearest_neighbor_routes,
    solve_vrp,
)
from repro.cloud.planner.vrp import InfeasibleStopError, split_into_routes
from repro.flight.geo import GeoPoint, offset_geopoint
from tests.util import HOME, simple_definition


MODEL = DroneEnergyModel()


class TestEnergyModel:
    def test_hover_power_realistic_for_f450(self):
        # A 1.5 kg quad draws roughly 150-300 W hovering.
        power = MODEL.hover_power_w()
        assert 120 < power < 350

    def test_power_grows_superlinearly_with_payload(self):
        """Dorling: P ~ mass^1.5."""
        p0 = MODEL.hover_power_w(0.0)
        p1 = MODEL.hover_power_w(1.5)   # doubled all-up mass
        assert p1 / p0 > 2.0            # superlinear
        assert p1 / p0 < 3.5

    def test_energy_per_meter_bathtub(self):
        def cost(speed):
            return MODEL.cruise_power_w(speed) / speed

        best_speed = MODEL.best_range_speed_ms()
        assert cost(best_speed) < cost(1.0)      # crawling wastes hover energy
        assert cost(best_speed) < cost(19.0)     # speeding wastes drag energy

    def test_best_range_speed_reasonable(self):
        assert 4.0 < MODEL.best_range_speed_ms() < 18.0

    def test_leg_energy_scales_with_distance(self):
        e1 = MODEL.leg_energy_j(100.0, 8.0)
        e2 = MODEL.leg_energy_j(200.0, 8.0)
        assert e2 == pytest.approx(2 * e1)

    def test_endurance_matches_20min_class(self):
        # Prototype battery: the paper cites ~20 minute consumer flights.
        endurance_min = MODEL.endurance_s() / 60.0
        assert 8 < endurance_min < 30

    def test_input_validation(self):
        with pytest.raises(ValueError):
            MODEL.leg_energy_j(-1, 8.0)
        with pytest.raises(ValueError):
            MODEL.leg_energy_j(10, 0.0)
        with pytest.raises(ValueError):
            MODEL.cruise_power_w(-1)


def stops_grid(n, spacing_m=150.0, service_j=2_000.0):
    stops = []
    for i in range(n):
        point = offset_geopoint(HOME, east=spacing_m * (i % 3 + 1),
                                north=spacing_m * (i // 3 + 1), up=15.0)
        stops.append(Stop(f"s{i}", point, service_energy_j=service_j,
                          service_time_s=30.0))
    return stops


class TestVrp:
    def test_all_stops_visited_exactly_once(self):
        stops = stops_grid(7)
        routes = solve_vrp(HOME, stops, MODEL, battery_j=MODEL.battery_capacity_j,
                           rng=random.Random(1), iterations=800)
        visited = [sid for r in routes for sid in r.stop_ids()]
        assert sorted(visited) == sorted(s.stop_id for s in stops)

    def test_routes_respect_battery(self):
        stops = stops_grid(9, service_j=25_000.0)
        battery = 90_000.0
        routes = solve_vrp(HOME, stops, MODEL, battery_j=battery,
                           rng=random.Random(1), iterations=500)
        assert len(routes) > 1
        assert all(r.energy_j <= battery for r in routes)

    def test_infeasible_stop_raises(self):
        stop = Stop("greedy", offset_geopoint(HOME, east=100, north=0, up=15),
                    service_energy_j=1e9)
        with pytest.raises(InfeasibleStopError):
            split_into_routes(HOME, [stop], MODEL, battery_j=1e5, cruise_ms=8.0)

    def test_sa_not_worse_than_nearest_neighbor(self):
        stops = stops_grid(9)
        battery = MODEL.battery_capacity_j
        nn = nearest_neighbor_routes(HOME, stops, MODEL, battery)
        sa = solve_vrp(HOME, stops, MODEL, battery_j=battery,
                       rng=random.Random(3), iterations=2500)
        nn_time = sum(r.duration_s for r in nn)
        sa_time = sum(r.duration_s for r in sa)
        assert sa_time <= nn_time * 1.001

    def test_deterministic_given_rng(self):
        stops = stops_grid(6)
        r1 = solve_vrp(HOME, stops, MODEL, MODEL.battery_capacity_j,
                       rng=random.Random(7), iterations=400)
        r2 = solve_vrp(HOME, stops, MODEL, MODEL.battery_capacity_j,
                       rng=random.Random(7), iterations=400)
        assert [r.stop_ids() for r in r1] == [r.stop_ids() for r in r2]

    def test_empty_input(self):
        assert solve_vrp(HOME, [], MODEL, 1e5) == []


class TestSolveWork:
    """One solve computes each leg once, not once per annealing move."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"cruise_power_w": 0, "distance_to": 0}
        real_power = DroneEnergyModel.cruise_power_w
        real_distance = GeoPoint.distance_to

        def counting_power(model, speed_ms, payload_kg=0.0):
            calls["cruise_power_w"] += 1
            return real_power(model, speed_ms, payload_kg)

        def counting_distance(point, other):
            calls["distance_to"] += 1
            return real_distance(point, other)

        monkeypatch.setattr(DroneEnergyModel, "cruise_power_w", counting_power)
        monkeypatch.setattr(GeoPoint, "distance_to", counting_distance)
        return calls

    def test_power_once_and_each_leg_measured_once(self, calls):
        n = 9
        stops = stops_grid(n, service_j=25_000.0)
        routes = solve_vrp(HOME, stops, MODEL, battery_j=90_000.0,
                           rng=random.Random(1), iterations=500)
        assert len(routes) > 1
        assert calls["cruise_power_w"] == 1
        # Every ordered leg between the depot and the stops, plus the
        # nearest-neighbour seed tour's own scan.
        assert calls["distance_to"] <= (n + 1) ** 2 + n * (n + 1) // 2


class TestFlightPlanner:
    def test_plan_covers_all_tenants_waypoints(self):
        d1 = simple_definition("vd1", n_waypoints=2)
        d2 = simple_definition("vd2", n_waypoints=1, east_offset=-60.0)
        planner = FlightPlanner(HOME, MODEL, rng=random.Random(2))
        plans = planner.plan([d1, d2])
        stops = [(s.tenant, s.waypoint_index) for p in plans for s in p.stops]
        assert sorted(stops) == [("vd1", 0), ("vd1", 1), ("vd2", 0)]

    def test_service_energy_split_across_waypoints(self):
        d = simple_definition("vd1", n_waypoints=2, energy_j=40_000.0)
        planner = FlightPlanner(HOME, MODEL, rng=random.Random(2))
        plan = planner.plan([d])[0]
        assert all(s.est_energy_j == pytest.approx(20_000.0) for s in plan.stops)

    def test_arrival_times_monotonic(self):
        d1 = simple_definition("vd1", n_waypoints=3)
        planner = FlightPlanner(HOME, MODEL, rng=random.Random(2))
        plan = planner.plan([d1])[0]
        arrivals = [s.est_arrival_s for s in plan.stops]
        assert arrivals == sorted(arrivals)
        assert plan.total_duration_s >= arrivals[-1]

    def test_operating_window(self):
        d1 = simple_definition("vd1", n_waypoints=2)
        planner = FlightPlanner(HOME, MODEL, rng=random.Random(2))
        plan = planner.plan([d1])[0]
        start, end = plan.operating_window("vd1")
        assert 0 < start < end

    def test_operating_window_unknown_tenant(self):
        planner = FlightPlanner(HOME, MODEL, rng=random.Random(2))
        plan = planner.plan([simple_definition("vd1")])[0]
        with pytest.raises(KeyError):
            plan.operating_window("ghost")

    def test_large_allotments_split_into_multiple_flights(self):
        defs = [simple_definition(f"vd{i}", energy_j=200_000.0,
                                  east_offset=40.0 * (i + 1))
                for i in range(4)]
        planner = FlightPlanner(HOME, MODEL, rng=random.Random(2))
        plans = planner.plan(defs, battery_j=300_000.0)
        assert len(plans) >= 2
