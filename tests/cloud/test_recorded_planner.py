"""Recorded outputs of the flight planner.

These digests were recorded from the planner as it was while every
battery split re-walked each growing prefix of the tour through the
energy model.  They pin that the planner still returns exactly the same
flights: same stops in the same order, and bit-identical distance,
duration and energy for every route, or the same exception.

Two grids are pinned:

* ``solve_vrp`` over seeded stop sets of 1, 2, 3, 5, 9 and 15 stops, a
  full battery, 120 kJ and 60 kJ, and fleets of 1 to 3 drones.  The
  small budgets force multi-flight splits and stops that no flight can
  serve.
* ``FlightPlanner.plan`` for every drone of the ``fleet-mission``
  scenario (3 drones x 3 tenants) at seeds 42 and 7.

Each digest is the SHA-256 of :func:`outcome_repr`.
"""

import hashlib
import random

import pytest

from repro.cloud.planner import DroneEnergyModel, Stop, solve_vrp
from repro.cloud.planner.vrp import InfeasibleStopError
from repro.flight.geo import offset_geopoint
from tests.util import HOME

MODEL = DroneEnergyModel()
STOP_COUNTS = (1, 2, 3, 5, 9, 15)
BATTERIES = (("full", MODEL.battery_capacity_j), ("120kJ", 120_000.0),
             ("60kJ", 60_000.0))
FLEET_SIZES = (1, 2, 3)
ITERATIONS = 600

#: "<solver>/<stop count>" -> SHA-256 of the outcomes of every battery
#: and fleet size, in grid order.
SOLVER_DIGESTS = {
    "free/1":
        "8f3d6404e194fd28d81cf7779dcfab93ca90760bd4ecce476a692f48249f2cc9",
    "free/2":
        "eb360ab7fe87d0c011421095173afcdc05803bb577eba099151fbc4da3cd4de4",
    "free/3":
        "1d2badb2e12b24cf5173db01cb5d91efd2369ce73a86b17fc87d1a6322a20a22",
    "free/5":
        "79accc2100414e199594b4afa6c6ce956603cd2ca7a7b9d23cc93b0c71644ffc",
    "free/9":
        "939f42d76e6e8dd3cf1c53d2d83c77dd11fba318c3d6f1c110765745702e512b",
    "free/15":
        "301e67ca00c4fa4b7fa98a76632cd187102ad279b4fb2d9618d5606e24f43bf4",
}

#: "<seed>" -> SHA-256 of every fleet-mission drone's flight plans.
FLEET_PLAN_DIGESTS = {
    "42":
        "abea0932b3b97ad5bf53a4a004d83f2f04afcdb1877caa4799476a376340c21d",
    "7":
        "abea0932b3b97ad5bf53a4a004d83f2f04afcdb1877caa4799476a376340c21d",
}


def grid_stops(n):
    """``n`` seeded stops of tenants ``t0``, ``t1``, ... (three each)."""
    rng = random.Random(1_000 + n)
    stops = []
    for k in range(n):
        point = offset_geopoint(HOME, east=rng.uniform(-900, 900),
                                north=rng.uniform(-900, 900), up=15.0)
        stops.append(Stop(f"t{k // 3}#{k % 3}", point,
                          service_energy_j=rng.uniform(3_000.0, 45_000.0),
                          service_time_s=rng.uniform(10.0, 60.0)))
    return stops


def solve(stops, battery_j, fleet_size, seed):
    return solve_vrp(HOME, stops, MODEL, battery_j, fleet_size=fleet_size,
                     rng=random.Random(seed), iterations=ITERATIONS)


def outcome_repr(n):
    """Every battery and fleet size of one grid row: each route's stop
    ids, distance, duration and energy, or the exception's type."""
    stops = grid_stops(n)
    outcomes = []
    for label, battery_j in BATTERIES:
        for fleet_size in FLEET_SIZES:
            seed = n * 100 + fleet_size
            try:
                routes = solve(stops, battery_j, fleet_size, seed)
            except InfeasibleStopError as exc:
                outcomes.append((label, fleet_size, type(exc).__name__))
                continue
            outcomes.append((label, fleet_size, [
                (r.stop_ids(), r.distance_m, r.duration_s, r.energy_j)
                for r in routes]))
    return repr(outcomes)


def fleet_plans_repr(seed):
    """``FlightPlanner.plan`` for each drone of the fleet-mission
    scenario, as the harness builds it."""
    from repro.loadgen import FleetHarness, FleetScenario

    harness = FleetHarness(FleetScenario(
        seed=seed, drones=3, tenants_per_drone=3, chaos_level=0,
        security_enabled=True))
    return repr([slot.plans for slot in harness.slots])


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ``solve_vrp`` is the only solver; its digests keep the "free" label
# they were recorded under beside the constrained solver's.
@pytest.mark.parametrize("solver", ["free"])
@pytest.mark.parametrize("n", STOP_COUNTS)
def test_solver_matches_recorded_digest(solver, n):
    assert sha256(outcome_repr(n)) == SOLVER_DIGESTS[f"{solver}/{n}"]


@pytest.mark.parametrize("seed", [42, 7])
def test_fleet_mission_plans_match_recorded_digest(seed):
    assert sha256(fleet_plans_repr(seed)) == FLEET_PLAN_DIGESTS[str(seed)]


def test_grid_covers_splits_and_infeasible_stops():
    """The pinned grid exercises the interesting outcomes, so a digest
    match means something: multi-flight splits, overflowing fleets and
    stops no flight can serve."""
    stops = grid_stops(15)
    with pytest.raises(InfeasibleStopError):
        solve(stops, 60_000.0, 1, 0)
    routes = solve(stops, MODEL.battery_capacity_j, 1, 0)
    assert len(routes) > 1
