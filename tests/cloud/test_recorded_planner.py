"""Recorded outputs of the flight planner.

These digests were recorded from the planner as it was while every
battery split re-walked each growing prefix of the tour through the
energy model, and while the constrained solver carried its own copy of
the annealing loop.  They pin that the planner still returns exactly the
same flights: same stops in the same order, and bit-identical distance,
duration and energy for every route, or the same exception.

Two grids are pinned:

* ``solve_vrp`` and ``solve_vrp_constrained`` (ordered, grouped, both)
  over seeded stop sets of 1, 2, 3, 5, 9 and 15 stops, a full battery,
  120 kJ and 60 kJ, and fleets of 1 to 3 drones.  The small budgets
  force multi-flight splits and stops that no flight can serve.
* ``FlightPlanner.plan`` for every drone of the ``fleet-mission``
  scenario (3 drones x 3 tenants) at seeds 42 and 7.

Each digest is the SHA-256 of :func:`outcome_repr`.
"""

import hashlib
import random

import pytest

from repro.cloud.planner import (
    DroneEnergyModel,
    OrderingConstraints,
    Stop,
    solve_vrp,
    solve_vrp_constrained,
)
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
    "ordered/1":
        "8f3d6404e194fd28d81cf7779dcfab93ca90760bd4ecce476a692f48249f2cc9",
    "ordered/2":
        "a942f28e7e1170ef448be83f51e2a6a1d90931c0d7ee591ebdb3e09ca3d7c1ba",
    "ordered/3":
        "e02ddbe335b2a50b1a023ddf4915a27b8077c27047a9735aa053bba28239d390",
    "ordered/5":
        "0bf1d224fb2dc5a63ca997d6bf0072e921a0f1812c67d5478238c1df9a02a537",
    "ordered/9":
        "ac7fc14a9640516a3d4ce63351c090926dd81feb1ab196fe47ae3270f2bef3bd",
    "ordered/15":
        "56948ef05d95d84bd8492ae10565a548bd7d9cdfe3b952499c4083d9524ad68e",
    "grouped/1":
        "8f3d6404e194fd28d81cf7779dcfab93ca90760bd4ecce476a692f48249f2cc9",
    "grouped/2":
        "eb360ab7fe87d0c011421095173afcdc05803bb577eba099151fbc4da3cd4de4",
    "grouped/3":
        "1d2badb2e12b24cf5173db01cb5d91efd2369ce73a86b17fc87d1a6322a20a22",
    "grouped/5":
        "a27d6f665deec354a9c4ae903e69e8fd4b91ec5adef0bd4a83d813536ea05212",
    "grouped/9":
        "3f52923f98c8349f00c35c1d74aff41150e8f8eb484a5806be6e1ef7b3de008a",
    "grouped/15":
        "74c2eeee1d780731457ae35fe2d4636d1bd58b4e32078cb0061a84ba4a1d2202",
    "both/1":
        "8f3d6404e194fd28d81cf7779dcfab93ca90760bd4ecce476a692f48249f2cc9",
    "both/2":
        "a942f28e7e1170ef448be83f51e2a6a1d90931c0d7ee591ebdb3e09ca3d7c1ba",
    "both/3":
        "e02ddbe335b2a50b1a023ddf4915a27b8077c27047a9735aa053bba28239d390",
    "both/5":
        "3d7f6522cf535fdcf312a744db4a0b79b37a520409c6e0afd42d1066ec352e70",
    "both/9":
        "42221780d83cc2c910bbfa7195a3bdfead3dc2730bf5ed98ea11727cf2cc2e66",
    "both/15":
        "0ad004efdfaa4b476c6a07d7a3659c3d42a2fedaa1812f78a074986b3916abe6",
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


def tenants_of(stops):
    return sorted({s.stop_id.rpartition("#")[0] for s in stops})


def constraints_for(solver, stops):
    tenants = tenants_of(stops)
    return {
        "ordered": OrderingConstraints.of(ordered=tenants),
        "grouped": OrderingConstraints.of(grouped=tenants),
        "both": OrderingConstraints.of(ordered=tenants, grouped=tenants),
    }[solver]


def solve(solver, stops, battery_j, fleet_size, seed):
    rng = random.Random(seed)
    if solver == "free":
        return solve_vrp(HOME, stops, MODEL, battery_j,
                         fleet_size=fleet_size, rng=rng,
                         iterations=ITERATIONS)
    return solve_vrp_constrained(HOME, stops, MODEL, battery_j,
                                 constraints_for(solver, stops),
                                 fleet_size=fleet_size, rng=rng,
                                 iterations=ITERATIONS)


def outcome_repr(solver, n):
    """Every battery and fleet size of one grid row: each route's stop
    ids, distance, duration and energy, or the exception's type."""
    stops = grid_stops(n)
    outcomes = []
    for label, battery_j in BATTERIES:
        for fleet_size in FLEET_SIZES:
            seed = n * 100 + fleet_size
            try:
                routes = solve(solver, stops, battery_j, fleet_size, seed)
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


@pytest.mark.parametrize("solver", ["free", "ordered", "grouped", "both"])
@pytest.mark.parametrize("n", STOP_COUNTS)
def test_solver_matches_recorded_digest(solver, n):
    assert sha256(outcome_repr(solver, n)) == SOLVER_DIGESTS[f"{solver}/{n}"]


@pytest.mark.parametrize("seed", [42, 7])
def test_fleet_mission_plans_match_recorded_digest(seed):
    assert sha256(fleet_plans_repr(seed)) == FLEET_PLAN_DIGESTS[str(seed)]


def test_grid_covers_splits_and_infeasible_stops():
    """The pinned grid exercises the interesting outcomes, so a digest
    match means something: multi-flight splits, overflowing fleets and
    stops no flight can serve."""
    stops = grid_stops(15)
    with pytest.raises(InfeasibleStopError):
        solve("free", stops, 60_000.0, 1, 0)
    routes = solve("free", stops, MODEL.battery_capacity_j, 1, 0)
    assert len(routes) > 1
