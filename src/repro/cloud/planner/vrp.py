"""The drone-delivery vehicle routing problem, solved Dorling-style.

Stops (virtual drone waypoints) must each be visited exactly once by some
flight.  Every flight starts and ends at the depot and is constrained by
battery energy — cruise energy between stops plus the energy *allotted to
the tenant at the stop* (AnDrone's adaptation).  The objective, following
Dorling et al., is minimum total completion time subject to a fleet-size
constraint; we solve with simulated annealing over a giant-tour
permutation with a greedy battery-feasible split, which is the paper's
algorithmic family.

As in the paper, stops are treated independently: there is no support for
user-prescribed visit order, and one tenant's stops may be interleaved
with another's (providing ordering/grouping is explicitly future work).

Nothing a solve evaluates changes while it runs: the depot, the stops,
the cruise speed and so the cruise power are fixed.  Each solve therefore
builds one leg table first — distance, flight time and cruise energy for
every ordered pair of points (distance is not symmetric: the east scale
follows the origin's latitude) — with the power computed once and each
leg's energy ``power * (d / cruise_ms)``, the product
:meth:`DroneEnergyModel.leg_energy_j` forms.  Every annealing move is then
one pass over the candidate tour: the split keeps the open flight's
running distance, time and energy and tries the next stop as
``prefix + (leg + service) + return leg``.  That is the same sequence of
float additions as walking depot -> stops -> depot from scratch, so each
flight's totals, each cost, each acceptance draw and each
:class:`InfeasibleStopError` is bit-identical to re-walking every growing
prefix, at O(n) table lookups per move instead of O(n^2) energy-model
calls.  :class:`Route` objects are built only for the returned flights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.cloud.planner.energy import DroneEnergyModel, EnergyModelError
from repro.flight.geo import GeoPoint


@dataclass
class Stop:
    """One waypoint to service."""

    stop_id: str
    location: GeoPoint
    service_energy_j: float = 0.0   # tenant's allotment at this stop
    service_time_s: float = 0.0


@dataclass
class Route:
    """One physical flight: depot -> stops -> depot."""

    stops: List[Stop]
    distance_m: float = 0.0
    duration_s: float = 0.0
    energy_j: float = 0.0

    def stop_ids(self) -> List[str]:
        return [s.stop_id for s in self.stops]


class InfeasibleStopError(ValueError):
    """A single stop exceeds the battery budget even on its own flight."""


class _LegTable:
    """Every leg one solve can fly, computed once.

    Points are numbered 0 (the depot) and 1..n (the stops, in input
    order); a tour is a list of stop points.  ``distance[a][b]`` is
    ``a.distance_to(b)`` — not symmetric, the local east scale follows
    the origin's latitude — and ``time``/``energy`` are that leg flown
    at ``cruise_ms``, with energy ``power * (d / cruise_ms)`` exactly as
    :meth:`DroneEnergyModel.leg_energy_j` computes it.
    """

    def __init__(self, depot: GeoPoint, stops: Sequence[Stop],
                 model: DroneEnergyModel, cruise_ms: float):
        if cruise_ms <= 0:
            raise EnergyModelError("speed must be positive")
        power = model.cruise_power_w(cruise_ms)
        points = [depot] + [stop.location for stop in stops]
        self.stops: List[Stop] = list(stops)
        self.distance = [[a.distance_to(b) for b in points] for a in points]
        self.time = [[d / cruise_ms for d in row] for row in self.distance]
        self.energy = [[power * (d / cruise_ms) for d in row]
                       for row in self.distance]
        self.service_time = [0.0] + [stop.service_time_s for stop in stops]
        self.service_energy = [0.0] + [stop.service_energy_j for stop in stops]

    def nearest_neighbor_tour(self) -> List[int]:
        """Greedy nearest-neighbour tour from the depot (first stop in
        input order wins a tie)."""
        remaining = list(range(1, len(self.stops) + 1))
        tour: List[int] = []
        here = 0
        while remaining:
            row = self.distance[here]
            here = min(remaining, key=row.__getitem__)
            remaining.remove(here)
            tour.append(here)
        return tour

    def split(self, tour: Sequence[int],
              battery_j: float) -> List[Tuple[int, float, float, float]]:
        """Greedy battery split of ``tour`` in one pass.

        Returns one ``(end, distance_m, duration_s, energy_j)`` per
        flight; each flight flies ``tour`` from the previous flight's
        ``end`` up to its own.  The running sums add legs in the order a
        depot -> stops -> depot walk does, so every total is the float
        that walk would give.
        """
        distance, time, energy = self.distance, self.time, self.energy
        service_time, service_energy = self.service_time, self.service_energy
        flights: List[Tuple[int, float, float, float]] = []
        here = 0                    # the depot: the open flight is empty
        dist_sum = time_sum = energy_sum = 0.0
        for k, point in enumerate(tour):
            reach = energy_sum + (energy[here][point] + service_energy[point])
            need = reach + energy[point][0]
            if need <= battery_j:
                dist_sum += distance[here][point]
                time_sum += time[here][point] + service_time[point]
                energy_sum = reach
                here = point
                continue
            if here == 0:
                self._infeasible(point, need, battery_j)
            flights.append((k, dist_sum + distance[here][0],
                            time_sum + time[here][0],
                            energy_sum + energy[here][0]))
            dist_sum = distance[0][point]
            time_sum = time[0][point] + service_time[point]
            energy_sum = energy[0][point] + service_energy[point]
            here = point
            solo = energy_sum + energy[point][0]
            if solo > battery_j:
                self._infeasible(point, solo, battery_j)
        if here != 0:
            flights.append((len(tour), dist_sum + distance[here][0],
                            time_sum + time[here][0],
                            energy_sum + energy[here][0]))
        return flights

    def _infeasible(self, point: int, energy_j: float, battery_j: float):
        raise InfeasibleStopError(
            f"stop {self.stops[point - 1].stop_id!r} needs {energy_j:.0f} J "
            f"alone, battery is {battery_j:.0f} J"
        )

    def routes(self, tour: Sequence[int],
               flights: List[Tuple[int, float, float, float]]) -> List[Route]:
        result = []
        start = 0
        for end, distance, duration, energy in flights:
            result.append(Route([self.stops[p - 1] for p in tour[start:end]],
                                distance, duration, energy))
            start = end
        return result


def split_into_routes(depot: GeoPoint, order: Sequence[Stop],
                      model: DroneEnergyModel, battery_j: float,
                      cruise_ms: float) -> List[Route]:
    """Greedy split of a giant tour into battery-feasible flights."""
    table = _LegTable(depot, order, model, cruise_ms)
    tour = list(range(1, len(order) + 1))
    return table.routes(tour, table.split(tour, battery_j))


def _cost(flights: List[Tuple[int, float, float, float]],
          fleet_size: int) -> float:
    """Total completion time, with a heavy penalty for exceeding the
    fleet-size constraint (extra flights must be flown sequentially)."""
    total = sum(flight[2] for flight in flights)
    overflow = max(0, len(flights) - fleet_size)
    return total + overflow * 3_600.0


def nearest_neighbor_routes(depot: GeoPoint, stops: Sequence[Stop],
                            model: DroneEnergyModel, battery_j: float,
                            cruise_ms: float = 8.0) -> List[Route]:
    """The naive baseline (used by the planner ablation): greedy nearest
    neighbour giant tour, then the same battery split."""
    table = _LegTable(depot, stops, model, cruise_ms)
    tour = table.nearest_neighbor_tour()
    return table.routes(tour, table.split(tour, battery_j))


def solve_vrp(
    depot: GeoPoint,
    stops: Sequence[Stop],
    model: DroneEnergyModel,
    battery_j: float,
    fleet_size: int = 1,
    cruise_ms: float = 8.0,
    rng=None,
    iterations: int = 4_000,
) -> List[Route]:
    """Simulated annealing over the giant-tour permutation, starting
    from the nearest-neighbour tour."""
    if not stops:
        return []
    import random as _random

    rng = rng or _random.Random(0)
    table = _LegTable(depot, stops, model, cruise_ms)
    tour = table.nearest_neighbor_tour()
    flights = table.split(tour, battery_j)
    cost = _cost(flights, fleet_size)
    n = len(tour)
    if n < 2:
        return table.routes(tour, flights)
    best_tour, best_cost, best_flights = tour, cost, flights
    temperature = max(60.0, cost * 0.1)
    cooling = (0.01 / temperature) ** (1.0 / max(1, iterations))
    for _ in range(iterations):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        candidate = list(tour)
        if rng.random() < 0.5:
            candidate[i], candidate[j] = candidate[j], candidate[i]
        else:
            candidate.insert(j, candidate.pop(i))
        try:
            cand_flights = table.split(candidate, battery_j)
        except InfeasibleStopError:
            continue
        cand_cost = _cost(cand_flights, fleet_size)
        delta = cand_cost - cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            tour, cost, flights = candidate, cand_cost, cand_flights
            if cost < best_cost:
                best_tour, best_cost, best_flights = tour, cost, flights
        temperature *= cooling
    return table.routes(best_tour, best_flights)
