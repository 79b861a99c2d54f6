"""Turning virtual drone definitions into flight plans.

The planner converts each tenant's waypoints into VRP stops whose service
energy is the tenant's allotment (split across its waypoints), solves the
routing problem, and emits an ordered :class:`FlightPlan` with estimated
arrival times and energy — the operating-window estimates the portal
shows users (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cloud.planner.energy import DroneEnergyModel
from repro.cloud.planner.vrp import Route, Stop, solve_vrp
from repro.flight.geo import GeoPoint
from repro.vdc.definition import VirtualDroneDefinition


class UnknownFlightTenantError(KeyError):
    """Window lookup for a tenant with no stop on this flight.
    Subclasses ``KeyError`` so callers that caught the bare lookup error
    this used to surface as keep working."""

    def __init__(self, tenant: str):
        super().__init__(f"tenant {tenant!r} not on this flight")
        self.tenant = tenant

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass
class PlannedStop:
    """One serviced waypoint in visit order."""

    tenant: str
    waypoint_index: int
    location: GeoPoint
    est_arrival_s: float
    est_departure_s: float
    est_energy_j: float


@dataclass
class FlightPlan:
    """One physical flight's plan."""

    flight_id: int
    stops: List[PlannedStop]
    total_duration_s: float
    total_energy_j: float
    depot: GeoPoint

    def tenants(self) -> List[str]:
        seen = []
        for stop in self.stops:
            if stop.tenant not in seen:
                seen.append(stop.tenant)
        return seen

    def operating_window(self, tenant: str) -> Tuple[float, float]:
        """(first arrival, last departure) estimate for a tenant — what
        the portal communicates a day in advance (Section 2)."""
        times = [(s.est_arrival_s, s.est_departure_s)
                 for s in self.stops if s.tenant == tenant]
        if not times:
            raise UnknownFlightTenantError(tenant)
        return min(t[0] for t in times), max(t[1] for t in times)


class FlightPlanner:
    """The cloud flight planner component."""

    def __init__(self, home: GeoPoint, model: Optional[DroneEnergyModel] = None,
                 fleet_size: int = 1, cruise_ms: float = 8.0, rng=None):
        self.home = home
        self.model = model or DroneEnergyModel()
        self.fleet_size = fleet_size
        self.cruise_ms = cruise_ms
        self.rng = rng

    def _stops_for(self, definitions: Sequence[VirtualDroneDefinition]) -> List[Stop]:
        stops = []
        for definition in definitions:
            per_wp_energy = definition.energy_allotted_j / len(definition.waypoints)
            per_wp_time = definition.max_duration_s / len(definition.waypoints)
            for index, spec in enumerate(definition.waypoints):
                stops.append(Stop(
                    stop_id=f"{definition.name}#{index}",
                    location=spec.geopoint(),
                    service_energy_j=per_wp_energy,
                    service_time_s=per_wp_time,
                ))
        return stops

    def plan(self, definitions: Sequence[VirtualDroneDefinition],
             battery_j: Optional[float] = None) -> List[FlightPlan]:
        """Allocate all tenants' waypoints to one or more flights.

        Waypoints are treated independently, exactly as in the paper:
        one tenant's stops may be visited in any order and interleaved
        with another's (Section 4 leaves ordering and grouping to
        future work).
        """
        stops = self._stops_for(definitions)
        budget = battery_j if battery_j is not None else self.model.battery_capacity_j
        routes = solve_vrp(
            self.home, stops, self.model, budget,
            fleet_size=self.fleet_size, cruise_ms=self.cruise_ms,
            rng=self.rng)
        return [self._plan_from_route(i, route) for i, route in enumerate(routes)]

    def _plan_from_route(self, flight_id: int, route: Route) -> FlightPlan:
        stops: List[PlannedStop] = []
        clock = 0.0
        energy = 0.0
        here = self.home
        for stop in route.stops:
            tenant, _, index = stop.stop_id.rpartition("#")
            leg = here.distance_to(stop.location)
            clock += leg / self.cruise_ms
            energy += self.model.leg_energy_j(leg, self.cruise_ms)
            arrival = clock
            clock += stop.service_time_s
            energy += stop.service_energy_j
            stops.append(PlannedStop(
                tenant=tenant,
                waypoint_index=int(index),
                location=stop.location,
                est_arrival_s=arrival,
                est_departure_s=clock,
                est_energy_j=stop.service_energy_j,
            ))
            here = stop.location
        leg = here.distance_to(self.home)
        clock += leg / self.cruise_ms
        energy += self.model.leg_energy_j(leg, self.cruise_ms)
        return FlightPlan(flight_id, stops, clock, energy, self.home)
