"""The flight planner.

"AnDrone's flight planner is based on the multirotor drone energy
consumption model and the drone delivery routing algorithm developed by
Dorling, et al. for assigning deliveries to a fleet of drones ... AnDrone
assigns virtual drones to physical drones using this model and algorithm
by specifying the drone fleet size, using waypoints as delivery
locations, and adjusting the energy cost to account for the energy
allocated for virtual drones at their waypoints" (Section 4).
"""

from repro.cloud.planner.energy import DroneEnergyModel
from repro.cloud.planner.vrp import Stop, Route, solve_vrp, nearest_neighbor_routes
from repro.cloud.planner.flight_plan import FlightPlan, FlightPlanner, PlannedStop

__all__ = [
    "DroneEnergyModel",
    "Stop",
    "Route",
    "solve_vrp",
    "nearest_neighbor_routes",
    "FlightPlan",
    "FlightPlanner",
    "PlannedStop",
]
