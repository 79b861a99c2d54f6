"""Pluggable placement: which physical drone hosts a virtual drone.

The control plane scores candidate drones with a bin-packing policy over
three axes the ISSUE's DaaS sources (AeroDaaS, Cloudrone) all name:

* **allotment headroom** — energy and time left in the drone's
  next-flight budget after taking the tenant (best-fit: prefer the
  tightest feasible fit so big future tenants still find room);
* **geographic locality** — pad-to-waypoint distance (battery spent
  ferrying is battery not sold to tenants);
* **whitelist class** — a drone can host any tenant whose required
  MAVLink template class is at or below its own; exact matches score
  better so ``full``-capable drones stay free for ``full`` tenants.

Policies are pluggable: anything with ``place(request, drones)`` →
:class:`PlacementDecision` (raising
:class:`~repro.cloud.controlplane.errors.NoFeasiblePlacementError` when
nothing fits).  :class:`FirstFitPlacer` is the deliberately naive
baseline the placement-quality benchmark compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import repro.obs as obs
from repro.cloud.controlplane.errors import (
    ControlPlaneConfigError,
    NoFeasiblePlacementError,
)
from repro.cloud.controlplane.fleet import (
    WHITELIST_RANK,
    DroneState,
    PlacedTenant,
    whitelist_rank,
)


@dataclass(frozen=True)
class PlacementRequest:
    """What a virtual drone asks of a physical drone."""

    tenant: str
    east_m: float
    north_m: float
    energy_j: float
    duration_s: float
    whitelist_class: str = "standard"

    def __post_init__(self) -> None:
        whitelist_rank(self.whitelist_class)

    def as_placed(self) -> PlacedTenant:
        return PlacedTenant(
            tenant=self.tenant, energy_j=self.energy_j,
            duration_s=self.duration_s, east_m=self.east_m,
            north_m=self.north_m, whitelist_class=self.whitelist_class)


@dataclass(frozen=True)
class PlacementDecision:
    """The outcome of one placement query."""

    tenant: str
    drone_id: str
    score: float
    distance_m: float
    considered: int
    feasible: int
    policy: str


def _distance_m(drone: DroneState, request: PlacementRequest) -> float:
    return math.hypot(drone.spec.east_m - request.east_m,
                      drone.spec.north_m - request.north_m)


def feasible(drone: DroneState, request: PlacementRequest) -> bool:
    """Can ``drone`` take ``request`` on its next flight?"""
    return (drone.available
            and drone.slots_free >= 1
            and drone.energy_headroom_j >= request.energy_j
            and drone.time_headroom_s >= request.duration_s
            and WHITELIST_RANK[drone.spec.whitelist_class]
            >= WHITELIST_RANK[request.whitelist_class])


class PlacementPolicy:
    """Interface: rank the fleet for one request."""

    name = "abstract"

    def place(self, request: PlacementRequest,
              drones: Sequence[DroneState]) -> PlacementDecision:
        raise NotImplementedError


#: :class:`BinPackingPlacer` score weights, and the distance that counts
#: as one unit of locality.
ENERGY_WEIGHT = 1.0
TIME_WEIGHT = 0.5
LOCALITY_WEIGHT = 1.0
CLASS_WEIGHT = 0.25
LOCALITY_SCALE_M = 1000.0


class BinPackingPlacer(PlacementPolicy):
    """Weighted best-fit over headroom, locality, and whitelist slack.

    Lower score wins.  Headroom terms are the *leftover* fraction of the
    budget after placement (best-fit packs tight); the locality term is
    distance normalized by :data:`LOCALITY_SCALE_M`; the class term is
    how many capability ranks the drone would waste on this tenant.
    """

    name = "binpack"

    def score(self, drone: DroneState, request: PlacementRequest) -> float:
        energy_left = (drone.energy_headroom_j - request.energy_j) \
            / drone.spec.energy_budget_j
        time_left = (drone.time_headroom_s - request.duration_s) \
            / drone.spec.time_budget_s
        distance = _distance_m(drone, request) / LOCALITY_SCALE_M
        class_slack = (WHITELIST_RANK[drone.spec.whitelist_class]
                       - WHITELIST_RANK[request.whitelist_class])
        return (ENERGY_WEIGHT * energy_left
                + TIME_WEIGHT * time_left
                + LOCALITY_WEIGHT * distance
                + CLASS_WEIGHT * class_slack)

    def place(self, request: PlacementRequest,
              drones: Sequence[DroneState]) -> PlacementDecision:
        candidates: List[DroneState] = [d for d in drones
                                        if feasible(d, request)]
        if not candidates:
            raise NoFeasiblePlacementError(request.tenant, len(drones))
        # Ties break on drone id so the decision never depends on the
        # fleet's iteration order.
        best = min(candidates,
                   key=lambda d: (self.score(d, request), d.spec.drone_id))
        score = self.score(best, request)
        distance = _distance_m(best, request)
        obs.histogram("cp.placement_score", policy=self.name).observe(score)
        obs.histogram("cp.placement_locality_m",
                      unit="m", policy=self.name).observe(distance)
        return PlacementDecision(
            tenant=request.tenant, drone_id=best.spec.drone_id, score=score,
            distance_m=distance, considered=len(drones),
            feasible=len(candidates), policy=self.name)


class FirstFitPlacer(PlacementPolicy):
    """First feasible drone in id order — the baseline policy the
    placement-quality benchmark measures :class:`BinPackingPlacer`
    against."""

    name = "firstfit"

    def place(self, request: PlacementRequest,
              drones: Sequence[DroneState]) -> PlacementDecision:
        candidates = [d for d in drones if feasible(d, request)]
        if not candidates:
            raise NoFeasiblePlacementError(request.tenant, len(drones))
        best = min(candidates, key=lambda d: d.spec.drone_id)
        distance = _distance_m(best, request)
        obs.histogram("cp.placement_locality_m",
                      unit="m", policy=self.name).observe(distance)
        return PlacementDecision(
            tenant=request.tenant, drone_id=best.spec.drone_id, score=0.0,
            distance_m=distance, considered=len(drones),
            feasible=len(candidates), policy=self.name)


#: Scenario-facing registry of placement policies.
PLACERS = {
    BinPackingPlacer.name: BinPackingPlacer,
    FirstFitPlacer.name: FirstFitPlacer,
}


def make_placer(name: str) -> PlacementPolicy:
    if name not in PLACERS:
        raise ControlPlaneConfigError(
            f"unknown placer {name!r}: choose from {sorted(PLACERS)}")
    return PLACERS[name]()
