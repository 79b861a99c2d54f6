"""The physical fleet as the control plane sees it.

One :class:`DroneSpec` describes a physical drone's pad location on the
city grid, its per-flight tenant capacity, its per-flight energy/time
budgets (one battery pack's worth of virtual-drone allotments), and the
MAVLink whitelist template class its service provider configured.  The
:class:`FleetDirectory` tracks the live :class:`DroneState` for each —
what is queued for the next flight, what is airborne now, and how much
of the next flight's budget is already committed.

Capacity semantics mirror the multi-flight missions the onboard stack
already implements: budgets are *per flight* (battery swaps between
flights), so feasibility is judged against the tenants queued for the
**next** flight, never against tenants currently airborne.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cloud.controlplane.errors import (
    ControlPlaneConfigError,
    DroneStateError,
    UnknownDroneError,
)
from repro.mavproxy.whitelist import TEMPLATES

#: Whitelist template classes ordered least- to most-capable.  A drone
#: configured with a class can host any tenant requiring the same class
#: or a *less* capable one (its VFC simply restricts further).
WHITELIST_CLASSES = ("guided-only", "standard", "full")

#: class -> capability rank (0 = most restricted).  Placement looks
#: ranks up here directly: a drone's class is validated by
#: :meth:`DroneSpec.validate`, a request's when the request is made.
WHITELIST_RANK = {name: rank for rank, name in enumerate(WHITELIST_CLASSES)}


def whitelist_rank(name: str) -> int:
    """Capability rank of a whitelist class, validated."""
    if name not in WHITELIST_RANK or name not in TEMPLATES:
        raise ControlPlaneConfigError(
            f"unknown whitelist class {name!r}: choose from "
            f"{list(WHITELIST_CLASSES)}")
    return WHITELIST_RANK[name]


@dataclass(frozen=True)
class DroneSpec:
    """One physical drone, as registered with the control plane."""

    drone_id: str
    east_m: float
    north_m: float
    capacity: int
    energy_budget_j: float
    time_budget_s: float
    whitelist_class: str = "standard"

    def validate(self) -> "DroneSpec":
        if not self.drone_id:
            raise ControlPlaneConfigError("drone_id must be non-empty")
        if self.capacity < 1:
            raise ControlPlaneConfigError(
                f"{self.drone_id}: capacity must be >= 1, got {self.capacity}")
        if self.energy_budget_j <= 0 or self.time_budget_s <= 0:
            raise ControlPlaneConfigError(
                f"{self.drone_id}: energy/time budgets must be positive")
        whitelist_rank(self.whitelist_class)
        return self


@dataclass
class PlacedTenant:
    """One virtual drone committed to a physical drone's next flight."""

    tenant: str
    energy_j: float
    duration_s: float
    east_m: float
    north_m: float
    whitelist_class: str


@dataclass
class DroneState:
    """Live control-plane view of one physical drone."""

    spec: DroneSpec
    #: tenants queued for the next flight, in placement order.
    pending: Dict[str, PlacedTenant] = field(default_factory=dict)
    #: tenants on the flight currently in the air.
    flying: Dict[str, PlacedTenant] = field(default_factory=dict)
    available: bool = True
    in_flight: bool = False
    flights_flown: int = 0
    tenants_served: int = 0

    #: next-flight budget left after the queued tenants; kept by the
    #: three mutators of ``pending`` (the placer reads these on every
    #: feasibility check, most of them rejects).
    energy_headroom_j: float = field(init=False)
    time_headroom_s: float = field(init=False)

    def __post_init__(self) -> None:
        self._refresh_headroom()

    # -- next-flight headroom ---------------------------------------------------
    @property
    def committed_energy_j(self) -> float:
        return sum(p.energy_j for p in self.pending.values())

    @property
    def committed_time_s(self) -> float:
        return sum(p.duration_s for p in self.pending.values())

    def _refresh_headroom(self) -> None:
        # Re-summed, not adjusted by += / -=: a running total drifts in
        # the last bit after a withdraw, and scores must stay exact.
        self.energy_headroom_j = (self.spec.energy_budget_j
                                  - self.committed_energy_j)
        self.time_headroom_s = self.spec.time_budget_s - self.committed_time_s

    @property
    def slots_free(self) -> int:
        return self.spec.capacity - len(self.pending)

    def hosts(self, tenant: str) -> bool:
        return tenant in self.pending or tenant in self.flying

    # -- transitions ------------------------------------------------------------
    def enqueue(self, placed: PlacedTenant) -> None:
        if not self.available:
            raise DroneStateError(
                f"{self.spec.drone_id} is down; cannot accept "
                f"{placed.tenant!r}")
        if self.hosts(placed.tenant):
            raise DroneStateError(
                f"{placed.tenant!r} already on {self.spec.drone_id}")
        if self.slots_free < 1:
            raise DroneStateError(
                f"{self.spec.drone_id} has no free slot for "
                f"{placed.tenant!r}")
        self.pending[placed.tenant] = placed
        self._refresh_headroom()

    def withdraw(self, tenant: str) -> PlacedTenant:
        """Remove a queued (not yet airborne) tenant."""
        if tenant not in self.pending:
            raise DroneStateError(
                f"{tenant!r} is not queued on {self.spec.drone_id}")
        placed = self.pending.pop(tenant)
        self._refresh_headroom()
        return placed

    def begin_flight(self) -> List[PlacedTenant]:
        if self.in_flight:
            raise DroneStateError(f"{self.spec.drone_id} is already flying")
        if not self.available:
            raise DroneStateError(f"{self.spec.drone_id} is down")
        if not self.pending:
            raise DroneStateError(
                f"{self.spec.drone_id} has no tenants to fly")
        self.flying = self.pending
        self.pending = {}
        self._refresh_headroom()
        self.in_flight = True
        return list(self.flying.values())

    def complete_flight(self) -> List[PlacedTenant]:
        if not self.in_flight:
            raise DroneStateError(f"{self.spec.drone_id} is not flying")
        served = list(self.flying.values())
        self.flying = {}
        self.in_flight = False
        self.flights_flown += 1
        self.tenants_served += len(served)
        return served


class FleetDirectory:
    """All registered physical drones, keyed by id."""

    def __init__(self, specs: List[DroneSpec]):
        if not specs:
            raise ControlPlaneConfigError("a fleet needs at least one drone")
        self._drones: Dict[str, DroneState] = {}
        for spec in specs:
            spec.validate()
            if spec.drone_id in self._drones:
                raise ControlPlaneConfigError(
                    f"duplicate drone id {spec.drone_id!r}")
            self._drones[spec.drone_id] = DroneState(spec=spec)

    def get(self, drone_id: str) -> DroneState:
        state = self._drones.get(drone_id)
        if state is None:
            raise UnknownDroneError(drone_id)
        return state

    def states(self, exclude: Optional[str] = None) -> List[DroneState]:
        """All drones in stable (registration) order, optionally minus
        one (a migration never returns to its source drone)."""
        return [state for drone_id, state in self._drones.items()
                if drone_id != exclude]

    def drone_ids(self) -> List[str]:
        return list(self._drones)
