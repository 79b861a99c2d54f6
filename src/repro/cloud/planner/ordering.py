"""Waypoint ordering and grouping constraints — the paper's future work.

"A limitation of the algorithm is that it treats all waypoints
independently, so users may not prescribe that waypoints be traversed in
a specified order and the algorithm may decide to visit waypoints of one
virtual drone in the middle of a set of waypoints of another virtual
drone.  Providing a planner algorithm that can support waypoint ordering
and grouping is an area of future work" (Section 4).

This module implements that future work as constraints layered on the
same SA solver:

* **ordering** — a tenant's waypoints must be visited in definition
  order (precedence within the giant tour);
* **grouping** — a tenant's waypoints must be visited back-to-back, with
  no other tenant's stop interleaved.

Both are enforced by *repairing* candidate tours after each SA move:
ordering by stable-sorting each tenant's stops into its occupied slots,
grouping by collapsing each tenant's stops around their earliest
occurrence.  Repair keeps the move semantics (positions still explore the
space) while guaranteeing feasibility, so the solver degrades gracefully:
unconstrained tenants still interleave freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set

from repro.cloud.planner.energy import DroneEnergyModel
from repro.cloud.planner.vrp import Route, Stop, _anneal
from repro.flight.geo import GeoPoint


@dataclass(frozen=True)
class OrderingConstraints:
    """Which tenants require ordering and/or grouping."""

    ordered_tenants: frozenset = frozenset()
    grouped_tenants: frozenset = frozenset()

    @classmethod
    def of(cls, ordered: Sequence[str] = (), grouped: Sequence[str] = ()):
        return cls(frozenset(ordered), frozenset(grouped))

    @property
    def empty(self) -> bool:
        return not self.ordered_tenants and not self.grouped_tenants


def _tenant_of(stop: Stop) -> str:
    tenant, _, _ = stop.stop_id.rpartition("#")
    return tenant


def _index_of(stop: Stop) -> int:
    _, _, index = stop.stop_id.rpartition("#")
    return int(index)


def _repairer(stops: Sequence[Stop], constraints: OrderingConstraints
              ) -> Callable[[List[Stop]], List[Stop]]:
    """:func:`repair_tour` for tours of ``stops``, with each stop's
    tenant (and, for ordered tenants, its index) parsed once up front."""
    tenant_of = {id(stop): _tenant_of(stop) for stop in stops}
    index_of = {id(stop): _index_of(stop) for stop in stops
                if tenant_of[id(stop)] in constraints.ordered_tenants}

    def repair(order: List[Stop]) -> List[Stop]:
        tour = list(order)
        # --- grouping ---
        for tenant in constraints.grouped_tenants:
            positions = [i for i, stop in enumerate(tour)
                         if tenant_of[id(stop)] == tenant]
            if len(positions) <= 1:
                continue
            block = [tour[i] for i in positions]
            anchor = positions[0]
            remaining = [stop for stop in tour
                         if tenant_of[id(stop)] != tenant]
            anchor = min(anchor, len(remaining))
            tour = remaining[:anchor] + block + remaining[anchor:]
        # --- ordering ---
        for tenant in constraints.ordered_tenants:
            positions = [i for i, stop in enumerate(tour)
                         if tenant_of[id(stop)] == tenant]
            ordered = sorted((tour[i] for i in positions),
                             key=lambda stop: index_of[id(stop)])
            for position, stop in zip(positions, ordered):
                tour[position] = stop
        return tour

    return repair


def repair_tour(order: List[Stop], constraints: OrderingConstraints) -> List[Stop]:
    """Return the nearest feasible tour to ``order``.

    Grouping first (collapse each grouped tenant around its first stop's
    position), then ordering (stable reassignment of each ordered
    tenant's stops into that tenant's slots, sorted by definition index).
    """
    return _repairer(order, constraints)(order)


def validate_tour(order: Sequence[Stop], constraints: OrderingConstraints) -> bool:
    """Check a tour against the constraints (used by tests)."""
    last_index: Dict[str, int] = {}
    last_seen_at: Dict[str, int] = {}
    open_groups: Set[str] = set()
    closed_groups: Set[str] = set()
    for position, stop in enumerate(order):
        tenant = _tenant_of(stop)
        if tenant in constraints.ordered_tenants:
            index = _index_of(stop)
            if tenant in last_index and index < last_index[tenant]:
                return False
            last_index[tenant] = index
        if tenant in constraints.grouped_tenants:
            if tenant in closed_groups:
                return False
            if tenant in last_seen_at and last_seen_at[tenant] != position - 1:
                return False
            last_seen_at[tenant] = position
            open_groups.add(tenant)
        for other in list(open_groups):
            if other != tenant:
                open_groups.discard(other)
                closed_groups.add(other)
    return True


def solve_vrp_constrained(
    depot: GeoPoint,
    stops: Sequence[Stop],
    model: DroneEnergyModel,
    battery_j: float,
    constraints: OrderingConstraints,
    fleet_size: int = 1,
    cruise_ms: float = 8.0,
    rng=None,
    iterations: int = 4_000,
) -> List[Route]:
    """The SA solver with ordering/grouping repair after each move."""
    return _anneal(depot, stops, model, battery_j, fleet_size, cruise_ms,
                   rng, iterations, repair=_repairer(stops, constraints))
