"""City-scale order stream through the sharded control plane.

Where :mod:`repro.loadgen.harness` soaks the *onboard* stack (full SITL
flights, device services, telemetry), this module stresses the *cloud*
tier at city scale: hundreds of virtual-drone orders arriving as a
Poisson stream, routed across control-plane shards, placed onto a
physical fleet, flown, and — for multi-leg tasks — migrated between
drones through the VDR.

Everything is driven from one seed through named
:class:`~repro.sim.rng.RngRegistry` streams on the discrete-event sim
clock, so a scenario replays bit-for-bit: the harness proves it by
hashing the control plane's decision journal
(:meth:`~repro.cloud.controlplane.CityControlPlane.digest`).
"""

from __future__ import annotations

import json
import math
from itertools import islice
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

import repro.obs as obs
from repro.cloud.controlplane import (
    PLACERS,
    TENANT_STATES,
    WHITELIST_CLASSES,
    CityControlPlane,
    DroneSpec,
    DroneStateError,
    NoFeasiblePlacementError,
)
from repro.cloud.portal import PortalBusyError
from repro.flight.geo import GeoPoint, offset_geopoint
from repro.loadgen.invariants import (
    SweepMonitor,
    Violation,
    assert_no_violations,
)
from repro.loadgen.scenario import Scenario, ScenarioError
from repro.sim import Periodic, Simulator
from repro.sim.rng import RngRegistry

#: The city's reference point (same test range the flight stack uses).
CITY_HOME = GeoPoint(43.6084298, -85.8110359, 0.0)

#: Waypoint altitude for city orders, meters above home.
CITY_ALTITUDE_M = 30.0


@dataclass
class CityScenario(Scenario):
    """One city-scale control-plane run, as replayable data."""

    seed: int = 42
    shards: int = 4
    drones: int = 12
    orders: int = 240
    #: mean order arrival rate (Poisson process on the sim clock).
    arrival_rate_per_s: float = 2.0
    #: virtual drones one physical drone hosts per flight.
    capacity: int = 4
    #: per-flight budgets (one battery pack's worth of allotments).
    energy_budget_j: float = 30000.0
    time_budget_s: float = 240.0
    #: side length of the square city grid the pads and orders live on.
    city_extent_m: float = 4000.0
    #: whitelist template classes, cycled over drones / drawn per order.
    drone_whitelist_mix: List[str] = field(
        default_factory=lambda: ["standard", "full", "standard",
                                 "guided-only"])
    order_whitelist_mix: List[str] = field(
        default_factory=lambda: ["standard", "guided-only", "standard",
                                 "full"])
    #: per-order max billing charge, drawn uniformly from this range.
    max_charge_range: List[float] = field(default_factory=lambda: [2.0, 6.0])
    #: per-order duration cap, drawn uniformly from this range.
    max_duration_range_s: List[float] = field(
        default_factory=lambda: [40.0, 90.0])
    #: every Nth order is a two-flight task (forces a VDR migration).
    migration_every: int = 24
    #: placement retries a migration gets before failing for good; the
    #: backoff rides out full queues (capacity frees as flights land).
    migration_retry_limit: int = 10
    migration_retry_backoff_s: float = 10.0
    placer: str = "binpack"
    #: admission bound per shard (pending orders, held until completion).
    max_pending: int = 24
    dispatch_delay_s: float = 5.0
    flight_overhead_s: float = 30.0
    #: fraction of a tenant's duration cap actually flown per flight.
    service_fraction: float = 0.25
    #: restart one idle drone's VDC host at this sim time (0 = never).
    restart_at_s: float = 40.0
    restart_downtime_s: float = 15.0
    #: give up on an order after this many busy/capacity retries.
    max_retries: int = 120
    #: harness deadline on the sim clock.
    max_sim_s: float = 3600.0

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise ScenarioError(f"seed must be an int, got {self.seed!r}")
        if self.shards < 1:
            raise ScenarioError(f"shards must be >= 1, got {self.shards}")
        if self.drones < 1:
            raise ScenarioError(f"drones must be >= 1, got {self.drones}")
        if self.orders < 1:
            raise ScenarioError(f"orders must be >= 1, got {self.orders}")
        if self.arrival_rate_per_s <= 0:
            raise ScenarioError("arrival_rate_per_s must be positive")
        if self.capacity < 1:
            raise ScenarioError(f"capacity must be >= 1, got {self.capacity}")
        if self.energy_budget_j <= 0 or self.time_budget_s <= 0:
            raise ScenarioError("per-flight budgets must be positive")
        if self.city_extent_m <= 0:
            raise ScenarioError("city_extent_m must be positive")
        if not self.drone_whitelist_mix or not self.order_whitelist_mix:
            raise ScenarioError("whitelist mixes must be non-empty")
        for mix_name in ("drone_whitelist_mix", "order_whitelist_mix"):
            for klass in getattr(self, mix_name):
                if klass not in WHITELIST_CLASSES:
                    raise ScenarioError(
                        f"{mix_name}: unknown whitelist class {klass!r}, "
                        f"choose from {list(WHITELIST_CLASSES)}")
        if self.placer not in PLACERS:
            raise ScenarioError(
                f"unknown placer {self.placer!r}: "
                f"choose from {sorted(PLACERS)}")
        for name in ("max_charge_range", "max_duration_range_s"):
            bounds = getattr(self, name)
            if (len(bounds) != 2 or bounds[0] <= 0
                    or bounds[1] < bounds[0]):
                raise ScenarioError(
                    f"{name} must be [lo, hi] with 0 < lo <= hi, "
                    f"got {bounds}")
        if self.migration_every < 0:
            raise ScenarioError("migration_every must be >= 0 (0 = never)")
        if self.migration_retry_limit < 0 or self.migration_retry_backoff_s <= 0:
            raise ScenarioError(
                "migration_retry_limit must be >= 0 and "
                "migration_retry_backoff_s > 0")
        if self.max_pending < 1:
            raise ScenarioError("max_pending must be >= 1")
        if self.service_fraction <= 0:
            raise ScenarioError("service_fraction must be positive")
        if self.restart_at_s < 0 or self.restart_downtime_s <= 0:
            raise ScenarioError(
                "restart_at_s must be >= 0 and restart_downtime_s > 0")
        if self.max_retries < 0:
            raise ScenarioError("max_retries must be >= 0")
        if self.max_sim_s <= 0:
            raise ScenarioError("max_sim_s must be positive")


def make_city_specs(scenario: CityScenario) -> List[DroneSpec]:
    """Pad the fleet out on a deterministic grid over the city square."""
    columns = max(1, math.ceil(math.sqrt(scenario.drones)))
    spacing = scenario.city_extent_m / columns
    specs = []
    for i in range(scenario.drones):
        specs.append(DroneSpec(
            drone_id=f"pd-{i:02d}",
            east_m=(i % columns + 0.5) * spacing,
            north_m=(i // columns + 0.5) * spacing,
            capacity=scenario.capacity,
            energy_budget_j=scenario.energy_budget_j,
            time_budget_s=scenario.time_budget_s,
            whitelist_class=scenario.drone_whitelist_mix[
                i % len(scenario.drone_whitelist_mix)],
        ))
    return specs


#: Sim-time interval between two sweeps over a city's order records.
SWEEP_INTERVAL_S = 2.0


class CityInvariantMonitor(SweepMonitor):
    """Sweeps the control plane's promises while the city runs.

    * **capacity** — a drone's queued tenants never exceed its slot
      count nor its per-flight energy/time budgets; airborne manifests
      never exceed the slot count; the headroom the drone keeps for the
      placer equals its budgets minus the re-summed queue.
    * **single placement** — a tenant is hosted by at most one physical
      drone at any instant.
    * **conservation** — every tenant record is in a known state and
      hosted exactly when its state says it should be.
    * **admission sanity** — each shard's pending count stays within
      ``[0, max_pending]``.
    * **routing stability** — every accepted order still routes to the
      shard that admitted it.

    The drone and shard rules sweep everything every time; there are few
    of those.  Records only grow, and most of them end terminal, so the
    two per-record rules re-check only the records that can have moved.
    Every record write goes through the
    :class:`~repro.cloud.controlplane.TenantRecord` write barrier into
    :attr:`CityControlPlane.changed`, direct writes included.

    Conservation re-checks:

    * the records routing re-checks (below);
    * the ones that were not terminal when last checked;
    * every tenant a drone hosts now.

    Any other record was terminal when last checked, has not been
    written since, and no drone hosts it now: its state is still
    terminal, so conservation holds.

    Routing re-checks the records added or written since the last sweep
    and the ones whose route it flagged last time.  A route depends only
    on the record's user and shard and on the ring membership
    (consistent hashing); a record that is not written keeps its user
    and shard, so its route moves only when the membership does, and
    then every record's route is re-checked.

    Violations come out in rule order, records in ``plane.records``
    order (records are never removed), exactly as a full sweep would
    emit them.
    """

    #: record states that never change again on their own.
    TERMINAL = ("completed", "failed", "rejected")

    def __init__(self, sim: Simulator, plane: CityControlPlane,
                 max_pending: int):
        super().__init__(sim, SWEEP_INTERVAL_S)
        self.plane = plane
        self.max_pending = max_pending
        #: tenant -> its position in ``plane.records`` (insertion order).
        self._position: Dict[str, int] = {}
        #: tenants the next sweep re-checks for conservation even if
        #: nothing writes them.
        self._watch: Set[str] = set()
        #: tenants whose route the last sweep flagged.
        self._route_watch: Set[str] = set()
        #: ring membership at the last sweep.
        self._ring: Optional[List[str]] = None

    # -- the sweep --------------------------------------------------------------
    def _sweep(self) -> None:
        hosts = self._hosts()
        written = self._written()
        routes = written | self._route_watch
        placement = self._in_order(routes | self._watch | hosts.keys())
        routing = self._in_order(routes)
        self._watch, self._route_watch = set(), set()
        self._check_capacity()
        self._check_placement(hosts, placement)
        self._check_admission()
        self._check_routing(routing)

    def _hosts(self) -> Dict[str, List[str]]:
        """tenant -> ids of the drones that queue or fly it now."""
        hosts: Dict[str, List[str]] = {}
        for drone in self.plane.fleet.states():
            for tenant in list(drone.pending) + list(drone.flying):
                hosts.setdefault(tenant, []).append(drone.spec.drone_id)
        return hosts

    def _written(self) -> Set[str]:
        """The tenants added or written since the last sweep (drains
        ``plane.changed``)."""
        position = self._position
        written = set(self.plane.changed)
        self.plane.changed.clear()
        if len(self.plane.records) > len(position):
            for tenant in islice(self.plane.records, len(position), None):
                position[tenant] = len(position)
                written.add(tenant)
        return written

    def _in_order(self, tenants: Set[str]) -> List[str]:
        """The recorded ones of ``tenants``, in ``plane.records`` order."""
        position = self._position
        return sorted((t for t in tenants if t in position),
                      key=position.__getitem__)

    def _check_capacity(self) -> None:
        for drone in self.plane.fleet.states():
            spec = drone.spec
            if len(drone.pending) > spec.capacity:
                self._flag(spec.drone_id, "capacity",
                           f"{len(drone.pending)} queued > "
                           f"{spec.capacity} slots")
            if len(drone.flying) > spec.capacity:
                self._flag(spec.drone_id, "capacity",
                           f"{len(drone.flying)} airborne > "
                           f"{spec.capacity} slots")
            energy_j = drone.committed_energy_j
            time_s = drone.committed_time_s
            if energy_j > spec.energy_budget_j + 1e-6:
                self._flag(spec.drone_id, "capacity",
                           f"committed {energy_j:.0f} J > "
                           f"budget {spec.energy_budget_j:.0f} J")
            if time_s > spec.time_budget_s + 1e-6:
                self._flag(spec.drone_id, "capacity",
                           f"committed {time_s:.0f} s > "
                           f"budget {spec.time_budget_s:.0f} s")
            # Exact: the kept headroom is this very expression, evaluated
            # at the last write through the drone's mutators.
            if (drone.energy_headroom_j != spec.energy_budget_j - energy_j
                    or drone.time_headroom_s != spec.time_budget_s - time_s):
                self._flag(spec.drone_id, "capacity",
                           f"kept headroom {drone.energy_headroom_j!r} J "
                           f"/ {drone.time_headroom_s!r} s, but the queue "
                           f"leaves {spec.energy_budget_j - energy_j!r} J "
                           f"/ {spec.time_budget_s - time_s!r} s")

    def _check_placement(self, hosts: Dict[str, List[str]],
                         recheck: List[str]) -> None:
        for tenant, drone_ids in hosts.items():
            if len(drone_ids) > 1:
                self._flag(tenant, "single-placement",
                           f"hosted by {sorted(drone_ids)} simultaneously")
        for tenant in recheck:
            record = self.plane.records[tenant]
            if record.state not in self.TERMINAL:
                self._watch.add(tenant)
            if record.state not in TENANT_STATES:
                self._flag(tenant, "conservation",
                           f"unknown state {record.state!r}")
            hosted = tenant in hosts
            if record.state in ("queued", "flying") and not hosted:
                self._flag(tenant, "conservation",
                           f"state {record.state!r} but hosted by no drone")
            if record.state in self.TERMINAL and hosted:
                self._flag(tenant, "conservation",
                           f"state {record.state!r} but still hosted by "
                           f"{hosts[tenant]}")

    def _check_admission(self) -> None:
        for shard in self.plane.shards:
            pending = shard.admission.pending
            if not 0 <= pending <= self.max_pending:
                self._flag(shard.shard_id, "admission",
                           f"pending {pending} outside "
                           f"[0, {self.max_pending}]")

    def _check_routing(self, recheck: List[str]) -> None:
        router = self.plane.router
        ring = router.shard_ids()
        tenants = self.plane.records if ring != self._ring else recheck
        self._ring = ring
        for tenant in tenants:
            record = self.plane.records[tenant]
            owner = router.route(record.user)
            if owner != record.shard_id:
                self._route_watch.add(tenant)
                self._flag(record.tenant, "routing",
                           f"user {record.user!r} admitted on "
                           f"{record.shard_id} but routes to {owner}")


@dataclass
class CityResult:
    """The outcome of one :meth:`CityHarness.run`."""

    scenario: CityScenario
    duration_s: float
    orders_submitted: int
    orders_completed: int
    orders_failed: int
    orders_rejected: int
    busy_retries: int
    capacity_retries: int
    flights: int
    migrations: Dict[str, int]
    violations: List[Violation]
    invariant_checks: int
    digest: str
    shards: List[Dict[str, Any]]
    placement_mean_m: float = 0.0
    deadline_hit: bool = False

    @property
    def migrations_completed(self) -> int:
        return self.migrations.get("completed", 0)

    def assert_clean(self) -> None:
        assert_no_violations(self.violations)
        if self.deadline_hit:
            raise AssertionError(
                f"city run hit the {self.scenario.max_sim_s:.0f} s sim "
                f"deadline with work outstanding")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "duration_s": round(self.duration_s, 3),
            "orders_submitted": self.orders_submitted,
            "orders_completed": self.orders_completed,
            "orders_failed": self.orders_failed,
            "orders_rejected": self.orders_rejected,
            "busy_retries": self.busy_retries,
            "capacity_retries": self.capacity_retries,
            "flights": self.flights,
            "migrations": dict(self.migrations),
            "violations": [str(v) for v in self.violations],
            "invariant_checks": self.invariant_checks,
            "digest": self.digest,
            "shards": list(self.shards),
            "placement_mean_m": round(self.placement_mean_m, 3),
            "deadline_hit": self.deadline_hit,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class CityHarness:
    """Drives a :class:`CityScenario` through the sharded control plane."""

    #: sim seconds between fleet-gauge roll-ups.
    ROLLUP_INTERVAL_S = 5.0
    #: sim seconds between done-checks once all orders are in.
    WATCHDOG_INTERVAL_S = 2.0
    #: capacity rejects retry after this much sim time.
    PLACEMENT_RETRY_S = 10.0

    def __init__(self, scenario: CityScenario):
        self.scenario = scenario
        self.sim = Simulator()
        obs.auto_enable(self.sim)
        self.rng = RngRegistry(scenario.seed)
        self.plane = CityControlPlane(
            self.sim, make_city_specs(scenario),
            shard_count=scenario.shards, placer=scenario.placer,
            max_pending=scenario.max_pending,
            dispatch_delay_s=scenario.dispatch_delay_s,
            flight_overhead_s=scenario.flight_overhead_s,
            service_fraction=scenario.service_fraction,
            migration_retry_limit=scenario.migration_retry_limit,
            migration_retry_backoff_s=scenario.migration_retry_backoff_s)
        self.monitor = CityInvariantMonitor(
            self.sim, self.plane, scenario.max_pending)
        self.busy_retries = 0
        self.capacity_retries = 0
        self.orders_rejected = 0
        self._submitted = 0
        #: logical order index -> tenant name once placed, or None while
        #: still retrying / after permanent rejection.
        self._placed: Dict[int, Optional[str]] = {}
        self._rejected: set = set()
        #: order indexes the watchdog has not yet seen settled.
        self._open: List[int] = list(range(scenario.orders))
        self._deadline_hit = False
        self._rollups = Periodic(self.sim, int(self.ROLLUP_INTERVAL_S * 1e6),
                                 self.plane.rollup)
        self._watchdog = Periodic(
            self.sim, int(self.WATCHDOG_INTERVAL_S * 1e6), self._check_done)
        #: the scripted restart, retried every 5 s while the fleet is busy.
        self._restart = Periodic(self.sim, int(5e6), self._inject_restart)

    # -- order synthesis --------------------------------------------------------
    def _order_params(self, index: int) -> Dict[str, Any]:
        sites = self.rng.stream("city.sites")
        charges = self.rng.stream("city.charges")
        durations = self.rng.stream("city.durations")
        east = sites.uniform(0.0, self.scenario.city_extent_m)
        north = sites.uniform(0.0, self.scenario.city_extent_m)
        point = offset_geopoint(CITY_HOME, east, north, CITY_ALTITUDE_M)
        lo_c, hi_c = self.scenario.max_charge_range
        lo_d, hi_d = self.scenario.max_duration_range_s
        legs = 2 if (self.scenario.migration_every
                     and (index + 1) % self.scenario.migration_every == 0) \
            else 1
        return {
            "user": f"user{index:04d}",
            "waypoints": [{
                "latitude": point.latitude,
                "longitude": point.longitude,
                "altitude": point.altitude_m,
            }],
            "east_m": east,
            "north_m": north,
            "whitelist_class": self.scenario.order_whitelist_mix[
                index % len(self.scenario.order_whitelist_mix)],
            "legs": legs,
            "max_charge": round(charges.uniform(lo_c, hi_c), 3),
            "max_duration_s": round(durations.uniform(lo_d, hi_d), 1),
        }

    # -- arrival process --------------------------------------------------------
    def _schedule_next_arrival(self, index: int) -> None:
        if index >= self.scenario.orders:
            return
        arrivals = self.rng.stream("city.arrivals")
        gap_s = arrivals.expovariate(self.scenario.arrival_rate_per_s)
        self.sim.after(max(1, int(gap_s * 1e6)),
                       lambda: self._arrive(index))

    def _arrive(self, index: int) -> None:
        self._submitted += 1
        self._attempt(index, self._order_params(index), tries=0)
        self._schedule_next_arrival(index + 1)

    def _attempt(self, index: int, params: Dict[str, Any],
                 tries: int) -> None:
        try:
            record = self.plane.submit_order(**params)
        except PortalBusyError as busy:
            self.busy_retries += 1
            shard = self.plane.shard_for(params["user"])
            obs.counter("cp.backpressure_retries",
                        shard=shard.shard_id).inc()
            # The hint is one queue-drain interval; a deep backlog needs
            # many of those, so back off harder the longer we've waited.
            delay_s = min(10.0, busy.retry_after_s * (1 + tries))
            self._retry(index, params, tries, delay_s + self._stagger())
            return
        except NoFeasiblePlacementError:
            # The plane already cancelled the order (slot released) and
            # counted the typed capacity reject; retry once queues drain.
            self.capacity_retries += 1
            self._retry(index, params, tries,
                        self.PLACEMENT_RETRY_S + self._stagger())
            return
        self._placed[index] = record.tenant

    def _stagger(self) -> float:
        return self.rng.stream("city.backoff").uniform(0.0, 0.5)

    def _retry(self, index: int, params: Dict[str, Any], tries: int,
               delay_s: float) -> None:
        if tries + 1 > self.scenario.max_retries:
            self._rejected.add(index)
            self.orders_rejected += 1
            return
        self.sim.after(max(1, int(delay_s * 1e6)),
                       lambda: self._attempt(index, params, tries + 1))

    # -- failure injection ------------------------------------------------------
    def _inject_restart(self) -> None:
        for drone in self.plane.fleet.states():
            if drone.available and not drone.in_flight:
                try:
                    self.plane.restart_drone(
                        drone.spec.drone_id,
                        self.scenario.restart_downtime_s)
                except DroneStateError:
                    continue
                self._restart.stop()
                return

    # -- run loop ---------------------------------------------------------------
    def _check_done(self) -> None:
        if self.sim.now >= int(self.scenario.max_sim_s * 1e6):
            self._deadline_hit = True
            self._finish()
        elif self._submitted >= self.scenario.orders:
            self._open = [index for index in self._open
                          if not self._settled(index)]
            if not self._open:
                self._finish()

    def _settled(self, index: int) -> bool:
        """Whether order ``index`` is rejected for good or has placed a
        tenant that completed or failed; either is final."""
        if index in self._rejected:
            return True
        tenant = self._placed.get(index)
        return tenant is not None and self.plane.records[tenant].state in (
            "completed", "failed")

    def _finish(self) -> None:
        """End the run now: the last order settled or the deadline hit.
        Nothing queued runs after this, a scripted restart included, so
        ``duration_s`` is this moment."""
        self._rollups.stop()
        self._watchdog.stop()
        self.monitor.stop()
        self.plane.rollup()
        self.sim.clear()

    def run(self) -> CityResult:
        self.monitor.start()
        self._rollups.start()
        self._watchdog.start()
        self._schedule_next_arrival(0)
        if self.scenario.restart_at_s > 0:
            self._restart.start(delay=int(self.scenario.restart_at_s * 1e6))
        self.sim.run()
        states = [self.plane.records[t].state
                  for t in self._placed.values() if t is not None]
        return CityResult(
            scenario=self.scenario,
            duration_s=self.sim.now / 1e6,
            orders_submitted=self._submitted,
            orders_completed=states.count("completed"),
            orders_failed=states.count("failed"),
            orders_rejected=self.orders_rejected,
            busy_retries=self.busy_retries,
            capacity_retries=self.capacity_retries,
            flights=sum(d.flights_flown for d in self.plane.fleet.states()),
            migrations=self.plane.migrations.stats(),
            violations=list(self.monitor.violations),
            invariant_checks=self.monitor.checks,
            digest=self.plane.digest(),
            shards=[shard.snapshot() for shard in self.plane.shards],
            placement_mean_m=self.plane.mean_placement_distance_m(),
            deadline_hit=self._deadline_hit,
        )


def run_city(scenario: CityScenario) -> CityResult:
    """One-call entry point: build a harness, run it, return the result."""
    return CityHarness(scenario).run()
