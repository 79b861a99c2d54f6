"""The fleet scenario spec: what a soak run looks like, as data.

A :class:`FleetScenario` is a plain, seeded description of a fleet run —
how many drones, how many tenants each, which workload mix, how much
chaos — that round-trips through JSON so soak configurations can be
checked in, diffed, and replayed bit-for-bit.  The round trip lives in
:class:`Scenario`, which the city's scenario shares.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List


class ScenarioError(ValueError):
    """Invalid scenario field or malformed scenario JSON."""


class Scenario:
    """Base of the scenario dataclasses: validated on construction,
    round-tripped through JSON.  Subclasses define their fields and
    :meth:`validate`."""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ScenarioError(f"unknown scenario fields {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as bad:
            raise ScenarioError(str(bad)) from bad

    @classmethod
    def from_json(cls, text: str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as bad:
            raise ScenarioError(f"malformed scenario JSON: {bad}") from bad
        if not isinstance(data, dict):
            raise ScenarioError("scenario JSON must be an object")
        return cls.from_dict(data)


#: The workload kinds the harness knows how to drive (see workloads.py).
WORKLOADS = ("survey", "storm", "camera-feed")

#: The adversarial overlays the harness can stage (see abuse.py):
#: - ``order-storm``: a burst of bogus portal orders trying to exhaust
#:   the bounded admission queue before honest users order;
#: - ``mavlink-spam``: spoofed velocity commands injected straight at a
#:   victim tenant's VFC network endpoint during its waypoint;
#: - ``replay``: captured secure-channel frames re-sent verbatim;
#: - ``binder-flood``: an adversarial *tenant* whose app hammers the
#:   binder route at its waypoint and never completes, squatting on the
#:   shared drone.
ATTACKS = ("order-storm", "mavlink-spam", "replay", "binder-flood")

#: Chaos levels: 0 = none, 1 = transient faults (link latency/loss,
#: binder failures, service errors, sensor dropout), 2 = level 1 plus
#: container crashes and a VDC restart (supervision is enabled).
MAX_CHAOS_LEVEL = 2


@dataclass
class FleetScenario(Scenario):
    """One soak run, as data.  ``seed`` makes the whole run replayable."""

    seed: int = 42
    drones: int = 1
    tenants_per_drone: int = 2
    #: cycled over each drone's tenants: tenant t gets mix[t % len(mix)].
    workload_mix: List[str] = field(
        default_factory=lambda: ["survey", "storm", "camera-feed"])
    waypoints_per_tenant: int = 1
    photos_per_waypoint: int = 3
    #: device-service calls each storm tenant fires per waypoint.
    storm_calls: int = 24
    #: camera frames each feed tenant forwards per waypoint.
    feed_frames: int = 5
    chaos_level: int = 0
    drone_type: str = "dense"
    sitl_rate_hz: float = 50.0
    max_charge: float = 25.0
    max_duration_s: float = 300.0
    geofence_radius_m: float = 30.0
    #: east spacing between consecutive tenants' waypoint clusters.
    waypoint_spacing_m: float = 35.0
    # -- adversarial overlay (all defaults off: a scenario written before
    # -- these fields existed runs bit-identically) ----------------------
    #: attacks staged on top of the honest workloads (see ATTACKS).
    attack_mix: List[str] = field(default_factory=list)
    #: binder-flood tenants ordered per drone (only with "binder-flood").
    attackers_per_drone: int = 1
    #: when the network-level attackers open fire, sim seconds.
    attack_start_s: float = 6.0
    #: spoofed-command / replay injection rate.
    attack_rate_hz: float = 50.0
    #: bogus orders fired at the portal by the order storm.
    order_storm_orders: int = 24
    #: the flood tenant's purchased time allotment — kept short so an
    #: *unguarded* run squats the drone measurably but still terminates.
    attack_duration_s: float = 25.0
    #: wire the SecurityFabric in (guards, secure channel, simplex).
    security_enabled: bool = False

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise ScenarioError(f"seed must be an int, got {self.seed!r}")
        if self.drones < 1:
            raise ScenarioError(f"drones must be >= 1, got {self.drones}")
        if self.tenants_per_drone < 1:
            raise ScenarioError("tenants_per_drone must be >= 1, got "
                                f"{self.tenants_per_drone}")
        if self.waypoints_per_tenant < 1:
            raise ScenarioError("waypoints_per_tenant must be >= 1, got "
                                f"{self.waypoints_per_tenant}")
        if not self.workload_mix:
            raise ScenarioError("workload_mix must name at least one workload")
        for workload in self.workload_mix:
            if workload not in WORKLOADS:
                raise ScenarioError(
                    f"unknown workload {workload!r}: choose from "
                    f"{sorted(WORKLOADS)}")
        if not 0 <= self.chaos_level <= MAX_CHAOS_LEVEL:
            raise ScenarioError(
                f"chaos_level must be 0..{MAX_CHAOS_LEVEL}, got "
                f"{self.chaos_level}")
        for name in ("photos_per_waypoint", "storm_calls", "feed_frames"):
            if getattr(self, name) < 1:
                raise ScenarioError(f"{name} must be >= 1")
        if self.sitl_rate_hz <= 0:
            raise ScenarioError("sitl_rate_hz must be positive")
        for attack in self.attack_mix:
            if attack not in ATTACKS:
                raise ScenarioError(f"unknown attack {attack!r}: choose "
                                    f"from {sorted(ATTACKS)}")
        if self.attackers_per_drone < 0:
            raise ScenarioError("attackers_per_drone must be >= 0, got "
                                f"{self.attackers_per_drone}")
        if "binder-flood" in self.attack_mix and self.attackers_per_drone < 1:
            raise ScenarioError(
                "binder-flood needs attackers_per_drone >= 1")
        if self.attack_start_s < 0:
            raise ScenarioError("attack_start_s must be >= 0")
        for name in ("attack_rate_hz", "attack_duration_s"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive")
        if self.order_storm_orders < 1:
            raise ScenarioError("order_storm_orders must be >= 1")

    @property
    def adversarial(self) -> bool:
        return bool(self.attack_mix)

    # -- identity ---------------------------------------------------------------
    @property
    def total_tenants(self) -> int:
        return self.drones * self.tenants_per_drone

    def workload_for(self, tenant_index: int) -> str:
        return self.workload_mix[tenant_index % len(self.workload_mix)]
