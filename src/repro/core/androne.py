"""The complete AnDrone system: cloud service plus drone fleet."""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

import repro.obs as obs
from repro.android.manifest import AndroidManifest, AnDroneManifest
from repro.cloud.app_store import AppStore
from repro.cloud.billing import BillingService
from repro.cloud.planner import DroneEnergyModel, FlightPlan, FlightPlanner
from repro.cloud.portal import Order, WebPortal
from repro.cloud.storage import CloudStorage
from repro.cloud.vdr import VirtualDroneRepository
from repro.core.drone_node import DroneNode
from repro.core.mission import MissionReport, MissionRunner
from repro.flight.geo import GeoPoint
from repro.kernel.config import PreemptionMode
from repro.sim import Process, RngRegistry, Simulator, Timeout
from repro.vdc.controller import VirtualDrone

#: The operator's base: every fleet drone takes off and lands here.
HOME = GeoPoint(43.6084298, -85.8110359, 0.0)


class AnDroneSystem:
    """Top-level façade: one cloud service and a fleet of drones."""

    def __init__(self, seed: int = 0):
        self.sim = Simulator()
        # ANDRONE_TRACE=<path> switches telemetry on for the whole stack,
        # timestamped from this system's sim clock (see docs/METRICS.md).
        obs.auto_enable(self.sim)
        self.rng = RngRegistry(seed)
        self.home = HOME
        self.app_store = AppStore()
        self.billing = BillingService()
        self.portal = WebPortal(self.app_store, self.billing)
        self.vdr = VirtualDroneRepository()
        self.storage = CloudStorage()
        self.planner = FlightPlanner(HOME, DroneEnergyModel(),
                                     rng=self.rng.stream("planner.sa"))
        self.fleet: List[DroneNode] = []
        #: package -> behaviour installer, called as f(app, sdk, vdrone)
        #: when a virtual drone starts with that app.
        self.app_behaviors: Dict[str, Callable] = {}

    # -- fleet -------------------------------------------------------------------------
    def add_drone(self, seed: Optional[int] = None,
                  preemption: PreemptionMode = PreemptionMode.PREEMPT_RT,
                  sitl_rate_hz: float = 100.0,
                  drone_type: str = "standard", **kw) -> DroneNode:
        """Add a drone of one of the portal's types to the fleet."""
        from repro.core.hardware import profile_for_drone_type

        node = DroneNode(
            sim=self.sim,
            seed=seed if seed is not None else len(self.fleet) + 1,
            profile=profile_for_drone_type(drone_type),
            home=self.home,
            sitl_rate_hz=sitl_rate_hz,
            preemption=preemption,
            vdr=self.vdr,
            cloud_storage=self.storage,
            **kw,
        )
        node.drone_type = drone_type
        self.fleet.append(node)
        return node

    # -- app behaviours ------------------------------------------------------------------
    def register_app_behavior(self, package: str, installer: Callable) -> None:
        """``installer(app, sdk, vdrone)`` wires an app's runtime logic
        (SDK listeners, service calls) when its virtual drone starts."""
        self.app_behaviors[package] = installer

    def _manifests_for(self, order: Order) -> Dict[str, Tuple[AndroidManifest, AnDroneManifest]]:
        manifests = {}
        for package in order.definition.apps:
            store_app = self.app_store.download(package)
            manifests[package] = (store_app.android_manifest,
                                  store_app.androne_manifest)
        return manifests

    # -- fleet dispatch --------------------------------------------------------------------
    def dispatch_orders(self, orders: List[Order],
                        resume: bool = False) -> Dict[str, MissionReport]:
        """Group orders by requested drone type and fly each group on a
        matching drone (creating fleet drones as needed).

        Returns a report per drone type flown.
        """
        by_type: Dict[str, List[Order]] = {}
        for order in orders:
            by_type.setdefault(order.drone_type, []).append(order)
        reports: Dict[str, MissionReport] = {}
        for drone_type, group in by_type.items():
            node = next((d for d in self.fleet
                         if getattr(d, "drone_type", "standard") == drone_type
                         and not d.vdc.drones), None)
            if node is None:
                node = self.add_drone(drone_type=drone_type)
            reports[drone_type] = self.fly_orders(group, node=node,
                                                  resume=resume)
        return reports

    # -- the end-to-end flow (Figure 4) -------------------------------------------------
    def plan_orders(self, orders: List[Order], node: DroneNode,
                    planner: Optional[FlightPlanner] = None) -> List[FlightPlan]:
        """Plan ``orders`` on ``node``'s battery and confirm each order's
        operating window at the portal (Section 2).

        ``planner`` defaults to the system's; a fleet that plans each
        drone from its own RNG stream passes a per-drone one.
        """
        plans = (planner or self.planner).plan(
            [order.definition for order in orders],
            battery_j=node.battery.remaining_j * 0.8)
        for order in orders:
            for plan in plans:
                try:
                    window = plan.operating_window(order.definition.name)
                except KeyError:
                    continue
                self.portal.confirm_window(order.order_id, *window)
                break
        return plans

    def start_tenant(self, order: Order, node: DroneNode,
                     resume: bool = False) -> VirtualDrone:
        """Create the order's virtual drone on ``node`` with its apps'
        manifests, then wire every app's registered behaviour.

        With ``resume=True``, a tenant with a resumable VDR entry is
        restored from its stored diff instead of a clean image.
        """
        name = order.definition.name
        resume_diff = None
        completed = None
        if resume:
            entry = self.vdr.latest_for(name)
            if entry is not None and entry.resumable:
                resume_diff = entry.diff
                completed = entry.completed_waypoints
        vdrone = node.start_virtual_drone(
            order.definition,
            app_manifests=self._manifests_for(order),
            resume_diff=resume_diff,
            completed_waypoints=completed,
        )
        for package, app in vdrone.env.apps.items():
            installer = self.app_behaviors.get(package)
            if installer is not None:
                # Remembered so a supervision restart can rewire the
                # restored app instances (vdc.restart_virtual_drone).
                vdrone.installers[package] = installer
                installer(app, vdrone.sdk, vdrone)
        return vdrone

    def fly(self, node: DroneNode, plans: List[FlightPlan],
            orders: List[Order]) -> Generator:
        """Fly ``plans`` one after another on ``node``, swapping in a
        fresh pack between flights, as one simulation-process generator.

        Returns (as the generator's value) every flight's report merged
        into one, after :meth:`DroneNode.shutdown` has powered the node
        down at its last landing.
        """
        order_ids = {order.definition.name: order.order_id
                     for order in orders}
        report = MissionReport()
        for index, plan in enumerate(plans):
            if index:
                node.battery.swap_pack()
                # The next flight takes off after the rest of the landing
                # tick's events have run.
                yield Timeout(0)
            runner = MissionRunner(node, plan, portal=self.portal,
                                   order_ids=order_ids)
            yield from runner.steps()
            report.merge(runner.report)
        node.shutdown()
        return report

    def fly_orders(self, orders: List[Order], node: Optional[DroneNode] = None,
                   resume: bool = False) -> MissionReport:
        """Service ``orders`` on one drone: :meth:`plan_orders`,
        :meth:`start_tenant` for each order, boot, then :meth:`fly` to
        the last landing.

        With ``resume=True``, tenants with a resumable VDR entry are
        restored from their stored diff instead of a clean image.
        """
        if node is None:
            node = self.fleet[0] if self.fleet else self.add_drone()
        plans = self.plan_orders(orders, node)
        for order in orders:
            self.start_tenant(order, node, resume=resume)
        node.boot()
        return Process(self.sim, self.fly(node, plans, orders),
                       name="fly-orders").join()
