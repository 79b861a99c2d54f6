"""The AnDrone web portal (paper Section 2, Figure 1).

The ordering workflow: select waypoints and a time range, pick a drone
type, choose apps from the store (the portal prompts for each app's
AnDrone-manifest arguments), set a maximum billing charge (which caps the
energy allotment), and optionally request advanced direct access with
explicit device lists.  The portal emits the virtual drone JSON
definition, tracks order state through the flight, and delivers
notifications (modelled as a message log) and access information.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import repro.obs as obs
from repro.android.manifest import ManifestError
from repro.cloud.admission import AdmissionController, BusyError
from repro.cloud.app_store import AppStore
from repro.cloud.billing import BillingService
from repro.vdc.definition import (
    KNOWN_DEVICES,
    DefinitionError,
    VirtualDroneDefinition,
    WaypointSpec,
)



class PortalError(ValueError):
    """Invalid order input."""


class UnknownOrderError(PortalError, KeyError):
    """An order id the portal has never issued (or no longer tracks)."""

    def __init__(self, order_id: int):
        PortalError.__init__(self, f"unknown order id {order_id!r}")
        self.order_id = order_id

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class PortalBusyError(PortalError):
    """The portal is at capacity; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float):
        PortalError.__init__(self, message)
        self.retry_after_s = retry_after_s


class OrderState(enum.Enum):
    CONFIGURING = "configuring"
    SUBMITTED = "submitted"
    SCHEDULED = "scheduled"      # operating window confirmed
    IN_FLIGHT = "in_flight"
    COMPLETED = "completed"
    INTERRUPTED = "interrupted"  # to be resumed on a later flight
    CANCELLED = "cancelled"      # withdrawn by the user before flight


@dataclass
class Notification:
    channel: str    # "email" or "sms"
    text: str


@dataclass
class Order:
    """One user's virtual drone order."""

    order_id: int
    user: str
    drone_type: str
    definition: VirtualDroneDefinition
    max_charge: float
    estimated_flight_time_s: float
    schedule_mode: str = "flexible"
    window_confirmed: bool = False
    state: OrderState = OrderState.SUBMITTED
    notifications: List[Notification] = field(default_factory=list)
    access_info: Optional[Dict[str, Any]] = None
    result_links: List[str] = field(default_factory=list)


#: Geofence radius defaults and cap (Section 2: "up to a maximum size
#: ... with a default size provided").
DEFAULT_GEOFENCE_RADIUS_M = 30.0
MAX_GEOFENCE_RADIUS_M = 100.0


#: Drone type name -> human description (video, sensor payloads, ...).
DRONE_TYPES = {
    "standard": "quadcopter with camera and GPS",
    "video": "quadcopter specialized for stabilized video",
    "sensor": "quadcopter with environmental sensor payload",
    "dense": "high-capacity quadcopter for many concurrent tenants",
}


class WebPortal:
    """The user-facing front end of the cloud service."""

    #: the drone types users can order (:data:`DRONE_TYPES`).
    drone_types = DRONE_TYPES

    def __init__(self, app_store: AppStore, billing: BillingService,
                 admission: Optional[AdmissionController] = None):
        self.app_store = app_store
        self.billing = billing
        #: back-pressure on order submission; None = unguarded front door.
        self.admission = admission
        self.orders: Dict[int, Order] = {}
        # Per-portal, not module-global: two AnDroneSystems in the same
        # process must hand out the same tenant names for the same order
        # sequence, or seeded runs stop replaying bit-for-bit.
        self._order_ids = itertools.count(1)

    def seek_order_ids(self, next_id: int) -> None:
        """Continue numbering orders from ``next_id``.

        Callers that partition the order sequence (the fleet harness per
        drone, the city control plane per shard portal) seek to their
        partition's offset, so tenant names (``user-orderN``) stay unique
        and do not depend on how many ids earlier orders consumed.
        """
        if next_id < 1:
            raise PortalError(f"order ids start at 1, got {next_id}")
        self._order_ids = itertools.count(next_id)

    def _get_order(self, order_id: int) -> Order:
        order = self.orders.get(order_id)
        if order is None:
            raise UnknownOrderError(order_id)
        return order

    # -- ordering (basic service) ----------------------------------------------------
    def order_virtual_drone(
        self,
        user: str,
        waypoints: List[Dict[str, float]],
        drone_type: str = "standard",
        apps: Optional[List[str]] = None,
        app_args: Optional[Dict[str, Dict[str, Any]]] = None,
        max_charge: float = 25.0,
        max_duration_s: float = 600.0,
        geofence_radius_m: Optional[float] = None,
        extra_devices: Optional[Dict[str, str]] = None,
        schedule_mode: str = "flexible",
    ) -> Order:
        """Order a virtual drone; returns the submitted order.

        ``extra_devices`` (advanced usage) maps device name to access type
        ("waypoint" or "continuous") beyond what the apps' manifests
        request.

        ``schedule_mode`` is "immediate" (the user will take over as soon
        as the drone reaches the first waypoint, so the window estimate is
        sent right away) or "flexible" (the window is proposed a day in
        advance for confirmation) — Section 2's two advanced flows.
        """
        if schedule_mode not in ("immediate", "flexible"):
            raise PortalError(f"bad schedule mode {schedule_mode!r}")
        if self.admission is not None:
            try:
                self.admission.admit(user)
            except BusyError as busy:
                obs.counter("portal.rejected", user=user).inc()
                raise PortalBusyError(
                    str(busy), retry_after_s=busy.retry_after_s) from busy
        try:
            return self._submit_order(
                user, waypoints, drone_type, apps, app_args, max_charge,
                max_duration_s, geofence_radius_m, extra_devices,
                schedule_mode)
        except PortalError:
            # Invalid orders never occupy a pending slot.
            if self.admission is not None:
                self.admission.release()
            raise

    def _submit_order(
        self,
        user: str,
        waypoints: List[Dict[str, float]],
        drone_type: str,
        apps: Optional[List[str]],
        app_args: Optional[Dict[str, Dict[str, Any]]],
        max_charge: float,
        max_duration_s: float,
        geofence_radius_m: Optional[float],
        extra_devices: Optional[Dict[str, str]],
        schedule_mode: str,
    ) -> Order:
        if drone_type not in self.drone_types:
            raise PortalError(f"unknown drone type {drone_type!r}: "
                              f"choose from {sorted(self.drone_types)}")
        if not waypoints:
            raise PortalError("select at least one waypoint")
        radius = geofence_radius_m if geofence_radius_m is not None \
            else DEFAULT_GEOFENCE_RADIUS_M
        if radius > MAX_GEOFENCE_RADIUS_M:
            raise PortalError(
                f"geofence radius {radius} m exceeds the maximum "
                f"{MAX_GEOFENCE_RADIUS_M} m")
        specs = [WaypointSpec.from_json({**w, "max-radius": w.get("max-radius", radius)})
                 for w in waypoints]
        # Collect device needs from app manifests + validate app args.
        waypoint_devices: List[str] = []
        continuous_devices: List[str] = []
        for package in apps or []:
            store_app = self.app_store.get(package)
            supplied = (app_args or {}).get(package, {})
            try:
                store_app.androne_manifest.validate_args(supplied)
            except ManifestError as bad:
                raise PortalError(f"app {package!r}: {bad}") from bad
            waypoint_devices += store_app.androne_manifest.waypoint_devices()
            continuous_devices += store_app.androne_manifest.continuous_devices()
        for device, access in (extra_devices or {}).items():
            if device not in KNOWN_DEVICES:
                raise PortalError(f"unknown device {device!r}")
            if access == "continuous":
                continuous_devices.append(device)
            elif access == "waypoint":
                waypoint_devices.append(device)
            else:
                raise PortalError(f"bad access type {access!r}")
        energy_j = self.billing.max_charge_to_energy_j(max_charge)
        order_id = next(self._order_ids)
        try:
            definition = VirtualDroneDefinition(
                name=f"{user}-order{order_id}",
                waypoints=specs,
                max_duration_s=max_duration_s,
                energy_allotted_j=energy_j,
                continuous_devices=sorted(set(continuous_devices)),
                waypoint_devices=sorted(set(waypoint_devices)),
                apps=list(apps or []),
                app_args=dict(app_args or {}),
            )
        except DefinitionError as bad:
            raise PortalError(str(bad)) from bad
        order = Order(
            order_id=order_id,
            user=user,
            drone_type=drone_type,
            definition=definition,
            max_charge=max_charge,
            estimated_flight_time_s=self.billing.estimate_flight_time_s(energy_j),
            schedule_mode=schedule_mode,
        )
        self.orders[order.order_id] = order
        obs.counter("portal.orders", user=user).inc()
        return order

    def user_confirms_window(self, order_id: int) -> None:
        """Flexible orders: the user accepts the proposed window."""
        order = self._get_order(order_id)
        order.window_confirmed = True

    def cancel_order(self, order_id: int) -> Order:
        """Withdraw an order that has not flown yet.

        Unknown ids raise :class:`UnknownOrderError`; cancelling twice
        (or cancelling an order already in flight or done) raises
        :class:`PortalError` naming the offending state.
        """
        order = self._get_order(order_id)
        if order.state is OrderState.CANCELLED:
            raise PortalError(f"order {order_id} is already cancelled")
        if order.state not in (OrderState.CONFIGURING, OrderState.SUBMITTED,
                               OrderState.SCHEDULED):
            raise PortalError(
                f"order {order_id} cannot be cancelled in state "
                f"{order.state.value!r}")
        order.state = OrderState.CANCELLED
        order.notifications.append(Notification("email", "order cancelled"))
        obs.counter("portal.cancellations", user=order.user).inc()
        if self.admission is not None:
            self.admission.release()
        return order

    # -- lifecycle notifications (driven by the planner / mission runner) ----------------
    def confirm_window(self, order_id: int, start_s: float, end_s: float) -> None:
        order = self._get_order(order_id)
        order.state = OrderState.SCHEDULED
        window = f"estimated operating window {start_s:.0f}s-{end_s:.0f}s after launch"
        if order.schedule_mode == "immediate":
            # Immediate usage: the estimate goes out right away so the
            # user can take over when the drone arrives (Section 2).
            order.window_confirmed = True
            order.notifications.append(Notification("sms", window))
        else:
            order.notifications.append(Notification(
                "email", window + " — please confirm"))

    def flight_started(self, order_id: int, ip: str, port: int,
                       how: str = "ssh via per-container VPN") -> None:
        """Take-off: send the access information (Section 2)."""
        order = self._get_order(order_id)
        order.state = OrderState.IN_FLIGHT
        order.access_info = {"ip": ip, "port": port, "connect": how}
        order.notifications.append(Notification(
            "sms", f"your virtual drone is airborne: {ip}:{port}"))

    def flight_interrupted(self, order_id: int) -> None:
        """The flight ended before the task did; the virtual drone was
        checked into the VDR to resume on a later flight.

        Unlike :meth:`flight_completed`, the admission slot is **not**
        released: the order is still occupying service capacity (its
        state lives in the VDR awaiting another flight), and releasing
        here would double-release when the resumed flight completes.
        """
        order = self._get_order(order_id)
        order.state = OrderState.INTERRUPTED
        order.notifications.append(Notification(
            "email", "flight over before task completion; your virtual "
                     "drone will resume on a later flight"))

    def flight_completed(self, order_id: int, result_links: List[str],
                         interrupted: bool = False) -> None:
        order = self._get_order(order_id)
        order.state = OrderState.INTERRUPTED if interrupted else OrderState.COMPLETED
        if self.admission is not None:
            self.admission.release()
        order.result_links = list(result_links)
        body = "flight complete"
        if interrupted:
            body += " (task interrupted; will resume on a later flight)"
        if result_links:
            body += "; your files: " + ", ".join(result_links)
        order.notifications.append(Notification("email", body))
