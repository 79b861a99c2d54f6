"""Intents and broadcasts.

Android apps commonly learn about system events through broadcast
intents; AnDrone's SDK events are also delivered this way so that apps
without a live ``WaypointListener`` (e.g. manifest-registered receivers
that should wake the app) still hear about waypoint activity.  Broadcasts
are container-local: one tenant's intents never reach another's receivers
— Binder-level isolation applies to the intent bus too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


#: AnDrone's broadcast actions (mirroring the SDK callbacks).
ACTION_WAYPOINT_ACTIVE = "androne.intent.action.WAYPOINT_ACTIVE"
ACTION_WAYPOINT_INACTIVE = "androne.intent.action.WAYPOINT_INACTIVE"
ACTION_LOW_ENERGY = "androne.intent.action.LOW_ENERGY"
ACTION_LOW_TIME = "androne.intent.action.LOW_TIME"
ACTION_GEOFENCE_BREACHED = "androne.intent.action.GEOFENCE_BREACHED"
ACTION_SUSPEND_CONTINUOUS = "androne.intent.action.SUSPEND_CONTINUOUS"
ACTION_RESUME_CONTINUOUS = "androne.intent.action.RESUME_CONTINUOUS"
ACTION_BOOT_COMPLETED = "android.intent.action.BOOT_COMPLETED"


@dataclass
class Intent:
    """A broadcast intent: an action string plus extras."""

    action: str
    extras: Dict[str, Any] = field(default_factory=dict)
    sender_package: str = ""

    def get_extra(self, key: str, default: Any = None) -> Any:
        return self.extras.get(key, default)


class BroadcastReceiver:
    """Register with :meth:`IntentBus.register_receiver` to hear intents."""

    def __init__(self, callback: Callable[[Intent], None],
                 package: str = ""):
        self.callback = callback
        self.package = package
        self.received: List[Intent] = []

    def on_receive(self, intent: Intent) -> None:
        self.received.append(intent)
        self.callback(intent)


class IntentBus:
    """One container's broadcast bus."""

    def __init__(self, container: str):
        self.container = container
        self._receivers: Dict[str, List[BroadcastReceiver]] = {}
        self.broadcasts_sent = 0

    def register_receiver(self, action: str,
                          receiver: BroadcastReceiver) -> BroadcastReceiver:
        self._receivers.setdefault(action, []).append(receiver)
        return receiver

    def unregister_receiver(self, receiver: BroadcastReceiver) -> None:
        for receivers in self._receivers.values():
            if receiver in receivers:
                receivers.remove(receiver)

    def send_broadcast(self, intent: Intent) -> int:
        """Deliver to every matching receiver; returns delivery count."""
        self.broadcasts_sent += 1
        receivers = list(self._receivers.get(intent.action, ()))
        for receiver in receivers:
            receiver.on_receive(intent)
        return len(receivers)
