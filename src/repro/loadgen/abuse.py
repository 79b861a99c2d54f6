"""Adversarial-tenant overlays for the fleet harness.

Three attacker roles, all seeded and deterministic, staged on top of the
honest workloads by :class:`~repro.loadgen.harness.FleetHarness` when a
scenario's ``attack_mix`` asks for them:

* :func:`run_order_storm` — a burst of bogus portal orders from one
  abusive user, fired *before* honest users order.  Unguarded, the
  orders occupy the admission controller's bounded pending queue (slots
  only free on flight completion, which bogus orders never reach) and
  honest orders bounce with ``PortalBusyError``.  With the
  :class:`~repro.security.guards.RateGuard` at the order edge, the storm
  is refused past the burst allowance and honest users are untouched.

* :class:`MavlinkSpammer` — an off-path network attacker.  The simulated
  network is unauthenticated by design (any code can open a channel to
  ``vfc:<tenant>:5760``), so in ``spam`` mode it injects spoofed
  velocity ``SetPositionTarget`` commands at a victim tenant's VFC —
  whitelisted under the standard template, so an *unprotected* ACTIVE
  tenant gets dragged toward its geofence and into recovery loops.  In
  ``replay`` mode it taps frames off the victim's ground-station
  endpoint and re-sends them verbatim.  A
  :class:`~repro.security.channel.TenantSession` kills both: spoofed
  frames fail to authenticate (no session framing), replays trip the
  sliding window.

* :func:`flood_installer` — the binder-flood *tenant*: a legitimately
  ordered virtual drone whose app hammers device services at its
  waypoint and never calls ``waypoint_completed``, squatting on the
  shared drone until its allotment expires.  The binder-edge rate guard
  starves the flood, the anomaly detector flags it, and the simplex
  controller demotes the tenant so honest tenants fly instead.

Attack apps follow the same installer contract and liveness idiom as
:mod:`repro.loadgen.workloads`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import repro.obs as obs
from repro.cloud.portal import PortalBusyError
from repro.loadgen.workloads import STORM_CALLS, _alive, _call
from repro.mavlink.codec import MavlinkCodec
from repro.mavlink.messages import SetPositionTarget
from repro.net.link import wifi
from repro.sdk.listener import WaypointListener
from repro.security.errors import RateLimitError
from repro.sim import Periodic

FLOOD_PACKAGE = "com.loadgen.flood"
FLOOD_TITLE = ("Binder Flooder", "adversarial device-service flood")

#: Velocity-only type mask (position bits ignored, velocity bits used) —
#: the one whitelisted message class that moves an ACTIVE vehicle.
_VELOCITY_MASK = 0x0007

_FLOOD_MANIFESTS = (
    """
<manifest package="com.loadgen.flood">
  <uses-permission name="android.permission.CAMERA"/>
  <uses-permission name="android.permission.ACCESS_FINE_LOCATION"/>
  <uses-permission name="android.permission.BODY_SENSORS"/>
</manifest>
""",
    """
<androne-manifest package="com.loadgen.flood">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="gps" type="waypoint"/>
  <uses-permission name="sensors" type="waypoint"/>
</androne-manifest>
""",
)


def flood_manifests():
    """(android_xml, androne_xml) for the flood app."""
    return _FLOOD_MANIFESTS


def flood_installer(scenario) -> Callable:
    """Bursts of 16 mixed device-service calls every 100 ms at the
    waypoint (8x the honest storm's rate), never completing — the
    resource-exhaustion half of the adversary."""

    def install(app, sdk, vdrone):
        sim = vdrone.container.kernel.sim

        class Flood(WaypointListener):
            at_waypoint = False

            def __init__(self):
                self.bursts = Periodic(sim, 100_000, self.burst)

            def waypoint_active(self, waypoint):
                self.at_waypoint = True
                self.bursts.start()

            def waypoint_inactive(self, waypoint):
                # Demoted or allotment-expired: the squat is over.
                self.at_waypoint = False

            def burst(self):
                if not _alive(app, vdrone) or not self.at_waypoint:
                    self.bursts.stop()
                    return
                fired = app.memory.get("flood", 0)
                for i in range(16):
                    if _call(app, "binder-flood", *STORM_CALLS[
                            (fired + i) % len(STORM_CALLS)]) == "denied":
                        # Quarantined at the service layer too.
                        self.bursts.stop()
                        return
                app.memory["flood"] = fired + 16
                # Never waypoint_completed(): squat until thrown off.

        sdk.register_waypoint_listener(Flood())

    return install


class OrderStormReport:
    """What happened to the bogus-order burst."""

    def __init__(self):
        self.submitted = 0
        self.admitted = 0
        self.rejected_busy = 0
        self.rejected_rate = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def run_order_storm(portal, scenario, user: str = "mallory",
                    first_order_id: int = 90_001) -> OrderStormReport:
    """Fire ``scenario.order_storm_orders`` bogus orders at the portal.

    Order ids are parked in a high partition so honest tenant names are
    untouched; the caller re-seeks the counter afterwards (the harness's
    per-drone build does so anyway).  Admitted orders never fly, so
    each one permanently occupies an admission pending slot — the whole
    point of the attack.
    """
    portal.seek_order_ids(first_order_id)
    report = OrderStormReport()
    waypoint = [{"latitude": 1.2833, "longitude": 103.8500, "altitude": 15}]
    for _ in range(scenario.order_storm_orders):
        report.submitted += 1
        try:
            portal.order_virtual_drone(
                user=user, waypoints=list(waypoint),
                drone_type=scenario.drone_type,
                max_charge=1.0, max_duration_s=30.0)
        except RateLimitError:  # repro-lint: disable=flow-exceptions
            # Deliberate order storm: rejections are the measured
            # outcome, tallied into the abuse.order_storm event below.
            report.rejected_rate += 1
        except PortalBusyError:
            report.rejected_busy += 1
        else:
            report.admitted += 1
    obs.event("abuse.order_storm", user=user, submitted=report.submitted,
              admitted=report.admitted, rejected_rate=report.rejected_rate,
              rejected_busy=report.rejected_busy)
    return report


class MavlinkSpammer:
    """An off-path attacker pointed at one victim tenant's endpoints.

    ``mode="spam"``: encode spoofed velocity targets and fire them at
    the victim's VFC server address at ``rate_hz``.
    ``mode="replay"``: tap every frame delivered to the victim's ground
    station and re-send captured frames verbatim at ``rate_hz``.
    """

    def __init__(self, sim, network, tenant: str, mode: str = "spam",
                 rate_hz: float = 50.0, start_s: float = 6.0):
        if mode not in ("spam", "replay"):
            raise ValueError(f"spammer mode must be spam|replay, got {mode!r}")
        self.sim = sim
        self.tenant = tenant
        self.mode = mode
        self.period_us = max(1, int(1e6 / rate_hz))
        self.start_us = int(start_s * 1e6)
        self.sent = 0
        self.captured: List = []
        self._replay_at = 0
        self._loop = Periodic(sim, self.period_us, self._send,
                              key="abuse.spam")
        self._codec = MavlinkCodec(sysid=66, compid=13)
        if mode == "spam":
            target = f"vfc:{tenant}:5760"
        else:
            target = f"gcs:{tenant}:14550"
            self._tap(network.endpoint(target))
        self.channel = network.connect(
            f"attacker:{tenant}:{mode}", target, link=wifi())

    def _tap(self, endpoint) -> None:
        inner = endpoint.on_receive

        def capture(payload, source):
            # Only record the victim's own traffic, not our replays —
            # re-capturing them would launder fresh sends into "new"
            # captures forever.
            if not source.startswith("attacker:"):
                self.captured.append(payload)
            if inner is not None:
                inner(payload, source)

        endpoint.on_receive = capture

    def start(self) -> "MavlinkSpammer":
        self._loop.start(delay=max(0, self.start_us - self.sim.now))
        return self

    def stop(self) -> None:
        self._loop.stop()

    def _send(self) -> None:
        if self.mode == "spam":
            frame = self._codec.encode(SetPositionTarget(
                vx=12.0, vy=0.0, vz=0.0, type_mask=_VELOCITY_MASK))
            self.channel.send(frame, nbytes=len(frame))
            self.sent += 1
            obs.counter("abuse.injected", tenant=self.tenant,
                        mode=self.mode).inc()
        elif self.captured:
            frame = self.captured[self._replay_at % len(self.captured)]
            self._replay_at += 1
            self.channel.send(frame)
            self.sent += 1
            obs.counter("abuse.injected", tenant=self.tenant,
                        mode=self.mode).inc()
