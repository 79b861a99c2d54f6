#!/usr/bin/env python3
"""Chaos flight: the quickstart mission flown through a gauntlet of faults.

Every fault kind the injection engine knows fires during one two-waypoint
survey flight, and every one of them is recovered by the matching
resilience mechanism:

===================  ====================================================
Fault                Recovery
===================  ====================================================
link-latency         MAVLink tolerates delay; VFC telemetry keeps flowing
link-loss            VFC holds position (LOITER) and resumes on link-up
sensor-dropout       HAL bridge serves the last good sample to ArduPilot
binder-failure       retry with exponential backoff on binder callers
service-error        app-level retry of transient service replies
container-crash      VDC heartbeat supervision restarts from checkpoint
vdc-restart          enforcement/supervision re-arm after the downtime
===================  ====================================================

The run is fully deterministic: faults are scheduled on the simulation
clock from a seeded :class:`FaultPlan`, so two runs with the same seed
produce identical traces (``make chaos`` checks exactly that).
"""

from __future__ import annotations

import os
import sys

import repro.obs as obs
from repro.binder.driver import TransientBinderError
from repro.core import AnDroneSystem
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.mavproxy.server import VfcServer
from repro.net.link import wifi
from repro.net.network import Network
from repro.sdk.listener import WaypointListener
from repro.sim import Process

PACKAGE = "com.example.surveyor"
SHOTS_PER_WAYPOINT = 5

ANDROID_MANIFEST = f"""
<manifest package="{PACKAGE}">
  <uses-permission name="android.permission.CAMERA"/>
  <uses-permission name="androne.permission.FLIGHT_CONTROL"/>
</manifest>
"""

ANDRONE_MANIFEST = f"""
<androne-manifest package="{PACKAGE}">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="flight-control" type="waypoint"/>
</androne-manifest>
"""


def build_fault_plan(seed: int, tenant: str = "vd1") -> FaultPlan:
    """One of every fault kind, timed against the mission profile.

    The survey reaches waypoint 0 around t=20 s and needs ~12 s of
    photography per waypoint (deterministic for a given system seed), so
    the waypoint-dependent faults land inside the servicing windows and
    the crash lands before any seed can have finished both waypoints.
    """
    plan = FaultPlan(seed=seed)
    # Approach phase: a latency spike and a GPS outage the HAL rides out.
    plan.add(FaultKind.LINK_LATENCY, target="gcs", at_s=4.0, duration_s=4.0,
             params={"factor": 8.0})
    plan.add(FaultKind.SENSOR_DROPOUT, target="gps", at_s=6.0, duration_s=2.0)
    # Waypoint 0 servicing: flaky binder, a camera outage, then the radio
    # drops long enough for the VFC to hold position.
    plan.add(FaultKind.BINDER_FAILURE, at_s=22.0, duration_s=3.0,
             params={"rate": 0.35})
    plan.add(FaultKind.SERVICE_ERROR, target="CameraService",
             at_s=26.0, duration_s=3.0)
    plan.add(FaultKind.LINK_LOSS, target=tenant, at_s=30.0, duration_s=4.0)
    # Mid-mission (no seed finishes both waypoints this early): the tenant
    # container crashes outright and is restarted from its latest
    # waypoint-boundary checkpoint.
    plan.add(FaultKind.CONTAINER_CRASH, target=tenant, at_s=40.0)
    # Transit: the VDC daemon itself dies and is restarted by init.
    plan.add(FaultKind.VDC_RESTART, at_s=46.0, params={"downtime_s": 1.0})
    return plan


def _install_surveyor(app, sdk, vdrone):
    """The survey app: photos every 3 s, resilient to transient faults.

    Progress lives in ``app.memory`` so a checkpoint-restored instance
    continues where the crashed one stopped instead of starting over.
    """
    sim = vdrone.container.kernel.sim

    class Surveyor(WaypointListener):
        def waypoint_active(self, waypoint):
            self.index = waypoint.index
            self.take_photo()

        def _alive(self):
            # This instance died with its container: a restored instance
            # (new app object, same memory) has taken over.
            return (not app.binder.closed
                    and vdrone.env.apps.get(PACKAGE) is app)

        def take_photo(self):
            if not self._alive():
                return
            key = f"shots@{self.index}"
            try:
                reply = app.call_service("CameraService", "capture")
            except TransientBinderError:
                reply = {"transient": True}
            if reply.get("denied"):
                return
            if reply.get("status") != "ok":
                sim.after(1_000_000, self.take_photo)   # transient: retry
                return
            count = app.memory.get(key, 0) + 1
            app.memory[key] = count
            path = app.write_file(f"wp{self.index}-shot{count}.jpg",
                                  f"jpeg:wp{self.index}:{count}")
            sdk.mark_file_for_user(path)
            if count >= SHOTS_PER_WAYPOINT:
                sdk.waypoint_completed()
            else:
                sim.after(3_000_000, self.take_photo)

    sdk.register_waypoint_listener(Surveyor())


def run_chaos_mission(seed: int = 42, verbose: bool = True):
    """Fly the chaos mission; returns a summary dict (for tests/bench)."""
    def say(*parts):
        if verbose:
            print(*parts)

    system = AnDroneSystem(seed=seed)
    system.app_store.publish("Chaos Surveyor", "surveys under fire",
                             ANDROID_MANIFEST, ANDRONE_MANIFEST)
    order = system.portal.order_virtual_drone(
        user="mallory",
        waypoints=[
            {"latitude": 43.6092, "longitude": -85.8107,
             "altitude": 15, "max-radius": 30},
            {"latitude": 43.6096, "longitude": -85.8102,
             "altitude": 15, "max-radius": 30},
        ],
        apps=[PACKAGE],
        max_charge=25.0,
        max_duration_s=300.0,
    )
    name = order.definition.name
    node = system.add_drone()
    # Supervision on before tenants exist: every created container gets a
    # checkpoint immediately and at each waypoint boundary.
    node.vdc.enable_supervision()
    system.register_app_behavior(PACKAGE, _install_surveyor)

    # The fly_orders steps, opened up so the injector and ground station
    # can attach before the mission starts.
    plans = system.plan_orders([order], node)
    vdrone = system.start_tenant(order, node)

    # The tenant's ground station, so link faults hit real MAVLink traffic.
    network = Network(system.sim, system.rng)
    server = VfcServer(vdrone.vfc, network, "10.99.1.2:5760", "user:14550",
                       link=wifi())
    node.proxy.start_telemetry()

    plan = build_fault_plan(seed, tenant=name)
    injector = (FaultInjector(system.sim, plan)
                .attach_node(node)
                .bind_link("gcs", server.connection.link)
                .start())

    node.boot()
    report = Process(system.sim, system.fly(node, plans, [order])).join()

    say(f"flight complete in {report.duration_s:.0f} s (sim time), "
        f"{report.waypoints_serviced} waypoint(s) serviced")
    injected = [e for e in injector.log if e["action"] == "inject"]
    cleared = [e for e in injector.log if e["action"] == "clear"]
    for entry in injector.log:
        say(f"  [fault] t={entry['t'] / 1e6:7.2f}s {entry['action']:7s} "
            f"{entry['kind']}" + (f" -> {entry['target']}"
                                  if entry['target'] else ""))
    held = node.sitl.autopilot.sensors.held_samples \
        if hasattr(node.sitl.autopilot.sensors, "held_samples") else 0
    say(f"  sensor samples held during dropout: {held}")
    say(f"  container restarts: {node.vdc.restart_counts.get(name, 0)}")
    say(f"  radio drops on GCS link: {server.connection.dropped}")

    summary = {
        "seed": seed,
        "completed": name in report.tenants_completed,
        "waypoints_serviced": report.waypoints_serviced,
        "duration_s": report.duration_s,
        "faults_injected": len(injected),
        "faults_cleared": len(cleared),
        "faults_planned": len(plan.faults),
        "container_restarts": node.vdc.restart_counts.get(name, 0),
        "vfc_holds": vdrone.vfc.link_holds,
        "held_samples": held,
        "photos": system.storage.list_files(name),
        "fault_log": injector.log,
    }
    return summary


def main() -> int:
    seed = int(os.environ.get("CHAOS_SEED", "42"))
    summary = run_chaos_mission(seed=seed)
    durable = [f for f in summary["fault_log"]
               if f["action"] == "clear"]
    ok = (summary["completed"]
          and summary["faults_injected"] == summary["faults_planned"]
          and summary["faults_cleared"] == len(durable)
          and summary["container_restarts"] >= 1)
    print(f"\nchaos mission {'SURVIVED' if ok else 'FAILED'}: "
          f"{summary['faults_injected']}/{summary['faults_planned']} faults "
          f"injected, {summary['faults_cleared']} cleared, "
          f"{len(summary['photos'])} photos delivered")

    trace_path = os.environ.get(obs.TRACE_ENV)
    if trace_path:
        written = obs.export_jsonl(trace_path)
        print(f"telemetry: {written} records -> {trace_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
