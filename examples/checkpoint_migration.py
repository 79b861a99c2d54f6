#!/usr/bin/env python3
"""Migrating a virtual drone: activity lifecycle vs transparent checkpoint.

AnDrone migrates virtual drones between flights with the Android activity
lifecycle: apps save their state in onSaveInstanceState() and restore it
on the next launch.  The paper notes checkpoint-based migration (Zap,
CRIU) "is likely feasible" — this example runs both side by side on the
same interrupted mapping task and shows the trade:

* a COOPERATIVE app survives either path;
* an UNCOOPERATIVE app (never implements onSaveInstanceState) loses its
  progress under lifecycle migration but survives the checkpoint;
* the checkpoint image is larger, because it carries process memory.
"""

import json

from repro.android.manifest import AndroidManifest, AnDroneManifest
from repro.android.permissions import Permission
from repro.core.drone_node import DroneNode
from repro.flight.geo import GeoPoint
from repro.vdc.definition import VirtualDroneDefinition, WaypointSpec

HOME = GeoPoint(43.6084298, -85.8110359, 0.0)


def manifests():
    android = AndroidManifest("com.example.survey", [
        Permission.CAMERA, Permission.FLIGHT_CONTROL])
    androne = AnDroneManifest.parse(
        '<androne-manifest package="com.example.survey">'
        '<uses-permission name="camera" type="waypoint"/>'
        '<uses-permission name="flight-control" type="waypoint"/>'
        "</androne-manifest>")
    return android, androne


def start(node, name):
    definition = VirtualDroneDefinition(
        name=name,
        waypoints=[WaypointSpec(43.6090, -85.8107, 15.0, 30.0)],
        max_duration_s=300.0, energy_allotted_j=30_000.0,
        waypoint_devices=["camera", "flight-control"],
        apps=["com.example.survey"])
    vdrone = node.start_virtual_drone(
        definition, app_manifests={"com.example.survey": manifests()})
    return definition, vdrone, vdrone.env.apps["com.example.survey"]


def main() -> None:
    node1 = DroneNode(seed=201, home=HOME, sitl_rate_hz=100.0)

    # Two tenants doing the same work; only one of them cooperates with
    # the lifecycle.
    d_coop, vd_coop, app_coop = start(node1, "cooperative")
    d_rude, vd_rude, app_rude = start(node1, "uncooperative")

    for app in (app_coop, app_rude):
        app.memory["mapped_cells"] = [[1, 2], [3, 4], [5, 6]]
        app.memory["photos_taken"] = 42
    # Only the cooperative app implements onSaveInstanceState().
    app_coop.on_save_instance_state = lambda: dict(app_coop.memory)

    print("mid-task state:", app_coop.memory)

    # --- Storm: the flight is interrupted.  Capture both ways. ---
    checkpoint_rude = node1.vdc.checkpoint_virtual_drone("uncooperative")
    checkpoint_coop = node1.vdc.checkpoint_virtual_drone("cooperative")
    # Lifecycle path (what save_to_vdr does):
    app_coop.stop()
    app_rude.stop()
    _, diff_coop = node1.runtime.export("cooperative")
    _, diff_rude = node1.runtime.export("uncooperative")

    print(f"\nimage sizes: lifecycle diff {diff_coop.size_bytes()} B, "
          f"checkpoint {checkpoint_coop.size_bytes()} B")

    # --- Next day, a different physical drone. ---
    node2 = DroneNode(seed=202, home=HOME, sitl_rate_hz=100.0)

    # Lifecycle restore.
    restored_coop = node2.start_virtual_drone(
        d_coop, app_manifests={"com.example.survey": manifests()},
        resume_diff=diff_coop)
    restored_rude = node2.start_virtual_drone(
        d_rude, app_manifests={"com.example.survey": manifests()},
        resume_diff=diff_rude)
    for label, vdrone in (("cooperative", restored_coop),
                          ("uncooperative", restored_rude)):
        raw = vdrone.env.apps["com.example.survey"].read_file("saved_state.json")
        state = json.loads(raw) if raw else {}
        verdict = "progress intact" if state.get("photos_taken") == 42 \
            else "PROGRESS LOST"
        print(f"lifecycle restore, {label:13s}: saved_state={state or '{}'} "
              f"-> {verdict}")

    # Checkpoint restore (needs fresh hardware: container names clash).
    node3 = DroneNode(seed=203, home=HOME, sitl_rate_hz=100.0)
    ck = node3.vdc.restore_virtual_drone(checkpoint_rude, d_rude)
    app = ck.env.apps["com.example.survey"]
    print(f"checkpoint restore, uncooperative: memory={app.memory} "
          f"-> progress intact, state={app.state.value}, "
          f"no lifecycle callbacks ran")


if __name__ == "__main__":
    main()
