"""Recorded outcomes of ``AnDroneSystem.fly_orders``.

These digests were recorded from the code as it was while the fleet
harness and the chaos example still wired orders to flights with their
own copies of the plan / start-tenant / fly loop.  They pin that
``fly_orders`` still plans, starts and flies exactly the same way:
same mission events at the same sim times, same waypoint, tenant and
VDR outcome, same energy split, and the same portal state and
notifications for every order.

Three flights are pinned: the Section 6.6 three-tenant flight of
``test_multi_tenant_flight.py``, the weather-interrupted flight of
``test_interrupt_resume.py`` and that module's resume flight on fresh
hardware.  Each digest is the SHA-256 of :func:`outcome_json`.

The three-tenant flight flies two plans.  Its digest was recorded again
when each flight's portal notices and offload came to cover only the
tenants that flight carries: each order now hears "airborne" and
"complete" once, at its own flight, each tenant is stored in the VDR
once (``vdr-<tenant>-1``), and ``tenants_completed`` lists the first
flight's tenant before the second's.  The mission events, waypoint,
energy and interrupted outcomes are unchanged.
"""

import dataclasses
import hashlib
import json

from repro.core import AnDroneSystem
from repro.sdk.listener import WaypointListener
from tests.integration import test_interrupt_resume as resume_module
from tests.integration import test_multi_tenant_flight as multi_module

#: flight -> SHA-256 of :func:`outcome_json` for that flight.
FLY_ORDERS_DIGESTS = {
    "three-tenant":
        "798b13487dba0f434e40b48ba713b9f4d1a74ad6c999fab0c993baa2a128260e",
    "interrupted":
        "09363a6c27f1627ed7687faece08b91ade6a22af9ec11f9aa1570ee781db8206",
    "resumed":
        "5a6e80cc00dcd8e785928018097f9e847c3524e6d6a954d491523d44617c1cbe",
}

# The modules' flights, reused as fixtures of this module.
flight = multi_module.flight
story = resume_module.story


def outcome_json(report, orders) -> str:
    """Every ``MissionReport`` field plus each order's portal view."""
    return json.dumps({
        "report": dataclasses.asdict(report),
        "orders": [{
            "order_id": order.order_id,
            "state": order.state.value,
            "window_confirmed": order.window_confirmed,
            "notifications": [[note.channel, note.text]
                              for note in order.notifications],
            "result_links": list(order.result_links),
        } for order in orders],
    }, sort_keys=True)


def digest(report, orders) -> str:
    return hashlib.sha256(
        outcome_json(report, orders).encode("utf-8")).hexdigest()


def resumed_flight():
    """``test_resume_skips_completed_waypoints``: waypoint 0 serviced by
    hand on one drone, interrupted, then resumed by ``fly_orders`` on a
    second drone."""
    system = AnDroneSystem(seed=62)
    system.app_store.publish("Mapper", "maps", resume_module.ANDROID,
                             resume_module.ANDRONE)
    order = system.portal.order_virtual_drone(
        user="dave",
        waypoints=[
            {"latitude": 43.6090, "longitude": -85.8105, "altitude": 15},
            {"latitude": 43.6075, "longitude": -85.8125, "altitude": 15},
        ],
        apps=["com.mapper"], max_charge=25.0, max_duration_s=300.0)
    tenant = order.definition.name

    def installer(app, sdk, vdrone):
        raw = app.read_file("saved_state.json")
        app.memory["mapped"] = json.loads(raw)["mapped"] if raw else []
        app.on_save_instance_state = lambda: {"mapped": app.memory["mapped"]}

        class Mapper(WaypointListener):
            def waypoint_active(self, waypoint):
                app.memory["mapped"].append(waypoint.index)
                sdk.waypoint_completed()

        sdk.register_waypoint_listener(Mapper())

    system.register_app_behavior("com.mapper", installer)
    store_app = system.app_store.download("com.mapper")
    node1 = system.add_drone(seed=72)
    vdrone = node1.start_virtual_drone(
        order.definition,
        app_manifests={"com.mapper": (store_app.android_manifest,
                                      store_app.androne_manifest)})
    installer(vdrone.env.apps["com.mapper"], vdrone.sdk, vdrone)
    node1.vdc.waypoint_reached(tenant, 0)
    node1.vdc.force_finish(tenant, "inclement weather")
    node1.vdc.save_to_vdr([tenant])
    node2 = system.add_drone(seed=73)
    report = system.fly_orders([order], node=node2, resume=True)
    return report, order


def test_three_tenant_flight_matches_recorded_digest(flight):
    _, report, *orders_and_traces = flight
    orders = orders_and_traces[:3]
    assert digest(report, orders) == FLY_ORDERS_DIGESTS["three-tenant"]


def test_interrupted_flight_matches_recorded_digest(story):
    _, order, _, _, report = story
    assert digest(report, [order]) == FLY_ORDERS_DIGESTS["interrupted"]


def test_resumed_flight_matches_recorded_digest():
    report, order = resumed_flight()
    assert report.waypoints_serviced == 1
    assert digest(report, [order]) == FLY_ORDERS_DIGESTS["resumed"]
