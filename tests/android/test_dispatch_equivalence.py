"""Service dispatch vs the recorded reference replies, reply for reply.

``SystemService.handle_txn`` dispatches through memoized lanes
(interned counters, ``to_dict`` payloads).  The replies of the plain
getattr/``asdict`` dispatch body it replaced were recorded in
``fixtures/dispatch_replies.json``: the storm workload, unknown codes,
a policy denial and an instance-level op override.  A seeded drone rig
must reproduce them exactly, and the lane memo must keep honoring
instance-level op overrides (fault and security tests monkey-patch
``op_*`` methods on live services).
"""

import json
from pathlib import Path

import pytest

from repro.loadgen import FleetScenario, FleetHarness
from repro.loadgen.workloads import STORM_CALLS
from repro.sched import make_tie_breaker

#: same-tick schedules the recorded replies are re-proven under.
EXPLORED_SCHEDULES = [0, 1, 2, 3, 4]

#: replies recorded from the reference dispatch body.  Tuples in the
#: live replies are compared through their JSON form.
RECORDED = json.loads(
    (Path(__file__).parent / "fixtures" / "dispatch_replies.json")
    .read_text())


def as_recorded(reply):
    return json.loads(json.dumps(reply))


def make_rig(waypoint: bool = True):
    harness = FleetHarness(FleetScenario(
        seed=42, drones=1, tenants_per_drone=1, workload_mix=["storm"]))
    slot = harness.slots[0]
    node = slot.node
    tenant = slot.tenants[0]
    if waypoint:
        node.vdc.waypoint_reached(tenant)
    app = next(iter(node.vdc.drones[tenant].env.apps.values()))
    return node, app


def test_storm_replies_identical_across_configs():
    _, app = make_rig()
    for i, expected in enumerate(RECORDED["storm"]):
        svc, code, data = STORM_CALLS[i % len(STORM_CALLS)]
        reply = app.call_service(svc, code, dict(data))
        assert as_recorded(reply) == expected, (svc, code, i)


@pytest.mark.parametrize("schedule", EXPLORED_SCHEDULES)
def test_storm_replies_identical_under_explored_schedules(schedule):
    """The replies must not depend on same-tick event order.

    The rig advances its simulator under an explored schedule between
    call batches, so the background fleet events interleave in a
    permuted order; the reference path gave the same replies under
    every one of these schedules.
    """
    node, app = make_rig()
    node.sim.set_tie_breaker(make_tie_breaker("random", 42, schedule))
    try:
        for i, expected in enumerate(RECORDED["storm_with_sim_advance"]):
            svc, code, data = STORM_CALLS[i % len(STORM_CALLS)]
            reply = app.call_service(svc, code, dict(data))
            assert as_recorded(reply) == expected, (svc, code, i, schedule)
            if i % 10 == 9:
                node.sim.run_for(50_000)
    finally:
        node.sim.set_tie_breaker(None)


@pytest.mark.parametrize("svc", ["CameraService", "SensorService",
                                 "LocationManagerService"])
def test_unknown_code_error_identical(svc):
    _, app = make_rig()
    reply = app.call_service(svc, "no_such_op", {})
    assert reply == RECORDED["unknown_code"][svc]
    assert "error" in reply


def test_policy_denial_identical_without_waypoint():
    """Before waypoint_reached the device policy denies camera capture."""
    _, app = make_rig(waypoint=False)
    reply = app.call_service("CameraService", "capture", {})
    assert reply == RECORDED["policy_denial"]
    assert reply["denied"] is True


def test_fast_lane_honors_instance_op_override():
    """The lane memo must not capture bound methods: security/fault tests
    monkey-patch ``op_*`` on live service instances."""
    node, app = make_rig()
    first, poisoned, restored = RECORDED["op_override"]
    # The first call warms the lane.
    assert as_recorded(app.call_service("CameraService", "capture", {})) \
        == first
    service = node.device_env.system_server.services["CameraService"]
    service.op_capture = lambda txn: {"status": "ok", "poisoned": True}
    assert app.call_service("CameraService", "capture", {}) == poisoned
    del service.op_capture
    assert as_recorded(app.call_service("CameraService", "capture", {})) \
        == restored
