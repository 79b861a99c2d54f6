"""Batched async (oneway) delivery: one event per tick, not per message.

``transact_async`` rides every message queued within a simulator tick on
ONE flush event through the heap.  These tests pin down that contract
and hold the replies, their order and the handler effects to the
records in ``fixtures/async_replies.json``, captured from the
per-message delivery path the batched flush replaced.  Each contract is
checked with telemetry on and off: delivery must not depend on whether
its counters are live.
"""

import json
from pathlib import Path

import pytest

from repro.binder import BinderDriver, ServiceManager
from repro.binder.driver import BinderError
from repro.kernel.namespaces import NamespaceSet
import repro.obs as obs
from repro.sched import make_tie_breaker
from repro.sim import Simulator

#: same-tick schedules every ordering contract is re-checked under
#: (index into the seeded random tie-breaker family, see repro.sched).
EXPLORED_SCHEDULES = [0, 1, 2, 3, 4]

#: replies and handler calls recorded from the per-message path.
RECORDED = json.loads(
    (Path(__file__).parent / "fixtures" / "async_replies.json").read_text())


@pytest.fixture
def registry():
    registry = obs.enable()
    yield registry
    obs.reset()


@pytest.fixture
def telemetry(request):
    """``True`` runs the test with a live registry, ``False`` without."""
    if request.param:
        obs.enable()
    yield request.param
    obs.reset()


def make_rig():
    """A driver bound to a sim with one echo service and a client."""
    driver = BinderDriver(device_container_name="device")
    sim = Simulator()
    driver.bind_sim(sim)
    ns = NamespaceSet("vd1")
    server = driver.open(100, 1000, "vd1", ns.device_ns)
    manager = ServiceManager(server, is_device_container=False)
    calls = []

    def handler(txn):
        calls.append([txn.code, dict(txn.data)])
        return {"status": "ok", "echo": txn.data.get("x")}

    manager.register("Echo", server.create_node(handler, "echo"))
    client = driver.open(101, 1000, "vd1", ns.device_ns)
    handle = client.transact(0, "get", {"name": "Echo"})["service"]
    return driver, sim, server, client, handle, calls


def test_batched_mode_uses_one_event_for_many_messages(registry):
    driver, sim, _, client, handle, calls = make_rig()
    replies = []
    for i in range(10):
        client.transact_async(handle, "ping", {"x": i},
                              on_reply=replies.append)
    assert driver.async_pending() == 10
    executed = sim.run(until=sim.now)
    assert executed == 1, "a whole tick's messages must share one event"
    assert driver.async_pending() == 0
    assert replies == RECORDED["pings"]["replies"]
    assert calls == RECORDED["pings"]["calls"]
    assert registry.counter("binder.async_batches").value == 1
    histo = registry.histogram("binder.async_batch_size", unit="msgs")
    assert histo.count == 1


def _mixed_codes(schedule=None):
    _, sim, _, client, handle, calls = make_rig()
    replies = []
    for i in range(25):
        client.transact_async(handle, f"op{i % 3}", {"x": i},
                              on_reply=replies.append)
    if schedule is not None:
        sim.set_tie_breaker(make_tie_breaker("random", 42, schedule))
    sim.run(until=sim.now)
    return {"replies": replies, "calls": calls}


@pytest.mark.parametrize("telemetry", [True, False], indirect=True)
def test_modes_agree_on_replies_order_and_effects(telemetry):
    assert _mixed_codes() == RECORDED["mixed_codes"]


@pytest.mark.parametrize("telemetry", [True, False], indirect=True)
def test_dead_node_becomes_error_reply_not_exception(telemetry):
    _, sim, server, client, handle, _ = make_rig()
    replies = []
    client.transact_async(handle, "ping", {"x": 1}, on_reply=replies.append)
    server.close()
    client.transact_async(handle, "ping", {"x": 2}, on_reply=replies.append)
    sim.run(until=sim.now)
    assert replies == RECORDED["dead_node"]


def test_messages_sent_during_flush_ride_the_next_event(registry):
    driver = BinderDriver(device_container_name="device")
    sim = Simulator()
    driver.bind_sim(sim)
    ns = NamespaceSet("vd1")
    server = driver.open(100, 1000, "vd1", ns.device_ns)
    manager = ServiceManager(server, is_device_container=False)
    client = driver.open(101, 1000, "vd1", ns.device_ns)
    events = []

    def handler(txn):
        events.append(txn.data["n"])
        if txn.data["n"] == 0:
            # A handler fanning out more oneway traffic mid-flush: it
            # must land in a NEW batch, not extend the one in flight.
            client.transact_async(handle, "ping", {"n": 99})
        return None

    manager.register("Fan", server.create_node(handler, "fan"))
    handle = client.transact(0, "get", {"name": "Fan"})["service"]
    client.transact_async(handle, "ping", {"n": 0})
    client.transact_async(handle, "ping", {"n": 1})
    executed = sim.run(until=sim.now)
    assert events == [0, 1, 99]
    assert executed == 2, "mid-flush sends get their own flush event"


@pytest.mark.parametrize("schedule", EXPLORED_SCHEDULES)
@pytest.mark.parametrize("telemetry", [True, False], indirect=True)
def test_reply_order_holds_under_explored_schedules(telemetry, schedule):
    """Submission-order delivery is schedule-neutral.

    The per-message path once violated this: each message rode its own
    delivery event's closure, so permuting same-tick events permuted
    one sender's replies (see tests/sched/fixtures/).
    """
    assert _mixed_codes(schedule) == RECORDED["mixed_codes"]


def test_transact_async_requires_bound_sim():
    driver = BinderDriver(device_container_name="device")
    ns = NamespaceSet("vd1")
    client = driver.open(101, 1000, "vd1", ns.device_ns)
    with pytest.raises(BinderError, match="bind_sim"):
        client.transact_async(1, "ping", {})


def test_transact_async_rejects_closed_process():
    driver, _, _, client, handle, _ = make_rig()
    client.close()
    with pytest.raises(BinderError, match="closed"):
        client.transact_async(handle, "ping", {})
