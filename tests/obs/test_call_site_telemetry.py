"""Hot call sites follow the telemetry switch, wherever they were built.

``BinderProcess.transact``, ``SystemService.handle_txn`` and
``RateGuard.try_admit`` record only while ``obs.on`` is set, and always
into the registry that is live at the time of the call: objects built
before ``enable()`` count once it is on, stop counting after
``disable()``, and count into the fresh registry after ``reset()``.
"""

import pytest

import repro.obs as obs
from repro.android.services.base import SystemService
from repro.binder import BinderDriver, ServiceManager
from repro.kernel.namespaces import NamespaceSet
from repro.security.guards import RateGuard


class Echo(SystemService):
    name = "Echo"

    def op_ping(self, txn):
        return {"echo": txn.data.get("x")}


class Rig:
    """A guarded driver, an ``Echo`` service and one tenant client."""

    def __init__(self):
        self.driver = BinderDriver(device_container_name="device")
        self.driver.rate_guard = RateGuard(
            lambda: 0.0, edge="binder", rate_per_s=1.0, burst=10_000)
        device_ns = NamespaceSet("device").device_ns
        server = self.driver.open(100, euid=1000, container="device",
                                  device_ns=device_ns)
        manager = ServiceManager(server, is_device_container=True)
        self.service = Echo(environment=None)
        manager.register("Echo",
                         server.create_node(self.service.handle_txn, "echo"))
        self.client = self.driver.open(101, euid=10_001, container="t1",
                                       device_ns=device_ns)
        self.handle = self.client.transact(0, "get", {"name": "Echo"})["service"]

    def ping(self, times=1):
        for _ in range(times):
            assert self.client.transact(self.handle, "ping", {"x": 1}) == {
                "echo": 1}


def counts(registry):
    """Per call site, what ``registry`` holds for the client's pings."""
    out = {"binder": 0, "served": 0, "timed": 0, "admitted": 0}
    for instrument in registry.instruments():
        labels = instrument.labels
        if instrument.name == "binder.transactions" \
                and labels["service"] == "echo":
            out["binder"] += instrument.value
        elif instrument.name == "android.service.calls" \
                and labels["outcome"] == "served":
            out["served"] += instrument.value
        elif instrument.name == "android.service.call_us":
            out["timed"] += instrument.count
        elif instrument.name == "sec.guard.admitted" \
                and labels["tenant"] == "t1":
            out["admitted"] += instrument.value
    return out


def each(n):
    return {"binder": n, "served": n, "timed": n, "admitted": n}


@pytest.fixture
def rig():
    obs.reset()
    built = Rig()   # before enable(): no call site holds an instrument
    yield built
    obs.reset()


def test_repeated_calls_count_in_one_instrument(rig):
    obs.enable()
    rig.ping(3)
    assert counts(obs.get_registry()) == each(3)
    binder = [i for i in obs.get_registry().instruments()
              if i.name == "binder.transactions"
              and i.labels["service"] == "echo"]
    assert len(binder) == 1


def test_counts_land_only_while_telemetry_is_on(rig):
    rig.ping(2)                     # off: nothing recorded
    assert counts(obs.get_registry()) == each(0)
    obs.enable()
    rig.ping(3)
    assert counts(obs.get_registry()) == each(3)
    obs.disable()
    rig.ping(5)                     # dropped; recorded state kept
    assert counts(obs.get_registry()) == each(3)
    obs.enable()
    rig.ping()
    assert counts(obs.get_registry()) == each(4)


def test_reset_mid_run_counts_into_the_fresh_registry(rig):
    obs.enable()
    rig.ping(2)
    old = obs.get_registry()
    obs.reset()
    rig.ping(4)                     # reset() switches telemetry off
    obs.enable()
    rig.ping()
    assert obs.get_registry() is not old
    assert counts(obs.get_registry()) == each(1)
    assert counts(old) == each(2)


def test_each_target_and_tenant_gets_its_own_instrument(rig):
    other = rig.driver.open(102, euid=10_002, container="t2",
                            device_ns=rig.client.device_ns)
    handle = other.transact(0, "get", {"name": "Echo"})["service"]
    obs.enable()
    rig.ping(2)
    other.transact(handle, "ping", {})
    by_container = {
        i.labels["container"]: i.value
        for i in obs.get_registry().instruments()
        if i.name == "binder.transactions" and i.labels["service"] == "echo"}
    assert by_container == {"t1": 2, "t2": 1}
    admitted = {i.labels["tenant"]: i.value
                for i in obs.get_registry().instruments()
                if i.name == "sec.guard.admitted"}
    assert admitted == {"t1": 2, "t2": 1}


def test_guard_rejections_follow_the_switch():
    obs.reset()
    guard = RateGuard(lambda: 0.0, edge="binder", rate_per_s=1.0, burst=1)
    try:
        assert guard.try_admit("t") is True
        assert guard.try_admit("t") is False      # off: not recorded
        obs.enable()
        assert guard.try_admit("t") is False
        guard.quarantine("t")
        assert guard.try_admit("t") is False
        rejected = {i.labels["reason"]: i.value
                    for i in obs.get_registry().instruments()
                    if i.name == "sec.guard.rejected"}
        assert rejected == {"rate": 1, "quarantine": 1}
    finally:
        obs.reset()
