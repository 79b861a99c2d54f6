"""Tests for Binder IPC, device namespaces, and AnDrone's two new ioctls."""

import gc
import weakref

import pytest

from repro.binder import (
    BinderDriver,
    BadHandleError,
    PermissionDeniedError,
    ServiceManager,
    ServiceNotFoundError,
)
from repro.binder.driver import DeadNodeError
from repro.kernel.namespaces import NamespaceSet


@pytest.fixture
def driver():
    return BinderDriver(device_container_name="device")


def make_container(driver, name, pid_base, is_device=False):
    """Create a container namespace with a ServiceManager, like init does."""
    ns_set = NamespaceSet(name)
    proc = driver.open(pid_base, euid=1000, container=name, device_ns=ns_set.device_ns)
    manager = ServiceManager(proc, is_device_container=is_device)
    return ns_set, proc, manager


class TestHandles:
    def test_service_call_through_handle(self, driver):
        _, proc, manager = make_container(driver, "vd1", 100)
        calls = []

        def handler(txn):
            calls.append(txn.code)
            return {"status": "ok", "echo": txn.data["x"]}

        manager.register("Echo", proc.create_node(handler, "echo"))
        client = driver.open(101, 1000, "vd1", proc.device_ns)
        reply = client.transact(0, "get", {"name": "Echo"})
        handle = reply["service"]
        result = client.transact(handle, "ping", {"x": 7})
        assert result == {"status": "ok", "echo": 7}
        assert calls == ["ping"]

    def test_unknown_handle_rejected(self, driver):
        _, proc, _ = make_container(driver, "vd1", 100)
        with pytest.raises(BadHandleError):
            proc.transact(55, "anything")

    def test_handles_are_per_process(self, driver):
        _, proc, manager = make_container(driver, "vd1", 100)
        manager.register("Svc", proc.create_node(lambda t: "ok", "svc"))
        client_a = driver.open(101, 1000, "vd1", proc.device_ns)
        client_b = driver.open(102, 1000, "vd1", proc.device_ns)
        ha = client_a.transact(0, "get", {"name": "Svc"})["service"]
        # Client B never looked the service up: the handle number from A's
        # table means nothing (or something else) in B's table.
        with pytest.raises(BadHandleError):
            client_b.transact(ha, "call")

    def test_transaction_carries_caller_identity(self, driver):
        _, proc, manager = make_container(driver, "vd1", 100)
        seen = {}

        def handler(txn):
            seen.update(pid=txn.calling_pid, euid=txn.calling_euid,
                        container=txn.calling_container)
            return None

        manager.register("Id", proc.create_node(handler, "id"))
        client = driver.open(333, 4242, "vd1", proc.device_ns)
        handle = client.transact(0, "get", {"name": "Id"})["service"]
        client.transact(handle, "whoami")
        assert seen == {"pid": 333, "euid": 4242, "container": "vd1"}

    def test_dead_node_rejects_transactions(self, driver):
        _, proc, manager = make_container(driver, "vd1", 100)
        manager.register("Svc", proc.create_node(lambda t: "ok", "svc"))
        client = driver.open(101, 1000, "vd1", proc.device_ns)
        handle = client.transact(0, "get", {"name": "Svc"})["service"]
        proc.close()
        with pytest.raises(DeadNodeError):
            client.transact(handle, "call")

    def test_noderef_in_payload_translated_for_receiver(self, driver):
        _, proc, manager = make_container(driver, "vd1", 100)
        received = {}

        def registry_handler(txn):
            received["handle"] = txn.data["obj"]
            return {"status": "ok"}

        manager.register("Registry", proc.create_node(registry_handler, "reg"))
        client = driver.open(101, 1000, "vd1", proc.device_ns)
        reg_handle = client.transact(0, "get", {"name": "Registry"})["service"]
        callback_ref = client.create_node(lambda t: "cb-reply", "callback")
        client.transact(reg_handle, "register_callback", {"obj": callback_ref})
        # The service got an integer handle valid in *its* table.
        assert isinstance(received["handle"], int)
        assert proc.transact(received["handle"], "invoke") == "cb-reply"


class TestProcessLifetime:
    def test_closed_process_is_collected(self, driver):
        # Nothing in the driver holds a process: once it has closed and
        # its caller drops it, it is freed with its handle table.
        _, proc, manager = make_container(driver, "vd1", 100)
        manager.register("Svc", proc.create_node(lambda t: "ok", "svc"))
        client = driver.open(101, 1000, "vd1", proc.device_ns)
        client.create_node(lambda t: "ok", "callback")
        handle = client.transact(0, "get", {"name": "Svc"})["service"]
        assert client.transact(handle, "call") == "ok"
        client.close()
        ref = weakref.ref(client)
        del client
        gc.collect()
        assert ref() is None


class TestDeviceNamespaces:
    def test_each_container_gets_own_context_manager(self, driver):
        ns1, p1, m1 = make_container(driver, "vd1", 100)
        ns2, p2, m2 = make_container(driver, "vd2", 200)
        m1.register("OnlyInVd1", p1.create_node(lambda t: "1", "svc1"))
        client2 = driver.open(201, 1000, "vd2", ns2.device_ns)
        assert client2.transact(0, "get", {"name": "OnlyInVd1"})["status"] == "not_found"
        client1 = driver.open(102, 1000, "vd1", ns1.device_ns)
        assert client1.transact(0, "get", {"name": "OnlyInVd1"})["status"] == "ok"

    def test_context_manager_count_tracks_containers(self, driver):
        make_container(driver, "vd1", 100)
        make_container(driver, "vd2", 200)
        make_container(driver, "device", 300, is_device=True)
        assert driver.context_manager_count() == 3

    def test_handle_zero_without_context_manager_fails(self, driver):
        ns = NamespaceSet("fresh")
        proc = driver.open(1, 0, "fresh", ns.device_ns)
        with pytest.raises(BadHandleError):
            proc.transact(0, "get", {"name": "x"})


class TestPublishToAllNs:
    def test_device_container_service_visible_in_all_vdrones(self, driver):
        ns1, p1, m1 = make_container(driver, "vd1", 100)
        ns2, p2, m2 = make_container(driver, "vd2", 200)
        _, dev_proc, dev_mgr = make_container(driver, "device", 300, is_device=True)
        dev_mgr.register("SensorService",
                         dev_proc.create_node(lambda t: {"sensors": []}, "sensors"))
        for ns, pid in ((ns1, 101), (ns2, 201)):
            client = driver.open(pid, 1000, "vdX", ns.device_ns)
            reply = client.transact(0, "get", {"name": "SensorService"})
            assert reply["status"] == "ok"

    def test_non_shared_service_not_published(self, driver):
        ns1, *_ = make_container(driver, "vd1", 100)
        _, dev_proc, dev_mgr = make_container(driver, "device", 300, is_device=True)
        dev_mgr.register("InternalHelper",
                         dev_proc.create_node(lambda t: None, "internal"))
        client = driver.open(101, 1000, "vd1", ns1.device_ns)
        assert client.transact(0, "get", {"name": "InternalHelper"})["status"] == "not_found"

    def test_only_device_container_may_publish(self, driver):
        make_container(driver, "device", 300, is_device=True)
        _, p1, _ = make_container(driver, "vd1", 100)
        node = p1.create_node(lambda t: None, "evil")
        with pytest.raises(PermissionDeniedError):
            p1.ioctl_publish_to_all_ns("CameraService", node)

    def test_vdrone_cannot_impersonate_device_container_flag(self, driver):
        # A vdrone ServiceManager claiming is_device_container still fails at
        # the driver: the check is on the container name, not userspace state.
        ns = NamespaceSet("vd-evil")
        proc = driver.open(666, 1000, "vd-evil", ns.device_ns)
        with pytest.raises(PermissionDeniedError):
            ServiceManager(proc, is_device_container=True).register(
                "CameraService", proc.create_node(lambda t: None, "fake-cam")
            )

    def test_late_started_vdrone_receives_shared_services(self, driver):
        _, dev_proc, dev_mgr = make_container(driver, "device", 300, is_device=True)
        dev_mgr.register("CameraService",
                         dev_proc.create_node(lambda t: "camera", "cam"))
        # vdrone starts *after* the service was registered.
        ns_late, p_late, m_late = make_container(driver, "vd-late", 400)
        published = dev_mgr.publish_shared_into(ns_late.device_ns, driver)
        assert published == 1
        client = driver.open(401, 1000, "vd-late", ns_late.device_ns)
        reply = client.transact(0, "get", {"name": "CameraService"})
        assert reply["status"] == "ok"

    def test_calls_into_shared_service_identify_calling_container(self, driver):
        containers_seen = []

        def sensor_handler(txn):
            containers_seen.append(txn.calling_container)
            return {"status": "ok"}

        ns1, *_ = make_container(driver, "vd1", 100)
        ns2, *_ = make_container(driver, "vd2", 200)
        _, dev_proc, dev_mgr = make_container(driver, "device", 300, is_device=True)
        dev_mgr.register("SensorService", dev_proc.create_node(sensor_handler, "sens"))
        for name, ns, pid in (("vd1", ns1, 101), ("vd2", ns2, 201)):
            client = driver.open(pid, 1000, name, ns.device_ns)
            handle = client.transact(0, "get", {"name": "SensorService"})["service"]
            client.transact(handle, "read")
        assert containers_seen == ["vd1", "vd2"]


class TestPublishToDevCon:
    def test_activity_manager_forwarded_with_scoped_name(self, driver):
        _, dev_proc, dev_mgr = make_container(driver, "device", 300, is_device=True)
        _, p1, m1 = make_container(driver, "vd1", 100)
        m1.register("ActivityManager",
                    p1.create_node(lambda t: {"granted": True}, "am:vd1"))
        assert dev_mgr.has_service("ActivityManager@vd1")

    def test_device_container_can_query_calling_containers_am(self, driver):
        _, dev_proc, dev_mgr = make_container(driver, "device", 300, is_device=True)
        _, p1, m1 = make_container(driver, "vd1", 100)
        m1.register("ActivityManager",
                    p1.create_node(lambda t: {"granted": t.data["perm"] == "camera"},
                                   "am:vd1"))
        handle = dev_mgr.lookup_handle("ActivityManager@vd1")
        assert dev_proc.transact(handle, "checkPermission", {"perm": "camera"})["granted"]
        assert not dev_proc.transact(handle, "checkPermission", {"perm": "gps"})["granted"]

    def test_forwarding_requires_device_container_present(self, driver):
        _, p1, _ = make_container(driver, "vd1", 100)
        from repro.binder.driver import BinderError
        node = p1.create_node(lambda t: None, "am")
        with pytest.raises(BinderError):
            p1.ioctl_publish_to_dev_con("ActivityManager", node)


class TestServiceManagerApi:
    def test_list_services(self, driver):
        _, proc, manager = make_container(driver, "vd1", 100)
        manager.register("B", proc.create_node(lambda t: None, "b"))
        manager.register("A", proc.create_node(lambda t: None, "a"))
        assert manager.list_services() == ["A", "B"]

    def test_lookup_unknown_raises(self, driver):
        _, _, manager = make_container(driver, "vd1", 100)
        with pytest.raises(ServiceNotFoundError):
            manager.lookup_handle("Nope")


class TestBinderDeathNotification:
    def test_recipient_fires_on_process_close(self):
        driver = BinderDriver()
        ns = NamespaceSet("vd1")
        proc = driver.open(1, 1000, "vd1", ns.device_ns)
        manager = ServiceManager(proc)
        service_proc = driver.open(2, 1000, "vd1", ns.device_ns)
        ref = service_proc.create_node(lambda t: "ok", "svc")
        manager.register("Svc", ref)
        deaths = []
        handle = manager.lookup_handle("Svc")
        proc.link_to_death(handle, lambda node: deaths.append(node.label))
        service_proc.close()
        assert deaths == ["svc"]
        # The ServiceManager pruned the dead registration.
        assert not manager.has_service("Svc")

    def test_linking_to_dead_node_fires_immediately(self):
        driver = BinderDriver()
        ns = NamespaceSet("vd1")
        proc = driver.open(1, 1000, "vd1", ns.device_ns)
        peer = driver.open(2, 1000, "vd1", ns.device_ns)
        ref = peer.create_node(lambda t: None, "ephemeral")
        handle = proc._install_ref(ref.node)
        peer.close()
        deaths = []
        proc.link_to_death(handle, lambda node: deaths.append(1))
        assert deaths == [1]
