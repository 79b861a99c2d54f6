"""Tests for the VDC daemon on an assembled drone node."""

import pytest

from repro.sdk.listener import WaypointListener
from tests.util import make_node, simple_definition, survey_manifests


@pytest.fixture
def node():
    return make_node()


def start_tenant(node, name="vd1", **kw):
    definition = simple_definition(name=name, apps=["com.example.survey"], **kw)
    manifests = {"com.example.survey": survey_manifests()}
    return node.start_virtual_drone(definition, app_manifests=manifests)


class TestCreation:
    def test_creates_container_and_env(self, node):
        vdrone = start_tenant(node)
        assert vdrone.container.state.value == "running"
        assert vdrone.env.service_manager.has_service("CameraService")
        assert "com.example.survey" in vdrone.env.apps

    def test_apps_installed_and_resumed(self, node):
        vdrone = start_tenant(node)
        app = vdrone.env.apps["com.example.survey"]
        assert app.state.value == "resumed"
        assert vdrone.container.read_file("/data/app/com.example.survey.apk")

    def test_missing_manifests_rejected(self, node):
        definition = simple_definition(apps=["com.unknown"])
        with pytest.raises(ValueError, match="manifests"):
            node.vdc.create_virtual_drone(definition)

    def test_duplicate_name_rejected(self, node):
        start_tenant(node)
        with pytest.raises(ValueError):
            start_tenant(node)

    def test_memory_accounting(self, node):
        base = node.kernel.memory.used_kb
        start_tenant(node)
        assert node.kernel.memory.used_kb == base + 185 * 1024


class TestWaypointFlow:
    def test_waypoint_reached_grants_devices(self, node):
        vdrone = start_tenant(node)
        app = vdrone.env.apps["com.example.survey"]
        assert app.call_service("CameraService", "capture").get("denied")
        node.vdc.waypoint_reached("vd1")
        assert app.call_service("CameraService", "capture")["status"] == "ok"

    def test_sdk_listener_notified(self, node):
        vdrone = start_tenant(node)
        events = []

        class L(WaypointListener):
            def waypoint_active(self, wp):
                events.append(("active", wp.index))

            def waypoint_inactive(self, wp):
                events.append(("inactive", wp.index))

        vdrone.sdk.register_waypoint_listener(L())
        node.vdc.waypoint_reached("vd1")
        node.vdc.waypoint_completed("vd1")
        assert events == [("active", 0), ("inactive", 0)]

    def test_completion_revokes_devices(self, node):
        vdrone = start_tenant(node, n_waypoints=2)
        app = vdrone.env.apps["com.example.survey"]
        node.vdc.waypoint_reached("vd1")
        assert app.call_service("CameraService", "capture")["status"] == "ok"
        node.vdc.waypoint_completed("vd1")
        assert app.call_service("CameraService", "capture").get("denied")

    def test_all_waypoints_done_finishes_tenant(self, node):
        vdrone = start_tenant(node, n_waypoints=2)
        node.vdc.waypoint_reached("vd1", 0)
        node.vdc.waypoint_completed("vd1")
        assert not vdrone.finished
        node.vdc.waypoint_reached("vd1", 1)
        node.vdc.waypoint_completed("vd1")
        assert vdrone.finished
        assert vdrone.vfc.state.value == "finished"

    def test_out_of_order_waypoints_supported(self, node):
        """The planner may interleave and reorder waypoints (Section 4)."""
        vdrone = start_tenant(node, n_waypoints=3)
        node.vdc.waypoint_reached("vd1", 2)
        node.vdc.waypoint_completed("vd1")
        node.vdc.waypoint_reached("vd1", 0)
        node.vdc.waypoint_completed("vd1")
        assert vdrone.completed == {0, 2}
        assert vdrone.next_unvisited() == 1

    def test_revisiting_completed_waypoint_rejected(self, node):
        start_tenant(node, n_waypoints=2)
        node.vdc.waypoint_reached("vd1", 0)
        node.vdc.waypoint_completed("vd1")
        with pytest.raises(ValueError):
            node.vdc.waypoint_reached("vd1", 0)

    def test_on_waypoint_done_callback(self, node):
        start_tenant(node)
        done = []
        node.vdc.on_waypoint_done = done.append
        node.vdc.waypoint_reached("vd1")
        node.vdc.waypoint_completed("vd1")
        assert done == ["vd1"]


class TestMultiTenantPrivacy:
    def test_continuous_tenant_suspended_and_notified(self, node):
        vd1 = start_tenant(node, name="vd1", n_waypoints=2,
                           continuous_devices=["gps"])
        vd2 = start_tenant(node, name="vd2")
        # vd1 starts (first waypoint), then is between waypoints.
        node.vdc.waypoint_reached("vd1", 0)
        node.vdc.waypoint_completed("vd1")
        app1 = vd1.env.apps["com.example.survey"]
        assert app1.call_service("LocationManagerService", "get_location")["status"] == "ok"
        # vd2's waypoint begins: vd1's continuous GPS must be suspended.
        node.vdc.waypoint_reached("vd2", 0)
        assert app1.call_service("LocationManagerService", "get_location").get("denied")
        assert "suspendContinuousDevices" in vd1.sdk.events
        node.vdc.waypoint_completed("vd2")
        assert "resumeContinuousDevices" in vd1.sdk.events
        assert app1.call_service("LocationManagerService", "get_location")["status"] == "ok"


class TestRevocationEnforcement:
    def test_lingering_client_killed(self, node):
        """Section 4.4: apps ignoring the revocation notice get their
        device sessions dropped and processes terminated."""
        vdrone = start_tenant(node)
        app = vdrone.env.apps["com.example.survey"]
        node.vdc.waypoint_reached("vd1")
        app.call_service("CameraService", "connect")
        # The app ignores waypointInactive and never disconnects.
        node.vdc.waypoint_completed("vd1")
        camera = node.device_env.system_server.get("CameraService")
        assert camera.clients_from("vd1") == []
        assert ("vd1", app.uid) in node.vdc.killed_processes
        assert app.state.value == "destroyed"

    def test_wellbehaved_app_not_killed(self, node):
        vdrone = start_tenant(node)
        app = vdrone.env.apps["com.example.survey"]
        node.vdc.waypoint_reached("vd1")
        app.call_service("CameraService", "connect")
        app.call_service("CameraService", "disconnect")
        node.vdc.waypoint_completed("vd1")
        assert node.vdc.killed_processes == []
        assert app.state.value == "resumed"


class TestAllotments:
    def test_time_accumulates_only_at_waypoints(self, node):
        start_tenant(node, duration_s=100.0)
        node.sim.run(until=node.sim.now + 10_000_000)
        assert node.vdc.time_used("vd1") == 0.0
        node.vdc.waypoint_reached("vd1")
        node.sim.run(until=node.sim.now + 30_000_000)
        assert node.vdc.time_used("vd1") == pytest.approx(30.0, abs=1.5)

    def test_time_exhaustion_forces_finish(self, node):
        vdrone = start_tenant(node, duration_s=20.0)
        node.vdc.waypoint_reached("vd1")
        node.sim.run(until=node.sim.now + 40_000_000)
        assert vdrone.finished
        assert "time" in vdrone.force_finished_reason

    def test_low_time_warning_issued(self, node):
        vdrone = start_tenant(node, duration_s=40.0)
        node.vdc.waypoint_reached("vd1")
        node.sim.run(until=node.sim.now + 35_000_000)
        assert "lowTimeWarning" in vdrone.sdk.events

    def test_energy_exhaustion_forces_finish(self, node):
        vdrone = start_tenant(node, energy_j=400.0)
        node.boot()   # power monitor draws against the battery
        node.vdc.waypoint_reached("vd1")
        # Attribute some propulsion draw to the tenant.
        node.battery.draw(100.0, 5.0, account="vd1")
        node.sim.run(until=node.sim.now + 5_000_000)
        assert vdrone.finished
        assert "energy" in vdrone.force_finished_reason

    def test_energy_left_reported_via_sdk(self, node):
        vdrone = start_tenant(node, energy_j=1000.0)
        assert vdrone.sdk.get_allotted_energy_left() == 1000.0
        node.battery.draw(50.0, 10.0, account="vd1")
        assert vdrone.sdk.get_allotted_energy_left() == pytest.approx(500.0)


class TestVdrSaveResume:
    def test_save_all_commits_and_uploads(self):
        from repro.cloud import CloudStorage, VirtualDroneRepository

        vdr = VirtualDroneRepository()
        storage = CloudStorage()
        node = make_node(vdr=vdr, cloud_storage=storage)
        vdrone = start_tenant(node)
        app = vdrone.env.apps["com.example.survey"]
        node.vdc.waypoint_reached("vd1")
        app.write_file("result.jpg", "jpeg-bytes")
        vdrone.sdk.mark_file_for_user(f"{app.data_dir}/result.jpg")
        node.vdc.waypoint_completed("vd1")
        stored = node.vdc.save_to_vdr(["vd1"])
        assert "vd1" in stored
        assert storage.get("vd1", f"{app.data_dir}/result.jpg") == "jpeg-bytes"
        entry = vdr.fetch(stored["vd1"])
        assert entry.diff.size_bytes() > 0

    def test_saved_state_resumable_on_second_node(self):
        from repro.cloud import VirtualDroneRepository

        vdr = VirtualDroneRepository()
        node1 = make_node(seed=5, vdr=vdr)
        vdrone = start_tenant(node1)
        app = vdrone.env.apps["com.example.survey"]
        app.on_save_instance_state = lambda: {"progress": 7}
        node1.vdc.force_finish("vd1", "weather")
        stored = node1.vdc.save_to_vdr(["vd1"])
        entry = vdr.fetch(stored["vd1"])
        assert entry.resumable
        # Resume on different hardware.
        node2 = make_node(seed=6)
        restored = node2.start_virtual_drone(
            entry.definition,
            app_manifests={"com.example.survey": survey_manifests()},
            resume_diff=entry.diff,
        )
        import json
        saved = restored.container.read_file(
            "/data/data/com.example.survey/saved_state.json")
        assert json.loads(saved) == {"progress": 7}


class TestFlightControlGating:
    def test_tenant_without_flight_control_gets_no_vfc_activation(self, node):
        """Devices-only tenants (e.g. photography along the route) never
        receive flight control: their VFC stays in the inactive view even
        while their waypoint is serviced."""
        definition = simple_definition(
            "vd1", apps=["com.example.survey"],
            waypoint_devices=["camera"])      # no flight-control
        vdrone = node.start_virtual_drone(
            definition, app_manifests={"com.example.survey": survey_manifests()})
        node.vdc.waypoint_reached("vd1")
        app = vdrone.env.apps["com.example.survey"]
        assert app.call_service("CameraService", "capture")["status"] == "ok"
        assert vdrone.vfc.state.value == "inactive"
        assert not node.vdc.policy.allows_flight_control("vd1")

    def test_flight_control_tenant_gets_activation_and_fence(self, node):
        vdrone = start_tenant(node)
        node.vdc.waypoint_reached("vd1")
        assert vdrone.vfc.state.value == "active"
        assert vdrone.vfc.geofence is not None
        spec = vdrone.definition.waypoints[0]
        assert vdrone.vfc.geofence.radius_m == spec.max_radius
        assert node.vdc.policy.allows_flight_control("vd1")
