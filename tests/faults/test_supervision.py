"""VDC heartbeat supervision, crash recovery, and the typed resume errors."""

import pytest

from repro.containers.checkpoint import CheckpointError, CheckpointMissingError
from repro.containers.container import ContainerState
from repro.sdk.listener import WaypointListener
from repro.sim.time import seconds
from repro.vdc import controller
from repro.vdc.controller import UnknownTenantError
from tests.util import make_node, simple_definition, survey_manifests

PACKAGE = "com.example.survey"


@pytest.fixture
def node():
    return make_node()


def start_tenant(node, name="vd1", **kw):
    definition = simple_definition(name=name, apps=[PACKAGE], **kw)
    manifests = {PACKAGE: survey_manifests()}
    return node.start_virtual_drone(definition, app_manifests=manifests)


class Recorder(WaypointListener):
    def __init__(self, log):
        self.log = log

    def waypoint_active(self, waypoint):
        self.log.append(("active", waypoint.index))


def install_recorder(log):
    def installer(app, sdk, vdrone):
        sdk.register_waypoint_listener(Recorder(log))
    return installer


class TestCrashRecovery:
    def test_crash_is_detected_and_restarted(self, node):
        node.vdc.enable_supervision()
        vdrone = start_tenant(node)
        node.vdc.crash_container("vd1")
        assert vdrone.container.state is ContainerState.STOPPED
        node.sim.run(until=seconds(2.0))
        assert vdrone.container.state is ContainerState.RUNNING
        assert node.vdc.restart_counts == {"vd1": 1}
        assert PACKAGE in vdrone.env.apps

    def test_restart_rewires_apps_and_renotifies_waypoint(self, node):
        node.vdc.enable_supervision()
        vdrone = start_tenant(node, n_waypoints=2)
        log = []
        vdrone.installers[PACKAGE] = install_recorder(log)
        vdrone.installers[PACKAGE](vdrone.env.apps[PACKAGE], vdrone.sdk,
                                   vdrone)
        node.vdc.waypoint_reached("vd1")
        assert log == [("active", 0)]
        dead_app = vdrone.env.apps[PACKAGE]
        node.vdc.crash_container("vd1")
        node.sim.run(until=seconds(2.0))
        # A fresh app instance is wired up and the active waypoint is
        # re-delivered so the interrupted task resumes.
        assert vdrone.env.apps[PACKAGE] is not dead_app
        assert log == [("active", 0), ("active", 0)]
        assert vdrone.current_index == 0

    def test_restore_resumes_from_waypoint_checkpoint(self, node):
        node.vdc.enable_supervision()
        vdrone = start_tenant(node, n_waypoints=2)
        node.vdc.waypoint_reached("vd1")
        app = vdrone.env.apps[PACKAGE]
        app.memory["shots"] = 3
        # Leaving the waypoint refreshes the tenant checkpoint, so the
        # crash a moment later restores the photographed state.
        node.vdc.waypoint_completed("vd1")
        node.vdc.waypoint_reached("vd1")
        node.vdc.crash_container("vd1")
        node.sim.run(until=seconds(2.0))
        assert vdrone.env.apps[PACKAGE].memory["shots"] == 3
        assert vdrone.completed == {0}
        assert vdrone.current_index == 1

    def test_crash_loop_force_finishes(self, node, monkeypatch):
        monkeypatch.setattr(controller, "MAX_RESTARTS", 1)
        node.vdc.enable_supervision()
        vdrone = start_tenant(node)
        node.vdc.crash_container("vd1")
        node.sim.run(until=seconds(2.0))
        assert node.vdc.restart_counts == {"vd1": 1}
        node.vdc.crash_container("vd1")
        node.sim.run(until=seconds(4.0))
        assert vdrone.finished
        assert node.vdc.restart_counts == {"vd1": 1}  # no further restarts

    def test_finished_tenant_is_not_restarted(self, node):
        node.vdc.enable_supervision()
        vdrone = start_tenant(node)
        node.vdc.waypoint_reached("vd1")
        node.vdc.waypoint_completed("vd1")
        node.vdc.force_finish("vd1", "done")
        node.vdc.crash_container("vd1")
        assert vdrone.container.state is ContainerState.STOPPED
        node.sim.run(until=seconds(2.0))
        # The crash still lands, but a finished tenant needs no recovery.
        assert node.vdc.restart_counts == {}
        assert vdrone.container.state is ContainerState.STOPPED

    def test_unsupervised_vdc_never_restarts(self, node):
        vdrone = start_tenant(node)
        node.vdc.crash_container("vd1")
        node.sim.run(until=seconds(3.0))
        assert vdrone.container.state is ContainerState.STOPPED
        assert node.vdc.restart_counts == {}


class TestVdcRestart:
    def test_supervision_survives_daemon_restart(self, node):
        node.vdc.enable_supervision()
        vdrone = start_tenant(node)
        node.vdc.simulate_restart(downtime_s=0.5)
        node.sim.run(until=seconds(1.0))
        # The restarted daemon supervises again: a crash after the
        # downtime is still caught and recovered.
        node.vdc.crash_container("vd1")
        node.sim.run(until=seconds(3.0))
        assert vdrone.container.state is ContainerState.RUNNING
        assert node.vdc.restart_counts == {"vd1": 1}

    def test_enforcement_rearms_after_restart(self, node):
        start_tenant(node, duration_s=2.0)
        node.vdc.waypoint_reached("vd1")  # active: the allotment clock runs
        node.vdc.simulate_restart(downtime_s=0.5)
        node.sim.run(until=seconds(5.0))
        # The 2 s allotment is still enforced once the daemon is back.
        assert node.vdc.get("vd1").finished


class TestTypedErrors:
    def test_unknown_tenant_error(self, node):
        with pytest.raises(UnknownTenantError) as info:
            node.vdc.get("nope")
        assert str(info.value) == "no virtual drone named 'nope'"
        assert info.value.tenant == "nope"

    def test_unknown_tenant_is_a_key_error(self, node):
        # Callers that caught the old bare KeyError keep working.
        with pytest.raises(KeyError):
            node.vdc.waypoint_reached("nope")

    def test_restart_without_checkpoint(self, node):
        start_tenant(node)  # supervision off: no checkpoint taken
        with pytest.raises(CheckpointMissingError) as info:
            node.vdc.restart_virtual_drone("vd1")
        assert str(info.value) == "no checkpoint for container 'vd1'"
        assert info.value.container_name == "vd1"

    def test_checkpoint_missing_is_checkpoint_and_key_error(self):
        error = CheckpointMissingError("vd1")
        assert isinstance(error, CheckpointError)
        assert isinstance(error, KeyError)
