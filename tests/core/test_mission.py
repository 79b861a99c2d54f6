"""Tests for the mission runner (the Figure 4 workflow driver)."""

import pytest

from repro.cloud.planner import FlightPlanner
from repro.core import mission
from repro.core.mission import MissionError, MissionReport, MissionRunner
from repro.sdk.listener import WaypointListener
from tests.util import HOME, make_node, simple_definition, survey_manifests


def ready_node(definitions, behaviors=None):
    node = make_node(seed=81)
    manifests = {"com.example.survey": survey_manifests()}
    for definition in definitions:
        vdrone = node.start_virtual_drone(definition, app_manifests=manifests)
        installer = (behaviors or {}).get(definition.name)
        if installer is not None:
            installer(vdrone)
    node.boot()
    planner = FlightPlanner(HOME)
    plan = planner.plan(definitions)[0]
    return node, plan


def auto_complete(vdrone, delay_us=2_000_000):
    """Install an app that finishes each waypoint after a short dwell."""
    sim = vdrone.container.kernel.sim

    class AutoComplete(WaypointListener):
        def waypoint_active(self, waypoint):
            sim.after(delay_us, vdrone.sdk.waypoint_completed)

    vdrone.sdk.register_waypoint_listener(AutoComplete())


class TestMissionExecution:
    def test_full_mission_events_in_order(self):
        d = simple_definition("vd1", n_waypoints=2,
                              apps=["com.example.survey"])
        node, plan = ready_node([d], {"vd1": lambda v: auto_complete(v)})
        report = MissionRunner(node, plan).execute()
        texts = [e.text for e in report.events]
        assert texts[0] == "takeoff"
        assert texts[-1] == "landed"
        assert report.waypoints_serviced == 2
        assert report.returned_home
        assert "vd1" in report.tenants_completed

    def test_unresponsive_tenant_forced_out(self):
        """A tenant that never calls waypointCompleted loses its window
        (time allotment), and the flight continues."""
        d = simple_definition("vd1", apps=["com.example.survey"],
                              duration_s=15.0)
        node, plan = ready_node([d])   # no behaviour: never completes
        report = MissionRunner(node, plan).execute()
        assert report.waypoints_serviced == 1
        assert "vd1" in report.tenants_interrupted
        drone = node.vdc.drones["vd1"]
        assert "exhausted" in drone.force_finished_reason
        assert report.returned_home

    def test_mission_duration_accounts_everything(self):
        d = simple_definition("vd1", apps=["com.example.survey"])
        node, plan = ready_node([d], {"vd1": lambda v: auto_complete(v)})
        report = MissionRunner(node, plan).execute()
        assert report.duration_s > 10
        assert report.events[-1].time_s <= report.duration_s + 1

    def test_vdr_entries_and_energy_in_report(self):
        from repro.cloud import VirtualDroneRepository

        vdr = VirtualDroneRepository()
        node = make_node(seed=82, vdr=vdr)
        d = simple_definition("vd1", apps=["com.example.survey"])
        vdrone = node.start_virtual_drone(
            d, app_manifests={"com.example.survey": survey_manifests()})
        auto_complete(vdrone, delay_us=5_000_000)
        node.boot()
        plan = FlightPlanner(HOME).plan([d])[0]
        report = MissionRunner(node, plan).execute()
        assert report.vdr_entries["vd1"].startswith("vdr-")
        assert report.energy_by_account["platform"] > 0
        assert report.energy_by_account.get("vd1", 0) > 0

    def test_nav_timeout_raises_mission_error(self, monkeypatch):
        monkeypatch.setattr(mission, "NAV_TIMEOUT_S", 0.5)
        d = simple_definition("vd1", apps=["com.example.survey"])
        node, plan = ready_node([d], {"vd1": lambda v: auto_complete(v)})
        runner = MissionRunner(node, plan)
        with pytest.raises(MissionError, match="timeout"):
            runner.execute()

    def test_two_tenants_serviced_in_plan_order(self):
        d1 = simple_definition("vd1", apps=["com.example.survey"],
                               east_offset=40.0)
        d2 = simple_definition("vd2", apps=["com.example.survey"],
                               east_offset=-40.0)
        order = []

        def tracker(name):
            def install(vdrone):
                sim = vdrone.container.kernel.sim

                class L(WaypointListener):
                    def waypoint_active(self, wp):
                        order.append(name)
                        sim.after(1_000_000, vdrone.sdk.waypoint_completed)

                vdrone.sdk.register_waypoint_listener(L())
            return install

        node, plan = ready_node([d1, d2], {"vd1": tracker("vd1"),
                                           "vd2": tracker("vd2")})
        report = MissionRunner(node, plan).execute()
        assert sorted(order) == ["vd1", "vd2"]
        assert order == [s.tenant for s in plan.stops]
        assert report.waypoints_serviced == 2


class TestReportMerge:
    def test_merge_accumulates(self):
        a = MissionReport(waypoints_serviced=2, duration_s=100.0)
        b = MissionReport(waypoints_serviced=1, duration_s=50.0,
                          returned_home=True,
                          tenants_completed=["x"])
        a.merge(b)
        assert a.waypoints_serviced == 3
        assert a.duration_s == 150.0
        assert a.returned_home
        assert a.tenants_completed == ["x"]
