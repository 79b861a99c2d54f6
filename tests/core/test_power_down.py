"""A drone powers down at its last landing.

``AnDroneSystem.fly`` calls ``DroneNode.shutdown()`` once the last
flight's offload (VDR save, uploads, portal notices) is done.  From then
on nothing onboard serves an order, so the SITL flight loop (with its HAL
reads over binder), the power monitor, the VDC daemon's enforcement and
supervision loops and the MAVProxy telemetry rounds all stop, until a
later ``boot()`` readies the node for another flight.
"""

from collections import defaultdict

import pytest

from repro.core import AnDroneSystem
from repro.core.power import PowerMonitor
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.flight.sitl import SitlDrone
from repro.loadgen import FleetHarness, FleetScenario
from repro.sdk.listener import WaypointListener
from repro.vdc.controller import VirtualDroneController

ANDROID = ('<manifest package="com.cam">'
           '<uses-permission name="android.permission.CAMERA"/>'
           '<uses-permission name="androne.permission.FLIGHT_CONTROL"/>'
           "</manifest>")
ANDRONE = ('<androne-manifest package="com.cam">'
           '<uses-permission name="camera" type="waypoint"/>'
           '<uses-permission name="flight-control" type="waypoint"/>'
           "</androne-manifest>")

#: Control steps each drone of the seed-42 3x3 ``fleet-mission`` run
#: makes up to its own last landing (the benchmark's ``flight.control_steps``
#: is their sum).
FLEET_CONTROL_STEPS = {0: 4050, 1: 5575, 2: 7250}


def build_system(seed=131):
    system = AnDroneSystem(seed=seed)
    system.app_store.publish("Cam", "camera app", ANDROID, ANDRONE)

    def installer(app, sdk, vdrone):
        class L(WaypointListener):
            def waypoint_active(self, wp):
                app.call_service("CameraService", "capture")
                sdk.waypoint_completed()

        sdk.register_waypoint_listener(L())

    system.register_app_behavior("com.cam", installer)
    return system


def order(system, user, north=0.0):
    return system.portal.order_virtual_drone(
        user=user, waypoints=[{"latitude": 43.6090 + north,
                               "longitude": -85.8107, "altitude": 15}],
        apps=["com.cam"], max_charge=15.0, max_duration_s=60.0)


def loops(node):
    """Which of the node's periodic loops are running."""
    return {
        "sitl": node.sitl._loop.running,
        "power": node.power._loop.running,
        "enforcement": node.vdc._enforcement.running,
        "supervision": node.vdc._supervision.running,
        "heartbeats": node.proxy._heartbeats.running,
        "positions": node.proxy._positions.running,
    }


def supervised_node(system):
    """A fleet drone with every loop ``shutdown`` stops armed."""
    node = system.add_drone()
    node.vdc.enable_supervision()
    node.proxy.start_telemetry()
    return node


def landed_us(report):
    """Sim time of the report's last landing."""
    return max(round(event.time_s * 1e6) for event in report.events
               if event.text == "landed")


class TestFlyOrdersPowersDown:
    def test_every_loop_stops_and_the_clock_adds_no_work(self):
        system = build_system()
        node = supervised_node(system)
        orders = [order(system, "a")]
        report = system.fly_orders(orders, node=node)
        assert report.returned_home
        assert not any(loops(node).values()), loops(node)

        autopilot = node.sitl.autopilot
        steps, reads = autopilot.fast_loop_count, autopilot.sensors.calls
        samples = len(node.power.samples)
        system.sim.run(until=system.sim.now + 10_000_000)
        assert autopilot.fast_loop_count == steps
        assert autopilot.sensors.calls == reads
        assert len(node.power.samples) == samples

    def test_boot_brings_the_node_back_for_a_later_flight(self):
        system = build_system(seed=132)
        node = supervised_node(system)
        first = system.fly_orders([order(system, "a")], node=node)
        steps = node.sitl.autopilot.fast_loop_count

        second_order = order(system, "b", north=0.0004)
        second = system.fly_orders([second_order], node=node)
        assert first.returned_home and second.returned_home
        assert second.waypoints_serviced == 1
        assert second_order.state.value == "completed"
        assert node.sitl.autopilot.fast_loop_count > steps
        assert not any(loops(node).values()), loops(node)

    def test_a_vdc_restart_spanning_the_landing_stays_down(self):
        """The restart's ``come_back`` lands after the power-down and must
        not bring enforcement or supervision back."""
        def fly(fault_at_s=None):
            system = build_system(seed=133)
            node = supervised_node(system)
            if fault_at_s is not None:
                plan = FaultPlan(seed=1)
                plan.add(FaultKind.VDC_RESTART, at_s=fault_at_s,
                         params={"downtime_s": 1.0})
                FaultInjector(system.sim, plan).attach_node(node).start()
            report = system.fly_orders([order(system, "a")], node=node)
            return system, node, report

        _, _, clean = fly()
        fault_at_s = landed_us(clean) / 1e6 - 0.5
        system, node, report = fly(fault_at_s)
        landing = landed_us(report)
        assert fault_at_s * 1e6 < landing < (fault_at_s + 1.0) * 1e6
        system.sim.run(until=system.sim.now + 2_000_000)
        assert not node.vdc._enforcement.running
        assert not node.vdc._supervision.running


@pytest.fixture(scope="module")
def fleet_runs():
    """The seed-42 ``fleet-mission`` run, with the sim time of every flight,
    power and VDC loop run recorded per owner object."""
    runs = defaultdict(list)
    patched = []

    def record(cls, name):
        original = getattr(cls, name)

        def recorded(self):
            runs[id(self), name].append(self.sim.now)
            return original(self)
        patched.append((cls, name, original))
        setattr(cls, name, recorded)

    for cls, name in ((SitlDrone, "_tick"), (PowerMonitor, "_sample"),
                      (VirtualDroneController, "_enforcement_tick"),
                      (VirtualDroneController, "_supervision_tick")):
        record(cls, name)
    try:
        harness = FleetHarness(FleetScenario(
            seed=42, drones=3, tenants_per_drone=3, chaos_level=0,
            security_enabled=True))
        result = harness.run()
    finally:
        for cls, name, original in patched:
            setattr(cls, name, original)
    return harness, result, runs


class TestFleetPowersDown:
    def test_no_loop_runs_after_its_drones_landing(self, fleet_runs):
        harness, result, runs = fleet_runs
        assert len(result.completed) == 9
        for slot in harness.slots:
            node = slot.node
            landing = landed_us(slot.process.result)
            for owner, name in ((node.sitl, "_tick"),
                                (node.power, "_sample"),
                                (node.vdc, "_enforcement_tick")):
                times = runs[id(owner), name]
                assert times, f"drone{slot.index} {name} never ran"
                assert max(times) <= landing, (
                    f"drone{slot.index} {name} ran at {max(times)} us, "
                    f"after its landing at {landing} us")
            assert not any(loops(node).values()), loops(node)

    def test_control_steps_per_drone(self, fleet_runs):
        harness, _, _ = fleet_runs
        steps = {slot.index: slot.node.sitl.autopilot.fast_loop_count
                 for slot in harness.slots}
        assert steps == FLEET_CONTROL_STEPS
        assert sum(steps.values()) == 16_875
