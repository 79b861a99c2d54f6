"""Tests for the network-facing VFC server and ground station over LTE."""

import pytest

from repro.flight import Geofence, GeoPoint, SitlDrone, offset_geopoint
from repro.mavlink import CommandLong, MavCommand, MavResult
from repro.mavproxy import MavProxy
from repro.mavproxy.server import GroundStation, VfcServer
from repro.mavproxy.whitelist import STANDARD
from repro.net import Network, cellular_lte, loopback
from repro.sim import Simulator, RngRegistry
from repro.sim.time import seconds

HOME = GeoPoint(43.6084298, -85.8110359, 0.0)
WAYPOINT = offset_geopoint(HOME, east=60.0, north=20.0, up=15.0)


@pytest.fixture
def rig():
    sim = Simulator()
    drone = SitlDrone(sim, RngRegistry(55), home=HOME, rate_hz=100)
    drone.start()
    proxy = MavProxy(sim, drone)
    network = Network(sim, RngRegistry(56))
    vfc = proxy.create_vfc("tenant", STANDARD, waypoint=WAYPOINT)
    server = VfcServer(vfc, network, "10.99.1.2:5760", "user:14550",
                       loopback())
    gcs = GroundStation(sim, network, "user:14550", "10.99.1.2:5760",
                        loopback())
    proxy.start_telemetry()
    return sim, drone, proxy, vfc, server, gcs


def fly_to_waypoint(sim, drone):
    drone.arm()
    drone.takeoff(15.0)
    drone.run_until(lambda: drone.physics.position[2] > 13.5, 60)
    drone.goto(WAYPOINT)
    drone.run_until(
        lambda: drone.physics.geoposition().horizontal_distance_to(WAYPOINT) < 3.0,
        120)


class TestTelemetryStreaming:
    def test_heartbeats_arrive_at_1hz(self, rig):
        sim, *_ , gcs = rig
        sim.run(until=sim.now + seconds(10))
        assert 8 <= len(gcs.heartbeats) <= 12

    def test_positions_arrive_at_4hz(self, rig):
        sim, *_, gcs = rig
        sim.run(until=sim.now + seconds(5))
        assert 16 <= len(gcs.positions) <= 24

    def test_inactive_tenant_sees_virtual_view_remotely(self, rig):
        sim, drone, proxy, vfc, server, gcs = rig
        fly_to_waypoint(sim, drone)
        # Real drone is airborne far from the tenant's waypoint... but
        # remotely the tenant sees itself idle on the ground AT waypoint.
        sim.run(until=sim.now + seconds(2))
        position = gcs.last_position()
        assert position.relative_alt == 0
        assert position.lat == pytest.approx(int(WAYPOINT.latitude * 1e7),
                                             abs=200)
        assert not gcs.last_heartbeat().base_mode & 128   # appears disarmed

    def test_statustext_delivered_on_activation(self, rig):
        sim, drone, proxy, vfc, server, gcs = rig
        fly_to_waypoint(sim, drone)
        vfc.activate(Geofence(center=WAYPOINT, radius_m=30.0))
        sim.run(until=sim.now + seconds(2))
        assert any("control granted" in text for text in gcs.statustexts)


class TestRemoteCommands:
    def test_command_denied_remotely_before_waypoint(self, rig):
        sim, drone, proxy, vfc, server, gcs = rig
        gcs.send_command(CommandLong(command=int(MavCommand.NAV_TAKEOFF),
                                     param7=10.0))
        ack = gcs.wait_for_ack(int(MavCommand.NAV_TAKEOFF))
        assert ack is not None
        assert ack.result == MavResult.TEMPORARILY_REJECTED

    def test_command_accepted_when_active(self, rig):
        sim, drone, proxy, vfc, server, gcs = rig
        fly_to_waypoint(sim, drone)
        vfc.activate(Geofence(center=WAYPOINT, radius_m=30.0))
        inside = offset_geopoint(WAYPOINT, east=8.0, north=0.0, up=15.0)
        gcs.send_command(CommandLong(
            command=int(MavCommand.NAV_WAYPOINT),
            param5=inside.latitude, param6=inside.longitude, param7=15.0))
        ack = gcs.wait_for_ack(int(MavCommand.NAV_WAYPOINT))
        assert ack.result == MavResult.ACCEPTED
        moved = drone.run_until(
            lambda: drone.physics.geoposition()
            .horizontal_distance_to(inside) < 3.0, 60)
        assert moved


class TestOverCellular:
    def test_full_loop_over_lte(self):
        """Command + ack + telemetry over the calibrated LTE model."""
        sim = Simulator()
        drone = SitlDrone(sim, RngRegistry(57), home=HOME, rate_hz=100)
        drone.start()
        proxy = MavProxy(sim, drone)
        network = Network(sim, RngRegistry(58))
        vfc = proxy.create_vfc("tenant", STANDARD, waypoint=WAYPOINT)
        server = VfcServer(vfc, network, "10.99.1.2:5760", "phone:14550",
                           cellular_lte())
        gcs = GroundStation(sim, network, "phone:14550", "10.99.1.2:5760",
                            cellular_lte())
        proxy.start_telemetry()
        fly_to_waypoint(sim, drone)
        vfc.activate(Geofence(center=WAYPOINT, radius_m=30.0))
        sent_at = sim.now
        gcs.send_command(CommandLong(command=int(MavCommand.CONDITION_YAW),
                                     param1=180.0))
        ack = gcs.wait_for_ack(int(MavCommand.CONDITION_YAW),
                               timeout_us=2_000_000)
        assert ack is not None
        round_trip_ms = (sim.now - sent_at) / 1000.0
        # Two LTE traversals: ~140ms typical round trip.
        assert 90 < round_trip_ms < 800
        assert gcs.heartbeats   # telemetry flows over the same link
