"""Tests for the flight stack: geo, physics, estimator, autopilot, SITL."""

import math

import pytest

from repro.flight import (
    GeoPoint,
    Geofence,
    QuadcopterPhysics,
    SitlDrone,
    analyze_attitude_divergence,
    enu_between,
    offset_geopoint,
)
from repro.flight.logs import FlightLog
from repro.flight.physics import PARAMS
from repro.mavlink import CommandLong, CopterMode, MavCommand, MavResult
from repro.sim import Simulator, RngRegistry
from repro.sim.time import seconds


HOME = GeoPoint(43.6084298, -85.8110359, 0.0)


def make_sitl(rate_hz=100, log=None, seed=7):
    sim = Simulator()
    drone = SitlDrone(sim, RngRegistry(seed), home=HOME, rate_hz=rate_hz, log=log)
    drone.start()
    return sim, drone


class TestGeo:
    def test_enu_roundtrip(self):
        target = offset_geopoint(HOME, east=120.0, north=-45.0, up=10.0)
        east, north, up = enu_between(HOME, target)
        assert east == pytest.approx(120.0, abs=0.01)
        assert north == pytest.approx(-45.0, abs=0.01)
        assert up == pytest.approx(10.0)

    def test_distance(self):
        target = offset_geopoint(HOME, east=30.0, north=40.0)
        assert HOME.horizontal_distance_to(target) == pytest.approx(50.0, abs=0.01)


class TestPhysics:
    def test_sits_on_ground_without_thrust(self):
        phys = QuadcopterPhysics()
        for _ in range(100):
            phys.step(0.01, (0, 0, 0, 0))
        assert phys.on_ground
        assert phys.position[2] == 0.0

    def test_hover_throttle_balances_gravity(self):
        phys = QuadcopterPhysics()
        phys.position[2] = 10.0
        phys.on_ground = False
        hover = PARAMS.hover_throttle()
        for _ in range(400):
            phys.step(0.0025, (hover,) * 4)
        # Altitude holds within a couple of meters over 1 second.
        assert phys.position[2] == pytest.approx(10.0, abs=2.0)

    def test_full_throttle_climbs(self):
        phys = QuadcopterPhysics()
        for _ in range(200):
            phys.step(0.005, (0.9,) * 4)
        assert phys.position[2] > 1.0
        assert not phys.on_ground

    def test_differential_thrust_rolls(self):
        phys = QuadcopterPhysics()
        phys.position[2] = 10.0
        phys.on_ground = False
        hover = PARAMS.hover_throttle()
        # More thrust on the right (motors 1,4) rolls left (negative).
        for _ in range(100):
            phys.step(0.0025, (hover + 0.05, hover - 0.05, hover - 0.05, hover + 0.05))
        assert phys.roll < -0.01

    def test_propulsion_energy_accumulates(self):
        phys = QuadcopterPhysics()
        phys.position[2] = 5.0
        phys.on_ground = False
        hover = PARAMS.hover_throttle()
        for _ in range(100):
            phys.step(0.01, (hover,) * 4)
        # ~1 second of hover at 1.5 kg should be on the order of 150-300 J.
        assert 50 < phys.propulsion_energy_j < 600

    def test_snapshot_reflects_state(self):
        phys = QuadcopterPhysics()
        phys.position = [10.0, 20.0, 30.0]
        snap = phys.snapshot()
        assert snap.altitude_m == 30.0
        geo = phys.geoposition()
        assert snap.latitude == pytest.approx(geo.latitude)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            QuadcopterPhysics().step(-0.01, (0, 0, 0, 0))


class TestSitlFlight:
    def test_takeoff_reaches_altitude(self):
        sim, drone = make_sitl()
        assert drone.arm() == MavResult.ACCEPTED
        assert drone.takeoff(15.0) == MavResult.ACCEPTED
        reached = drone.run_until(lambda: drone.physics.position[2] > 13.5, timeout_s=40)
        assert reached, f"altitude only {drone.physics.position[2]:.1f} m"

    def test_goto_waypoint(self):
        sim, drone = make_sitl()
        drone.arm()
        drone.takeoff(15.0)
        drone.run_until(lambda: drone.physics.position[2] > 13.5, timeout_s=40)
        target = offset_geopoint(HOME, east=60.0, north=30.0, up=15.0)
        assert drone.goto(target) == MavResult.ACCEPTED
        reached = drone.run_until(
            lambda: drone.physics.geoposition().horizontal_distance_to(target) < 3.0,
            timeout_s=90,
        )
        assert reached

    def test_takeoff_requires_arming(self):
        sim, drone = make_sitl()
        assert drone.takeoff(10.0) == MavResult.DENIED

    def test_waypoint_requires_guided_mode(self):
        sim, drone = make_sitl()
        drone.arm()
        drone.autopilot.set_mode(CopterMode.STABILIZE)
        assert drone.goto(HOME) == MavResult.DENIED

    def test_land_disarms_on_ground(self):
        sim, drone = make_sitl()
        drone.arm()
        drone.takeoff(8.0)
        drone.run_until(lambda: drone.physics.position[2] > 7.0, timeout_s=40)
        drone.autopilot.handle_command(CommandLong(command=int(MavCommand.NAV_LAND)))
        landed = drone.run_until(
            lambda: not drone.autopilot.armed and drone.physics.position[2] < 0.5,
            timeout_s=60,
        )
        assert landed

    def test_rtl_returns_home(self):
        sim, drone = make_sitl()
        drone.arm()
        drone.takeoff(15.0)
        drone.run_until(lambda: drone.physics.position[2] > 13.5, timeout_s=40)
        drone.goto(offset_geopoint(HOME, east=40.0, north=0.0, up=15.0))
        drone.run_until(
            lambda: drone.physics.position[0] > 35.0, timeout_s=60)
        drone.autopilot.handle_command(
            CommandLong(command=int(MavCommand.NAV_RETURN_TO_LAUNCH)))
        back = drone.run_until(
            lambda: math.hypot(*drone.physics.position[:2]) < 5.0, timeout_s=120)
        assert back

    def test_speed_limit_respected(self):
        sim, drone = make_sitl()
        drone.arm()
        drone.takeoff(15.0)
        drone.run_until(lambda: drone.physics.position[2] > 13.5, timeout_s=40)
        drone.autopilot.handle_command(CommandLong(
            command=int(MavCommand.DO_CHANGE_SPEED), param2=2.0))
        drone.goto(offset_geopoint(HOME, east=80.0, north=0.0, up=15.0))
        max_speed = 0.0
        for _ in range(40):
            sim.run(until=sim.now + seconds(0.5))
            vx, vy, _ = drone.physics.velocity
            max_speed = max(max_speed, math.hypot(vx, vy))
        assert max_speed < 3.5

    def test_heartbeat_reports_mode_and_arming(self):
        sim, drone = make_sitl()
        hb = drone.autopilot.make_heartbeat()
        assert not hb.base_mode & 128
        drone.arm()
        drone.autopilot.set_mode(CopterMode.GUIDED)
        hb = drone.autopilot.make_heartbeat()
        assert hb.base_mode & 128
        assert hb.custom_mode == CopterMode.GUIDED

    def test_global_position_telemetry(self):
        sim, drone = make_sitl()
        drone.arm()
        drone.takeoff(12.0)
        drone.run_until(lambda: drone.physics.position[2] > 10.0, timeout_s=40)
        pos = drone.autopilot.make_global_position()
        assert pos.relative_alt == pytest.approx(12_000, abs=2_500)
        assert pos.lat == pytest.approx(int(HOME.latitude * 1e7), abs=20_000)


class TestGeofence:
    def make_fence(self, radius=30.0):
        return Geofence(center=GeoPoint(HOME.latitude, HOME.longitude, 15.0),
                        radius_m=radius)

    def test_contains_inside_point(self):
        fence = self.make_fence()
        assert fence.contains(offset_geopoint(HOME, east=10.0, north=0.0, up=15.0))

    def test_breach_outside_radius(self):
        fence = self.make_fence()
        breach = fence.check(offset_geopoint(HOME, east=100.0, north=0.0, up=15.0))
        assert breach is not None
        assert breach.distance_m > 30.0

    def test_altitude_limits(self):
        fence = self.make_fence()
        too_high = GeoPoint(HOME.latitude, HOME.longitude, 200.0)
        assert not fence.contains(too_high)

    def test_recovery_point_is_inside(self):
        fence = self.make_fence()
        outside = offset_geopoint(HOME, east=80.0, north=40.0, up=15.0)
        recovery = fence.recovery_point(outside)
        assert fence.contains(recovery)

    def test_breach_callback_fires_once_per_excursion(self):
        sim, drone = make_sitl()
        breaches = []
        fence = self.make_fence(radius=25.0)
        drone.autopilot.set_geofence(fence)
        drone.autopilot.on_breach = breaches.append
        drone.arm()
        drone.takeoff(15.0)
        drone.run_until(lambda: drone.physics.position[2] > 13.5, timeout_s=40)
        # Command a point far outside the fence.
        drone.goto(offset_geopoint(HOME, east=60.0, north=0.0, up=15.0))
        drone.run_until(lambda: breaches, timeout_s=90)
        assert len(breaches) == 1


class TestAedAnalyzer:
    def test_stable_hover_passes_aed(self):
        log = FlightLog("hover")
        sim, drone = make_sitl(log=log)
        drone.arm()
        drone.takeoff(10.0)
        drone.run_until(lambda: drone.physics.position[2] > 9.0, timeout_s=40)
        sim.run(until=sim.now + seconds(20))
        result = analyze_attitude_divergence(log)
        assert result.entries_analyzed > 1000
        assert result.passed, str(result)

    def test_corrupted_estimate_fails_aed(self):
        """Sanity check: the analyzer does catch real divergence."""
        log = FlightLog("bad")
        est = type("Est", (), {"roll": 0.3, "pitch": 0.0, "yaw": 0.0})()
        truth = type("Truth", (), {"roll": 0.0, "pitch": 0.0, "yaw": 0.0})()
        for i in range(1000):
            log.record(i * 2_500, est, truth, (0, 0, 0), "LOITER")
        result = analyze_attitude_divergence(log)
        assert not result.passed
        assert result.worst_axis == "roll"
