"""Concurrent fleet flights: several drones airborne on one shared clock.

Each mission runs as a simulation process, so a fleet's flights overlap
in simulated time — wall-clock of the *fleet* is the max of its flights,
not their sum, which is what a real multi-drone operator gets.
"""


from repro.cloud.planner import FlightPlanner
from repro.core.drone_node import DroneNode
from repro.core.mission import MissionRunner
from repro.sdk.listener import WaypointListener
from repro.sim import Process, Simulator
from tests.util import HOME, simple_definition, survey_manifests


def prepare_drone(sim, seed, tenant_name, east_offset):
    node = DroneNode(sim=sim, seed=seed, home=HOME, sitl_rate_hz=100.0)
    definition = simple_definition(tenant_name, apps=["com.example.survey"],
                                   east_offset=east_offset)
    vdrone = node.start_virtual_drone(
        definition, app_manifests={"com.example.survey": survey_manifests()})

    class AutoDone(WaypointListener):
        def waypoint_active(self, waypoint):
            sim.after(3_000_000, vdrone.sdk.waypoint_completed)

    vdrone.sdk.register_waypoint_listener(AutoDone())
    node.boot()
    plan = FlightPlanner(HOME).plan([definition])[0]
    return node, MissionRunner(node, plan)


def fly(sim, runner):
    """Start the mission as a process on the shared clock."""
    return Process(sim, runner.steps())


class TestConcurrentFlights:
    def test_two_drones_fly_simultaneously(self):
        sim = Simulator()
        node_a, runner_a = prepare_drone(sim, 301, "tenant-a", 50.0)
        node_b, runner_b = prepare_drone(sim, 302, "tenant-b", -70.0)
        proc_a = fly(sim, runner_a)
        proc_b = fly(sim, runner_b)
        sim.run(until=sim.now + 400_000_000)
        assert proc_a.done and proc_b.done
        assert runner_a.report.returned_home
        assert runner_b.report.returned_home
        assert runner_a.report.waypoints_serviced == 1
        assert runner_b.report.waypoints_serviced == 1

    def test_fleet_wallclock_is_max_not_sum(self):
        # Sequential baseline.
        sim_seq = Simulator()
        node1, runner1 = prepare_drone(sim_seq, 303, "t1", 60.0)
        runner1.execute()
        solo_duration = runner1.report.duration_s

        # Two drones concurrently on one clock.
        sim = Simulator()
        _, runner_a = prepare_drone(sim, 303, "t1", 60.0)
        _, runner_b = prepare_drone(sim, 304, "t2", 60.0)
        start = sim.now
        proc_a = fly(sim, runner_a)
        proc_b = fly(sim, runner_b)
        sim.run(until=sim.now + 600_000_000)
        assert proc_a.done and proc_b.done
        fleet_duration = max(runner_a.report.duration_s,
                             runner_b.report.duration_s)
        # Concurrent: the fleet finishes in about one flight's time.
        assert fleet_duration < 1.6 * solo_duration

    def test_drones_physically_independent(self):
        sim = Simulator()
        node_a, runner_a = prepare_drone(sim, 305, "ta", 80.0)
        node_b, runner_b = prepare_drone(sim, 306, "tb", -80.0)
        fly(sim, runner_a)
        fly(sim, runner_b)
        # Sample positions while both are en-route to their waypoints.
        max_east_a, min_east_b = 0.0, 0.0
        for _ in range(40):
            sim.run(until=sim.now + 5_000_000)
            max_east_a = max(max_east_a, node_a.sitl.physics.position[0])
            min_east_b = min(min_east_b, node_b.sitl.physics.position[0])
        # The two vehicles flew apart (one east, one west), independently.
        assert max_east_a > 40.0
        assert min_east_b < -40.0
