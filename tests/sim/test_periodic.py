"""``Periodic``: the one self-rescheduling loop on the sim clock.

The first half pins the helper itself; the second half runs every
service built on it through the same checks, so a component that goes
back to a hand-written timer loses the guarantees here.
"""

from types import SimpleNamespace

import pytest

from repro.cloud.weather import WeatherService
from repro.core.power import PowerMonitor
from repro.devices.battery import Battery
from repro.flight import GeoPoint, SitlDrone
from repro.kernel.interrupts import IrqSource
from repro.loadgen.abuse import MavlinkSpammer
from repro.loadgen import FleetHarness, FleetScenario
from repro.loadgen.city import CityHarness, CityScenario
from repro.loadgen.invariants import InvariantMonitor
from repro.mavproxy import MavProxy
from repro.net import Network
from repro.security.anomaly import AnomalyDetector
from repro.security.channel import KeySchedule
from repro.sim import Periodic, RngRegistry, Simulator
from repro.sim.time import seconds
from tests.util import make_node, simple_definition

HOME = GeoPoint(43.6084298, -85.8110359, 0.0)


@pytest.fixture
def scheduled_keys(monkeypatch):
    """The key of every event any simulator schedules from now on."""
    keys = []
    real_at = Simulator.at

    def at(sim, time, fn, key=""):
        keys.append(key)
        return real_at(sim, time, fn, key)

    monkeypatch.setattr(Simulator, "at", at)
    return keys


class TestPeriodic:
    def test_first_run_now_then_every_period(self):
        sim = Simulator()
        runs = []
        loop = Periodic(sim, 10, lambda: runs.append(sim.now))
        loop.start()
        assert runs == [0]
        sim.run(until=35)
        assert runs == [0, 10, 20, 30]

    def test_first_run_after_delay(self):
        sim = Simulator()
        runs = []
        Periodic(sim, 10, lambda: runs.append(sim.now)).start(delay=3)
        assert runs == []
        sim.run(until=35)
        assert runs == [3, 13, 23, 33]

    def test_start_while_running_does_nothing(self):
        sim = Simulator()
        runs = []
        loop = Periodic(sim, 10, lambda: runs.append(sim.now))
        loop.start()
        loop.start()
        sim.run(until=25)
        assert runs == [0, 10, 20]

    def test_stop_from_inside_fn(self):
        sim = Simulator()
        runs = []

        def body():
            runs.append(sim.now)
            if len(runs) == 3:
                loop.stop()

        loop = Periodic(sim, 10, body)
        loop.start()
        sim.run()
        assert runs == [0, 10, 20]
        assert not loop.running
        assert sim.pending() == 0

    def test_queued_run_stays_live_and_inert(self):
        sim = Simulator()
        runs = []
        loop = Periodic(sim, 10, lambda: runs.append(sim.now))
        loop.start()
        loop.stop()
        # Not cancelled: same-tick schedules still see the event.
        assert sim.pending() == 1
        assert sim.run() == 1
        assert runs == [0]

    def test_restart_begins_a_fresh_chain(self):
        sim = Simulator()
        runs = []
        loop = Periodic(sim, 10, lambda: runs.append(sim.now))
        loop.start()
        sim.run(until=4)
        loop.stop()
        loop.start()
        sim.run(until=40)
        # The old chain's run at 10 does nothing; the new one runs at 4.
        assert runs == [0, 4, 14, 24, 34]

    def test_restart_from_inside_fn(self):
        sim = Simulator()
        runs = []

        def body():
            runs.append(sim.now)
            if sim.now == 10:
                loop.stop()
                loop.start(delay=5)

        loop = Periodic(sim, 10, body)
        loop.start()
        sim.run(until=40)
        assert runs == [0, 10, 15, 25, 35]

    def test_jittered_period_is_read_after_fn(self):
        sim = Simulator()
        calls = []
        delays = iter([3, 5, 7, 9])

        def period():
            calls.append("period")
            return next(delays)

        def body():
            calls.append(("fn", sim.now))

        Periodic(sim, period, body).start()
        sim.run(until=15)
        assert calls == [("fn", 0), "period", ("fn", 3), "period",
                         ("fn", 8), "period", ("fn", 15), "period"]

    def test_period_is_read_on_every_run(self):
        sim = Simulator()
        runs = []
        loop = Periodic(sim, 10, lambda: runs.append(sim.now))
        loop.start()
        sim.run(until=5)
        loop.period = 3
        sim.run(until=20)
        assert runs == [0, 10, 13, 16, 19]

    @pytest.mark.parametrize("delay", [None, 0, 7])
    def test_key_on_every_scheduled_run(self, scheduled_keys, delay):
        sim = Simulator()
        Periodic(sim, 10, lambda: None, key="svc.tick").start(delay=delay)
        sim.run(until=100)
        assert len(scheduled_keys) >= 10
        assert set(scheduled_keys) == {"svc.tick"}


# -- every component built on Periodic ------------------------------------------
class Count:
    def __init__(self, fn=None):
        self.n = 0
        self.fn = fn

    def __call__(self, *args, **kwargs):
        self.n += 1
        if self.fn is not None:
            return self.fn(*args, **kwargs)


class FakeServer:
    def __init__(self):
        self.frames = 0

    def emit_heartbeat(self):
        self.frames += 1

    def emit_position(self):
        self.frames += 1


class FakePhysics:
    def __init__(self):
        self.updates = 0

    @property
    def wind_enu(self):
        return (0.0, 0.0, 0.0)

    @wind_enu.setter
    def wind_enu(self, value):
        self.updates += 1


def fake_kernel(sim):
    return SimpleNamespace(sim=sim, rng=RngRegistry(3), note_irq=Count(),
                           cpu_busy_integral_us=lambda: 0.0,
                           config=SimpleNamespace(num_cpus=1))


# Each builder returns (sim, start, stop, runs): ``runs()`` counts the
# loop's bodies run so far through the component's own public state.
def invariant_monitor():
    sim = Simulator()
    monitor = InvariantMonitor(sim)
    return sim, monitor.start, monitor.stop, lambda: monitor.checks


def city_monitor():
    harness = CityHarness(CityScenario(seed=1))
    monitor = harness.monitor
    return harness.sim, monitor.start, monitor.stop, lambda: monitor.checks


def power_monitor():
    sim = Simulator()
    power = PowerMonitor(sim, fake_kernel(sim), Battery())
    return sim, power.start, power.stop, lambda: len(power.samples)


def sitl():
    sim = Simulator()
    drone = SitlDrone(sim, RngRegistry(55), home=HOME, rate_hz=100)
    steps = drone.autopilot.control_step = Count(drone.autopilot.control_step)
    return sim, drone.start, drone.stop, lambda: steps.n


def irq_source():
    sim = Simulator()
    kernel = fake_kernel(sim)
    irq = IrqSource(kernel, "nic", rate_hz=50)
    return sim, irq.start, irq.stop, lambda: kernel.note_irq.n


def mavproxy():
    sim = Simulator()
    proxy = MavProxy(sim, SitlDrone(sim, RngRegistry(55), home=HOME))
    server = FakeServer()
    proxy.servers.append(server)
    return (sim, proxy.start_telemetry, proxy.stop_telemetry,
            lambda: server.frames)


def anomaly_detector():
    sim = Simulator()
    detector = AnomalyDetector(sim)
    return sim, detector.start, detector.stop, lambda: detector.windows


def key_schedule():
    sim = Simulator()
    keys = KeySchedule("s3cret", rekey_interval_s=1.0)
    return sim, lambda: keys.start(sim), keys.stop, lambda: keys.rekeys


def weather_service():
    sim = Simulator()
    weather = WeatherService(sim, RngRegistry(4).stream("wx"),
                             update_period_us=500_000)
    physics = FakePhysics()
    return (sim, lambda: weather.couple_to_physics(physics), weather.stop,
            lambda: physics.updates)


def mavlink_spammer():
    sim = Simulator()
    spammer = MavlinkSpammer(sim, Network(sim, RngRegistry(6)), "victim",
                             rate_hz=5.0, start_s=0.0)
    return sim, spammer.start, spammer.stop, lambda: spammer.sent


COMPONENTS = {
    "InvariantMonitor": invariant_monitor,
    "CityInvariantMonitor": city_monitor,
    "PowerMonitor": power_monitor,
    "SitlDrone": sitl,
    "IrqSource": irq_source,
    "MavProxy": mavproxy,
    "AnomalyDetector": anomaly_detector,
    "KeySchedule": key_schedule,
    "WeatherService": weather_service,
    "MavlinkSpammer": mavlink_spammer,
}

SPAN = seconds(10)


@pytest.mark.parametrize("build", COMPONENTS.values(), ids=COMPONENTS.keys())
def test_stop_then_restart_within_a_period_runs_one_chain(build):
    sim, start, _, runs = build()
    start()
    base = runs()
    sim.run(until=SPAN)
    single = runs() - base
    assert single > 0

    sim, start, stop, runs = build()
    start()
    stop()
    start()
    base = runs()
    sim.run(until=SPAN)
    # The restart's chain alone: the first chain's queued run is inert.
    # IrqSource draws exponential gaps, so its count only has to stay
    # near one chain's, far from two chains'.
    slack = single // 4 if build is irq_source else 0
    assert abs((runs() - base) - single) <= slack


def test_vdc_enforcement_runs_one_chain_across_a_restart():
    def enforcement_runs(restart: bool) -> int:
        node = make_node()
        node.vdc.create_virtual_drone(simple_definition())
        ticks = node.vdc.time_left = Count(node.vdc.time_left)
        if restart:
            node.vdc.simulate_restart(downtime_s=0.1)
            node.sim.run(until=seconds(0.1))
        base = ticks.n
        node.sim.run(until=seconds(10.5))
        return ticks.n - base

    assert enforcement_runs(restart=True) == enforcement_runs(restart=False)


@pytest.mark.parametrize("build,key", [
    (anomaly_detector, "sec.anomaly"),
    (key_schedule, "sec.rekey"),
    (mavlink_spammer, "abuse.spam"),
], ids=["AnomalyDetector", "KeySchedule", "MavlinkSpammer"])
def test_keyed_loops_key_every_run(scheduled_keys, build, key):
    sim, start, _, runs = build()
    start()
    sim.run(until=SPAN)
    assert runs() > 2
    # Every run, plus the next one queued.
    assert scheduled_keys.count(key) == runs() + 1


def test_power_depletion_stops_the_sampler_from_inside():
    sim = Simulator()
    battery = Battery(capacity_wh=0.01)
    power = PowerMonitor(sim, fake_kernel(sim), battery)
    power.start()
    sim.run()
    assert power.depleted
    assert sim.pending() == 0
    samples = len(power.samples)
    sim.run(until=sim.now + seconds(10))
    assert len(power.samples) == samples


def test_jittered_sitl_draws_after_each_control_step():
    sim = Simulator()
    calls = []
    drone = SitlDrone(sim, RngRegistry(55), home=HOME, rate_hz=100,
                      jitter_provider=lambda: calls.append("jitter") or 0.0)
    real_step = drone.autopilot.control_step
    drone.autopilot.control_step = \
        lambda dt: calls.append("step") or real_step(dt)
    drone.start()
    sim.run(until=25_000)
    assert calls == ["step", "jitter"] * 3


@pytest.mark.parametrize("max_sim_s", [60.0, 3600.0],
                         ids=["deadline", "all-settled"])
def test_city_watchdog_stops_every_loop_from_inside(max_sim_s):
    harness = CityHarness(CityScenario(seed=3, orders=12, max_sim_s=max_sim_s))
    result = harness.run()
    assert result.deadline_hit is (max_sim_s == 60.0)
    # The watchdog stopped itself, the roll-ups and the monitor, so the
    # simulator drained instead of ticking forever.
    assert harness.sim.pending() == 0
    assert not (harness._watchdog.running or harness._rollups.running)
    assert result.invariant_checks > 0


def test_fleet_run_ends_at_its_last_landing():
    harness = FleetHarness(FleetScenario(
        seed=1, drones=2, tenants_per_drone=1, workload_mix=["survey"]))
    result = harness.run()
    # The last drone to land cleared the simulator, so nothing queued
    # after that landing is left behind, and the clock stops there.
    sim = harness.system.sim
    assert sim.pending() == 0
    assert sim.now == 60_500_000
    assert not harness.monitor._loop.running
    for slot in harness.slots:
        proxy = slot.node.proxy
        assert not (proxy._heartbeats.running or proxy._positions.running)
    assert len(result.completed) == 2 and result.invariant_checks > 0
