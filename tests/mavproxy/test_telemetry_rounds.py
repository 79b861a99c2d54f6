"""The proxy's telemetry rounds: one scheduler for every tenant's server.

``MavProxy.start_telemetry`` runs a 1 Hz heartbeat round and a 4 Hz
position round; each round is one simulator event that emits every
registered :class:`VfcServer`'s frame.  These tests pin that the number
of round events does not grow with the number of servers, that every
server gets every round's frames, and that nothing is emitted once
telemetry stops.
"""

import pytest

from repro.flight import GeoPoint, SitlDrone, offset_geopoint
from repro.mavproxy import MavProxy
from repro.mavproxy.server import GroundStation, VfcServer
from repro.mavproxy.whitelist import STANDARD
from repro.net import Network, loopback
from repro.sim import RngRegistry, Simulator
from repro.sim.time import seconds

HOME = GeoPoint(43.6084298, -85.8110359, 0.0)


class RecordingSimulator(Simulator):
    """A simulator that remembers the callback of every scheduled event."""

    def __init__(self):
        super().__init__()
        self.scheduled = []

    def at(self, time, fn, key=""):
        self.scheduled.append(fn)
        return super().at(time, fn, key)


def build(servers: int):
    sim = RecordingSimulator()
    # The drone is not started: no SITL timers, so the only periodic
    # events are the proxy's rounds (plus frame deliveries).
    drone = SitlDrone(sim, RngRegistry(55), home=HOME, rate_hz=100)
    proxy = MavProxy(sim, drone)
    network = Network(sim, RngRegistry(56))
    stations = []
    for i in range(servers):
        vfc = proxy.create_vfc(f"tenant{i}", STANDARD,
                               waypoint=offset_geopoint(HOME, east=20.0 * i,
                                                        north=10.0, up=15.0))
        VfcServer(vfc, network, f"vfc{i}:5760", f"gcs{i}:14550", loopback())
        stations.append(GroundStation(sim, network, f"gcs{i}:14550",
                                      f"vfc{i}:5760", loopback()))
    return sim, proxy, stations


def round_events(sim, proxy):
    """(heartbeat, position) round events scheduled so far."""
    return (sim.scheduled.count(proxy._heartbeats._run),
            sim.scheduled.count(proxy._positions._run))


@pytest.mark.parametrize("servers", [1, 3])
def test_five_round_events_per_simulated_second(servers):
    sim, proxy, _ = build(servers)
    proxy.start_telemetry()
    # The first rounds run at once and each schedules its successor.
    assert round_events(sim, proxy) == (1, 1)
    sim.run(until=seconds(10) - 1)
    assert round_events(sim, proxy) == (10, 40)     # 5 per sim-second
    # The servers keep no timers of their own.
    assert not [fn for fn in sim.scheduled
                if isinstance(getattr(fn, "__self__", None), VfcServer)]


@pytest.mark.parametrize("servers", [1, 3])
def test_every_server_gets_every_round(servers):
    sim, proxy, stations = build(servers)
    proxy.start_telemetry()
    # Rounds at 0..10 s (heartbeat) and every 0.25 s up to 10 s.
    sim.run(until=seconds(10) + 100_000)
    proxy.stop_telemetry()
    sim.run(until=seconds(12))       # deliver the frames still in flight
    for station in stations:
        assert len(station.heartbeats) == 11
        assert len(station.positions) == 41


@pytest.mark.parametrize("servers", [1, 3])
def test_no_frames_after_telemetry_stops(servers):
    sim, proxy, stations = build(servers)
    proxy.start_telemetry()
    sim.run(until=seconds(3) + 100_000)
    proxy.stop_telemetry()
    sim.run(until=seconds(4))
    counts = [(len(s.heartbeats), len(s.positions)) for s in stations]
    assert all(count == (4, 13) for count in counts)
    sim.run(until=seconds(20))
    assert [(len(s.heartbeats), len(s.positions))
            for s in stations] == counts
    # The pending rounds fired once more and scheduled nothing after.
    assert sim.pending() == 0
