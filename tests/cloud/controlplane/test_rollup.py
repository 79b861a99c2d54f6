"""``CityControlPlane.rollup`` sets its gauges only when telemetry is on.

With telemetry on, the gauges must equal a brute-force count of the
plane's state.  With it off, the roll-up must not call ``repro.obs`` at
all: it only sets gauges, and those would land in the null registry.
"""

import pytest

import repro.obs as obs
from repro.cloud.controlplane import CityControlPlane
from repro.flight.geo import offset_geopoint
from repro.loadgen.city import (
    CITY_ALTITUDE_M,
    CITY_HOME,
    CityScenario,
    make_city_specs,
)
from repro.sim import Simulator

SCENARIO = CityScenario(seed=42, shards=2, drones=4, capacity=3,
                        max_pending=12)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def mid_run_plane():
    """Eight tenants, every other one on a two-flight task, stopped at
    80 sim-s: some completed, some migrated and queued, some flying."""
    sim = Simulator()
    plane = CityControlPlane(sim, make_city_specs(SCENARIO),
                             shard_count=SCENARIO.shards,
                             max_pending=SCENARIO.max_pending)
    for index in range(8):
        east = 500.0 + 400.0 * index
        north = 3500.0 - 400.0 * index
        point = offset_geopoint(CITY_HOME, east, north, CITY_ALTITUDE_M)
        plane.submit_order(
            f"user{index:04d}",
            [{"latitude": point.latitude, "longitude": point.longitude,
              "altitude": point.altitude_m}],
            east, north, max_charge=4.0, max_duration_s=60.0,
            legs=1 + index % 2)
    sim.run(until=80_000_000)
    return plane


def test_rollup_sets_brute_force_gauges_with_telemetry_on():
    obs.enable()
    plane = mid_run_plane()
    plane.rollup()
    registry = obs.get_registry()
    active = sum(1 for r in plane.records.values()
                 if r.state in ("queued", "flying", "migrating"))
    assert active > 0
    assert registry.gauge("cp.tenants_active").value == active
    for shard in plane.shards:
        assert registry.gauge("cp.shard_pending", shard=shard.shard_id) \
            .value == shard.admission.pending
        assert registry.gauge("cp.vdr_stored_bytes", shard=shard.shard_id) \
            .value == shard.vdr.total_stored_bytes()


def test_rollup_makes_no_obs_call_with_telemetry_off(monkeypatch):
    plane = mid_run_plane()
    calls = []
    for name in ("counter", "gauge", "histogram", "event", "span"):
        monkeypatch.setattr(
            obs, name, lambda *args, _name=name, **kw: calls.append(_name))
    plane.rollup()
    assert calls == []
