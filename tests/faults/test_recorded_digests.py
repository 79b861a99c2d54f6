"""Recorded digests of seeded fleet runs, chaos included.

The chaos determinism tests only replay a seed against itself, and the
golden trace runs at chaos 0, so neither would notice a change to the
HAL bridge's retry and hold-last-sample path that is the same on every
run.  These digests were recorded from the code as it was before the
per-tick control path was slimmed, and pin that the fault path (and the
fleet-mission benchmark scenario) still does exactly the same thing:
same binder transactions, retries, held samples and RNG draws.

Each digest is the SHA-256 of ``FleetResult.to_json()``.
"""

import hashlib

import pytest

from repro.loadgen import FleetHarness, FleetScenario

#: chaos level -> digest for seed 5, 2 drones x 2 tenants, security on.
CHAOS_DIGESTS = {
    1: "cdb0b4c364eb96b27fb30415bf253f436d852a4f861c6720bbb3f8c91d00458a",
    2: "d1d59b83a9a43ffab354203be82d47d0c918ea417b879d807bb65fd18e394f06",
}

#: seed -> digest of the fleet-mission benchmark scenario (3 drones x 3
#: tenants, chaos 0, security on): its default and held-out seeds.
FLEET_MISSION_DIGESTS = {
    42: "6a22a0ab2e6190371ce9bf2e8fb3cc428208fd3342c3869580a97ba982b0a0a4",
    7: "23342c0639c3dbb1e22b0825ace141018f6c7c912a6a1d469cb9a3c1eb44292f",
}


#: digest of ``tests/loadgen/test_fleet.py``'s MINI fleet (seed 42, one
#: drone x 3 tenants).  Recorded while the hot-path optimizations were
#: still switchable; the run gave this digest with them on and off.
MINI_FLEET_DIGEST = \
    "5a6042a036af0237b425e9d006545159b391f20fd4afab11b5c1463a99025d18"


def digest(scenario: FleetScenario) -> str:
    result = FleetHarness(scenario).run()
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("level", sorted(CHAOS_DIGESTS))
def test_chaos_run_matches_recorded_digest(level):
    scenario = FleetScenario(seed=5, drones=2, tenants_per_drone=2,
                             chaos_level=level, security_enabled=True)
    assert digest(scenario) == CHAOS_DIGESTS[level]


@pytest.mark.parametrize("seed", sorted(FLEET_MISSION_DIGESTS))
def test_fleet_mission_matches_recorded_digest(seed):
    scenario = FleetScenario(seed=seed, drones=3, tenants_per_drone=3,
                             chaos_level=0, security_enabled=True)
    assert digest(scenario) == FLEET_MISSION_DIGESTS[seed]


def test_mini_fleet_matches_recorded_digest():
    scenario = FleetScenario(seed=42, drones=1, tenants_per_drone=3)
    assert digest(scenario) == MINI_FLEET_DIGEST
