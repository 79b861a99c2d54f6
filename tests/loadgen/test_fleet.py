"""End-to-end fleet harness tests on a small fleet.

The full-size soaks live behind the ``soak`` marker (``make soak`` /
``-m soak``); the tests here keep a mini-fleet in the tier-1 run so the
harness itself — invariants, stats, permission cache invalidation — is
exercised on every push.  The mini fleet's full result is pinned by a
recorded digest in tests/faults/test_recorded_digests.py.
"""

import pytest

from repro.android.permissions import Permission
from repro.loadgen import FleetScenario
from repro.loadgen.harness import FleetHarness, run_scenario


MINI = FleetScenario(seed=42, drones=1, tenants_per_drone=3)


@pytest.fixture(scope="module")
def result():
    return run_scenario(MINI)


class TestMiniFleet:
    def test_all_tenants_complete(self, result):
        assert sorted(result.completed) == sorted(result.tenants)
        assert not result.interrupted

    def test_invariants_checked_and_clean(self, result):
        assert result.invariant_checks > 0
        assert result.violations == []
        result.assert_clean()

    def test_stats_populated(self, result):
        for stats in result.tenants.values():
            assert stats.completed
            assert stats.waypoints_completed >= 1
            assert stats.heartbeats > 0
            assert stats.positions > 0
            assert stats.time_used_s > 0
            assert stats.energy_used_j > 0

    def test_result_round_trips_to_json(self, result):
        data = result.to_dict()
        assert data["scenario"]["seed"] == MINI.seed
        assert set(data["tenants"]) == set(result.tenants)
        assert isinstance(result.to_json(), str)


class TestChaosFleet:
    def test_chaos_fleet_completes_with_faults(self):
        result = run_scenario(FleetScenario(
            seed=42, drones=1, tenants_per_drone=2, chaos_level=1))
        assert sorted(result.completed) == sorted(result.tenants)
        assert result.violations == []
        assert result.faults_injected > 0

    def test_same_seed_same_outcome(self):
        scenario = FleetScenario(seed=7, drones=1, tenants_per_drone=2,
                                 chaos_level=1)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.to_json() == b.to_json()


class TestPermissionCacheInvalidation:
    def test_revoke_drops_cached_grants(self):
        harness = FleetHarness(MINI)
        node = harness.slots[0].node
        cache = node.device_env.permission_cache
        harness.run()
        # The soak's device-service traffic must have gone through the
        # cache, and revoking a tenant package's grants must drop that
        # uid's entries (wired via ActivityManager.on_permissions_changed).
        assert cache.hits > 0
        tenant = harness.slots[0].tenants[0]
        vdrone = node.vdc.get(tenant)
        package, app = next(iter(vdrone.env.apps.items()))
        cached_for_uid = [key for key in cache._entries
                          if key[0] == tenant and key[1] == app.uid]
        assert cached_for_uid, "soak should have cached this app's grants"
        before = cache.invalidations
        vdrone.env.activity_manager.revoke_all(package)
        assert cache.invalidations > before
        assert not [key for key in cache._entries
                    if key[0] == tenant and key[1] == app.uid]
        # A fresh check must now see the revocation, not a stale grant.
        granted = cache.lookup(tenant, app.uid, Permission.BODY_SENSORS)
        assert granted is None
