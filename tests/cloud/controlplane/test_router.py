"""Consistent-hash router: stability under shard add/remove.

The elastic-resharding properties the control plane leans on: routing
is a pure function of (key, membership, vnodes) — no process state, no
``hash()`` randomization — removing a shard moves *only* the keys that
shard owned, and adding it back restores the exact previous mapping.
The router memoizes each key's shard until membership changes, so these
tests also pin that the memo never serves a stale answer and that it
really saves the ring walks.
"""

import random

import pytest

from repro.cloud.controlplane import (
    ConsistentHashRouter,
    ControlPlaneConfigError,
    UnknownShardError,
    ring,
)
from repro.loadgen import CityScenario, run_city

SHARDS = ["shard-0", "shard-1", "shard-2", "shard-3"]
KEYS = [f"user{i:04d}" for i in range(500)]


def make_router(shards=None, vnodes=64):
    return ConsistentHashRouter(shards or list(SHARDS), vnodes=vnodes)


class TestRouting:
    def test_route_is_deterministic_across_instances(self):
        a, b = make_router(), make_router()
        assert a.table(KEYS) == b.table(KEYS)

    def test_insertion_order_does_not_matter(self):
        forward = make_router(list(SHARDS))
        backward = make_router(list(reversed(SHARDS)))
        assert forward.table(KEYS) == backward.table(KEYS)

    def test_every_shard_owns_keys(self):
        load = make_router().load(KEYS)
        assert sorted(load) == sorted(SHARDS)
        assert all(count > 0 for count in load.values())
        assert sum(load.values()) == len(KEYS)

    def test_vnodes_keep_partitions_balanced(self):
        load = make_router().load(KEYS)
        assert max(load.values()) < 3 * min(load.values())


class TestMembershipChanges:
    def test_remove_moves_only_owned_keys(self):
        router = make_router()
        before = router.table(KEYS)
        router.remove_shard("shard-2")
        after = router.table(KEYS)
        for key in KEYS:
            if before[key] != "shard-2":
                assert after[key] == before[key], key
            else:
                assert after[key] != "shard-2", key

    def test_re_adding_restores_exact_prior_mapping(self):
        router = make_router()
        before = router.table(KEYS)
        router.remove_shard("shard-1")
        router.add_shard("shard-1")
        assert router.table(KEYS) == before

    def test_add_moves_only_keys_the_new_shard_claims(self):
        router = make_router(["shard-0", "shard-1"])
        before = router.table(KEYS)
        router.add_shard("shard-9")
        after = router.table(KEYS)
        for key in KEYS:
            assert after[key] in (before[key], "shard-9"), key
        assert any(after[key] == "shard-9" for key in KEYS)

    def test_remove_unknown_shard_is_typed(self):
        with pytest.raises(UnknownShardError):
            make_router().remove_shard("shard-99")

    def test_duplicate_add_is_typed(self):
        with pytest.raises(ControlPlaneConfigError):
            make_router().add_shard("shard-0")

    def test_cannot_remove_last_shard(self):
        router = make_router(["only"])
        with pytest.raises(ControlPlaneConfigError):
            router.remove_shard("only")

    def test_empty_ring_is_typed(self):
        with pytest.raises(ControlPlaneConfigError):
            ConsistentHashRouter([])


class TestMemo:
    @pytest.mark.parametrize("seed", range(8))
    def test_memo_matches_fresh_router_after_membership_changes(self, seed):
        rng = random.Random(seed)
        spare = [f"shard-{i}" for i in range(4, 8)]
        router = make_router()
        router.table(KEYS)          # fill the memo before the first change
        for _ in range(12):
            members = router.shard_ids()
            if spare and (len(members) == 1 or rng.random() < 0.5):
                router.add_shard(spare.pop(rng.randrange(len(spare))))
            else:
                removed = members[rng.randrange(len(members))]
                router.remove_shard(removed)
                spare.append(removed)
            fresh = make_router(router.shard_ids())
            assert router.table(KEYS) == fresh.table(KEYS)

    def test_city_run_hashes_each_key_once_per_membership(self, monkeypatch):
        calls = []
        real_point = ring._point

        def counting_point(data):
            calls.append(data)
            return real_point(data)

        monkeypatch.setattr(ring, "_point", counting_point)
        scenario = CityScenario(seed=42, shards=2, drones=8, orders=24,
                                migration_every=8, capacity=3,
                                max_pending=12)
        result = run_city(scenario)
        result.assert_clean()
        # Every sweep re-routes every record; without the memo each of
        # those lookups would hash its user name again.
        assert result.invariant_checks > 10
        assert len(calls) <= (scenario.orders
                              + scenario.shards * ring.DEFAULT_VNODES)
