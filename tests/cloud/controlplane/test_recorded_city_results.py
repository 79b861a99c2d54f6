"""Recorded results of the seeded ``city-orders`` cities.

These digests were recorded from the code as it was while the city
invariant monitor still re-checked every tenant record on every sweep.
They pin that the incremental monitor, the rollup and the watchdog
still produce exactly the same run: same journal digest, same
``invariant_checks`` count, same violation list and same shard
snapshots, all of which are inside ``CityResult.to_json()``.

The seeds are the benchmark's default and held-out seeds and the first
sub-seed of each (``seed + 1000003``).  Each digest is the SHA-256 of
``CityResult.to_json()`` for the default :class:`CityScenario`.

When the run began ending at the watchdog tick that sees the last order
settle, instead of draining the stopped loops' queued runs, the digests
were re-recorded for that one field: ``duration_s`` went from 750, 735,
746 and 745 s to 746, 732, 744 and 742 s (seeds in the order below), and
each new result with its old ``duration_s`` put back hashes to the old
digest.
"""

import hashlib

import pytest

from repro.loadgen import CityScenario, run_city

#: seed -> SHA-256 of ``run_city(CityScenario(seed=seed)).to_json()``.
CITY_RESULT_DIGESTS = {
    42: "64ba747917174ebb78827a1e25904d83618afeb839d6dbb0ab5f12eaca323ab0",
    42 + 1000003:
        "acf66034bc97638229cbd86d6b4f809daeff487f3a4464de27435e1f5d67b068",
    1234: "fd957cea15d07dd33e8b319784fc38d2187ee15b0f0c130a53c58ed1ed4be38e",
    1234 + 1000003:
        "2424e0a53b8b07f84477c57c78c921727618265b55c6d328ed4318145686f5ce",
}


@pytest.mark.parametrize("seed", sorted(CITY_RESULT_DIGESTS))
def test_city_result_matches_recorded_digest(seed):
    result = run_city(CityScenario(seed=seed))
    digest = hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()
    assert digest == CITY_RESULT_DIGESTS[seed]
