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
"""

import hashlib

import pytest

from repro.loadgen import CityScenario, run_city

#: seed -> SHA-256 of ``run_city(CityScenario(seed=seed)).to_json()``.
CITY_RESULT_DIGESTS = {
    42: "4a7404b436f55fbc9fbf291bbf07d1298a3cbc162f9736ab5fb690a0d5929f34",
    42 + 1000003:
        "9fc8c1ca65d713461997564828e244ab698b8c9c5aaf81564ac579a750ea2a0a",
    1234: "f88ed7396ef976260eba2221105b42c53ba42e25c5eca411472d7b0ccbb3e427",
    1234 + 1000003:
        "a7d4433cee097bfc634aa386ff5be72c43e498c6ecf467bffb1bc5ad02a78d88",
}


@pytest.mark.parametrize("seed", sorted(CITY_RESULT_DIGESTS))
def test_city_result_matches_recorded_digest(seed):
    result = run_city(CityScenario(seed=seed))
    digest = hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()
    assert digest == CITY_RESULT_DIGESTS[seed]
