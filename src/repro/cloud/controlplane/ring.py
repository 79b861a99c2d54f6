"""Consistent-hash routing of tenants onto control-plane shards.

The city control plane partitions portal/VDR/planner state across N
shard workers.  Users are mapped to shards by position on a hash ring
(SHA-256, so the mapping is identical on every host and every run —
``hash()`` randomization never enters the picture).  Each shard owns
``vnodes`` points on the ring, which evens out the partition sizes; the
consistent-hashing property is what makes elastic resharding cheap:
removing a shard moves *only* the keys that shard owned, and adding it
back restores the exact previous mapping.

Because a key's shard depends only on (key, membership, vnodes), the
router memoizes each answer until the membership next changes.  The same
few hundred users are routed again and again: once per order attempt,
and by the city invariant monitor for each record it re-checks, which is
every record after a membership change.  Without the memo each of those
lookups would re-hash its user name.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.cloud.controlplane.errors import (
    ControlPlaneConfigError,
    UnknownShardError,
)

#: Ring points per shard.  64 keeps the largest/smallest partition ratio
#: under ~1.3 for small shard counts while the ring stays tiny.
DEFAULT_VNODES = 64


def _point(data: str) -> int:
    """A stable 64-bit ring coordinate for ``data``."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRouter:
    """Maps string keys (users, tenants) to shard ids on a hash ring."""

    def __init__(self, shard_ids: Iterable[str], vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ControlPlaneConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._shards: Dict[str, List[int]] = {}
        #: key -> shard under the current membership; cleared on change.
        self._routes: Dict[str, str] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)
        if not self._shards:
            raise ControlPlaneConfigError("router needs at least one shard")

    # -- membership -----------------------------------------------------------
    def shard_ids(self) -> List[str]:
        return sorted(self._shards)

    def add_shard(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ControlPlaneConfigError(
                f"shard {shard_id!r} already on the ring")
        points = [_point(f"{shard_id}#{v}") for v in range(self.vnodes)]
        self._shards[shard_id] = points
        for point in points:
            bisect.insort(self._points, (point, shard_id))
        self._routes.clear()

    def remove_shard(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise UnknownShardError(shard_id)
        if len(self._shards) == 1:
            raise ControlPlaneConfigError(
                "cannot remove the last shard from the ring")
        points = set(self._shards.pop(shard_id))
        self._points = [(p, s) for p, s in self._points
                        if not (s == shard_id and p in points)]
        self._routes.clear()

    # -- routing --------------------------------------------------------------
    def route(self, key: str) -> str:
        """The shard owning ``key``: the first ring point at or after
        the key's coordinate, wrapping at the top of the ring."""
        shard_id = self._routes.get(key)
        if shard_id is None:
            shard_id = self._routes[key] = self._walk(key)
        return shard_id

    def _walk(self, key: str) -> str:
        coordinate = _point(key)
        index = bisect.bisect_left(self._points, (coordinate, ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def table(self, keys: Iterable[str]) -> Dict[str, str]:
        """key -> shard for every key (tests and rebalance audits)."""
        return {key: self.route(key) for key in keys}

    def load(self, keys: Iterable[str]) -> Dict[str, int]:
        """Keys owned per shard — every shard reported, even if empty."""
        counts = {shard_id: 0 for shard_id in self._shards}
        for key in keys:
            counts[self.route(key)] += 1
        return counts
