"""Consistent-hash request router: key -> shard.

The serving layer fronts N independent shard machines; the router
decides which shard owns which key.  A consistent-hash ring (each shard
contributes ``vnodes`` seeded virtual points; a key maps to the first
point clockwise of its own hash) keeps two properties the cluster
relies on:

* **determinism** — the ring is built from :func:`stable_hash`
  (BLAKE2b), never Python's per-process-salted ``hash()``, so the same
  ``(shards, seed)`` pair routes every key identically in every
  process.  This is what lets the durability oracle recompute a key's
  owner after the fact, and what makes serve runs replay
  bit-identically.
* **minimal movement** — growing the cluster from N to N+1 shards
  remaps only ~1/(N+1) of the keyspace (tested), the classic
  consistent-hashing contract that makes resharding a migration of one
  slice rather than a full reshuffle.

Routing never changes when a shard dies: the keys a shard owns are only
durable *on that shard*, so its traffic queues (or is rejected as
``"shard_recovering"``) until recovery brings it back — see
:mod:`repro.serve.admission`.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Tuple


def stable_hash(*parts) -> int:
    """64-bit process-stable hash of a label path (BLAKE2b, not hash())."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"/")
    return int.from_bytes(h.digest(), "little")


class ConsistentHashRouter:
    """Maps integer keys onto shard ids via a consistent-hash ring."""

    def __init__(
        self,
        shard_ids: Sequence[int],
        *,
        vnodes: int = 64,
        seed: int = 0,
    ) -> None:
        if not shard_ids:
            raise ValueError("router needs at least one shard")
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.shard_ids = list(shard_ids)
        self.vnodes = vnodes
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for shard in self.shard_ids:
            for replica in range(vnodes):
                points.append(
                    (stable_hash(seed, "shard", shard, replica), shard)
                )
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]
        # Owner of each key 0..n-1 that partition() walked: requests
        # index it instead of hashing, the ring deciding every other key.
        self._table: List[int] = []

    def shard_for(self, key: int) -> int:
        """The shard owning ``key`` (first ring point clockwise)."""
        table = self._table
        if 0 <= key < len(table):
            return table[key]
        return self._ring_owner(key)

    def _ring_owner(self, key: int) -> int:
        point = stable_hash(self.seed, "key", key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def partition(self, keyspace: int) -> dict:
        """``{shard_id: sorted key list}`` for keys ``0..keyspace-1``.

        The cluster derives each shard's slot directory from this at
        setup; because it is a pure function of ``(shards, seed)``, the
        directory can always be recomputed after a crash — it is
        configuration, not volatile runtime state.  The owners walked
        here become :meth:`shard_for`'s lookup table.
        """
        table = [self._ring_owner(key) for key in range(keyspace)]
        owned = {shard: [] for shard in self.shard_ids}
        for key, shard in enumerate(table):
            owned[shard].append(key)
        self._table = table
        return owned
