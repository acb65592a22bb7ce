"""Persistent chained hash map (Table III "Hashmap [24]").

Layout: a bucket array of head pointers, nodes of
``[key | next | value…]``.  ``insert`` allocates a node, fills it, and
splices it at the bucket head (the bucket-pointer store is last, so a
torn transaction never exposes a half-written node — though with any of
the real schemes the whole transaction is atomic anyway); inserting an
existing key overwrites its value words in place.
"""

from __future__ import annotations

from typing import Optional

from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction
from repro.workloads.structures.util import NULL, load_item, store_item

_KEY = 0
_NEXT = 8
_VALUE = 16


class PersistentHashMap:
    """Fixed-bucket-count chained hash map with fixed-size values."""

    def __init__(
        self,
        system: MemorySystem,
        buckets: int = 1024,
        value_bytes: int = 64,
    ) -> None:
        if buckets <= 0 or value_bytes <= 0:
            raise ValueError("buckets and value size must be positive")
        self.system = system
        self.buckets = buckets
        self.value_bytes = value_bytes
        self.node_bytes = _VALUE + value_bytes
        self.base = system.allocate(buckets * 8)
        with system.transaction() as tx:
            for b in range(buckets):
                tx.store_u64(self.base + b * 8, NULL)

    def _bucket_addr(self, key: int) -> int:
        # Fibonacci hashing spreads sequential keys across buckets.
        h = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return self.base + (h % self.buckets) * 8

    def _find_node(self, tx: Transaction, key: int) -> Optional[int]:
        node = tx.load_u64(self._bucket_addr(key))
        while node != NULL:
            if tx.load_u64(node + _KEY) == key:
                return node
            node = tx.load_u64(node + _NEXT)
        return None

    # -- operations -----------------------------------------------------------

    def insert(self, tx: Transaction, key: int, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        if len(value) != self.value_bytes:
            raise ValueError(f"value must be {self.value_bytes} bytes")
        existing = self._find_node(tx, key)
        if existing is not None:
            store_item(tx, existing + _VALUE, value)
            return
        node = self.system.allocate(self.node_bytes)
        bucket = self._bucket_addr(key)
        head = tx.load_u64(bucket)
        tx.store_u64(node + _KEY, key)
        tx.store_u64(node + _NEXT, head)
        store_item(tx, node + _VALUE, value)
        tx.store_u64(bucket, node)

    def get(self, tx: Transaction, key: int) -> Optional[bytes]:
        node = self._find_node(tx, key)
        if node is None:
            return None
        return load_item(tx, node + _VALUE, self.value_bytes)
