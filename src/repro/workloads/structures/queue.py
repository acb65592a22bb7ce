"""Persistent linked FIFO queue (Table III "Queue [47]": 4 stores/TX).

Layout: a header line holding head/tail/count words, nodes of
``[next | value…]``.  An enqueue with the default 16-byte value issues
exactly four word stores (two value words, the predecessor's next link,
the tail pointer) plus the count — matching the paper's store count for
its queue microbenchmark.
"""

from __future__ import annotations

from typing import Optional

from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction
from repro.workloads.structures.util import NULL, load_item, store_item

_HEAD = 0
_TAIL = 8
_COUNT = 16
_HEADER_BYTES = 64

_NEXT = 0
_VALUE = 8


class PersistentQueue:
    """Singly-linked persistent FIFO with fixed-size values."""

    def __init__(self, system: MemorySystem, value_bytes: int = 16) -> None:
        if value_bytes <= 0:
            raise ValueError("value size must be positive")
        self.system = system
        self.value_bytes = value_bytes
        self.node_bytes = _VALUE + value_bytes
        self.base = system.allocate(_HEADER_BYTES)
        with system.transaction() as tx:
            tx.store_u64(self.base + _HEAD, NULL)
            tx.store_u64(self.base + _TAIL, NULL)
            tx.store_u64(self.base + _COUNT, 0)

    # -- operations --------------------------------------------------------------

    def enqueue(self, tx: Transaction, value: bytes) -> None:
        if len(value) != self.value_bytes:
            raise ValueError(f"value must be {self.value_bytes} bytes")
        node = self.system.allocate(self.node_bytes)
        tx.store_u64(node + _NEXT, NULL)
        store_item(tx, node + _VALUE, value)
        tail = tx.load_u64(self.base + _TAIL)
        if tail == NULL:
            tx.store_u64(self.base + _HEAD, node)
        else:
            tx.store_u64(tail + _NEXT, node)
        tx.store_u64(self.base + _TAIL, node)

    def dequeue(self, tx: Transaction) -> Optional[bytes]:
        head = tx.load_u64(self.base + _HEAD)
        if head == NULL:
            return None
        value = load_item(tx, head + _VALUE, self.value_bytes)
        nxt = tx.load_u64(head + _NEXT)
        tx.store_u64(self.base + _HEAD, nxt)
        if nxt == NULL:
            tx.store_u64(self.base + _TAIL, NULL)
        self.system.free(head, self.node_bytes)
        return value

    def update_count(self, tx: Transaction, delta: int) -> int:
        """Maintain the count word (its own store, per the 4-stores mix)."""
        count = tx.load_u64(self.base + _COUNT)
        count = max(0, count + delta)
        tx.store_u64(self.base + _COUNT, count)
        return count

    def length(self, tx: Transaction) -> int:
        return tx.load_u64(self.base + _COUNT)
