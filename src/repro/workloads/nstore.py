"""A minimal N-Store-style tuple storage engine.

The paper's YCSB and TPC-C runs use an N-Store database as the back-end
store [7], with each thread executing transactions against its tables.
What the memory-system evaluation needs from the database is its *data
plane*: fixed-size tuples in persistent memory, updated inside failure-
atomic transactions.  ``Table`` provides exactly that.

The primary-key index is DRAM-resident (a Python dict), mirroring how
N-Store and LSNVMM keep indexes in volatile memory and rebuild them on
recovery; index maintenance therefore costs no NVM traffic.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import AllocationError
from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction
from repro.workloads.structures.util import load_item, store_item


class Table:
    """Fixed-size-tuple table with a volatile primary-key index."""

    def __init__(
        self, system: MemorySystem, name: str, tuple_bytes: int
    ) -> None:
        if tuple_bytes <= 0 or tuple_bytes % 8:
            raise ValueError("tuple size must be a positive word multiple")
        self.system = system
        self.name = name
        self.tuple_bytes = tuple_bytes
        self._index: Dict[int, int] = {}
        self.inserts = 0
        self.updates = 0
        self.reads = 0

    # -- operations --------------------------------------------------------------

    def insert(self, tx: Transaction, key: int, payload: bytes) -> int:
        """Insert a tuple; returns its address."""
        if key in self._index:
            raise AllocationError(
                f"duplicate key {key} in table {self.name!r}"
            )
        if len(payload) != self.tuple_bytes:
            raise ValueError(
                f"payload must be {self.tuple_bytes} bytes"
            )
        addr = self.system.allocate(self.tuple_bytes)
        store_item(tx, addr, payload)
        self._index[key] = addr
        self.inserts += 1
        return addr

    def update_slice(
        self, tx: Transaction, key: int, offset: int, data: bytes
    ) -> None:
        """Overwrite part of a tuple (a field update)."""
        if offset < 0 or offset + len(data) > self.tuple_bytes:
            raise ValueError("slice outside tuple")
        store_item(tx, self._addr(key) + offset, data)
        self.updates += 1

    def read(self, tx: Transaction, key: int) -> bytes:
        self.reads += 1
        return load_item(tx, self._addr(key), self.tuple_bytes)

    def read_slice(
        self, tx: Transaction, key: int, offset: int, size: int
    ) -> bytes:
        if offset < 0 or offset + size > self.tuple_bytes:
            raise ValueError("slice outside tuple")
        self.reads += 1
        return load_item(tx, self._addr(key) + offset, size)

    def read_u64(self, tx: Transaction, key: int, offset: int) -> int:
        return int.from_bytes(self.read_slice(tx, key, offset, 8), "little")

    def update_u64(
        self, tx: Transaction, key: int, offset: int, value: int
    ) -> None:
        self.update_slice(tx, key, offset, int(value).to_bytes(8, "little"))

    # -- index -----------------------------------------------------------------

    def _addr(self, key: int) -> int:
        addr = self._index.get(key)
        if addr is None:
            raise KeyError(f"key {key} not in table {self.name!r}")
        return addr
