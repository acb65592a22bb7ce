"""YCSB over the N-Store backend (paper §IV-A).

The paper's configuration: 80% updates / 20% reads, keys drawn from a
Zipfian distribution [11], key-value pairs of 512 bytes and 1 KB, eight
worker threads, each thread running transactions against its database
table.

An *update* transaction overwrites a contiguous field slice of the tuple
(8–32 words, matching Table III's stores/TX for YCSB — applications
update fields, not whole records); a *read* transaction reads the whole
value.
"""

from __future__ import annotations

import random

from repro.common import rng as rng_util
from repro.txn.system import MemorySystem
from repro.workloads.nstore import Table
from repro.workloads.zipfian import ZipfianGenerator


class YCSBWorkload:
    """One thread-set of the YCSB benchmark."""

    name = "ycsb"

    def __init__(
        self,
        system: MemorySystem,
        *,
        records: int = 8192,
        value_bytes: int = 512,
        update_fraction: float = 0.8,
        theta: float = 0.99,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError("update fraction must be in [0, 1]")
        if value_bytes % 8:
            raise ValueError("value size must be a word multiple")
        self.system = system
        self.records = records
        self.value_bytes = value_bytes
        self.update_fraction = update_fraction
        self.table = Table(system, "usertable", value_bytes)
        self._zipf = ZipfianGenerator(
            records, theta, rng=rng_util.make_rng(rng_util.derive(seed, "zipf"))
        )
        self._setup_rng = rng_util.make_rng(rng_util.derive(seed, "setup"))
        # The record schema: a fixed set of 1-2-word fields scattered over
        # the tuple.  Every record shares it (one table, one schema).
        layout_rng = rng_util.make_rng(rng_util.derive(seed, "schema"))
        word_slots = value_bytes // 8
        self._fields = []
        slot = 0
        while slot < word_slots:
            width = min(layout_rng.randint(1, 2), word_slots - slot)
            self._fields.append((slot * 8, width))
            slot += width + layout_rng.randint(0, 2)
        self.update_txs = 0
        self.read_txs = 0

    # -- lifecycle -----------------------------------------------------------------

    def setup(self, core: int = 0) -> None:
        """Load phase: populate the table (one insert per transaction)."""
        for key in range(self.records):
            payload = rng_util.random_bytes(self._setup_rng, self.value_bytes)
            with self.system.transaction(core) as tx:
                self.table.insert(tx, key, payload)

    # -- one transaction -------------------------------------------------------------

    def do_transaction(self, core: int, rng: random.Random) -> None:
        key = self._zipf.next_scrambled()
        if rng.random() < self.update_fraction:
            self._update(core, key, rng)
        else:
            self._read(core, key)

    def _update(self, core: int, key: int, rng: random.Random) -> None:
        # Field updates: 8-32 words total, written to the record's *field*
        # offsets — applications rewrite named fields, not random bytes,
        # which is both the fine-granularity pattern HOOP's word-level
        # packing exploits (§III-C cites [9], [53]) and what makes
        # repeated updates to hot Zipfian records coalesce in GC
        # (Table IV's YCSB reduction ratios).
        total_words = rng.randint(8, min(32, self.value_bytes // 8))
        with self.system.transaction(core) as tx:
            remaining = total_words
            while remaining > 0:
                field_index = rng.randrange(len(self._fields))
                offset, words = self._fields[field_index]
                words = min(words, remaining)
                data = rng_util.random_bytes(rng, words * 8)
                self.table.update_slice(tx, key, offset, data)
                remaining -= words
        self.update_txs += 1

    def _read(self, core: int, key: int) -> None:
        with self.system.transaction(core) as tx:
            self.table.read(tx, key)
        self.read_txs += 1
