"""Multi-threaded workload driver and the Table III workload registry.

Threads are simulated cores with independent clocks.  The driver always
runs the thread whose clock is furthest behind (min-clock scheduling), so
shared-resource state — above all the NVM channel's busy horizon — is
updated in nearly nondecreasing time order across threads, the standard
conservative approach for this kind of functional simulation.

:func:`make_workload` builds any paper workload by name; every workload
object exposes ``setup(core)`` and ``do_transaction(core, rng)``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common import rng as rng_util
from repro.txn.system import MemorySystem
from repro.workloads.structures import (
    PersistentBTree,
    PersistentHashMap,
    PersistentQueue,
    PersistentRBTree,
    PersistentVector,
)
from repro.workloads.tpcc import TPCCNewOrderWorkload
from repro.workloads.ycsb import YCSBWorkload
from repro.workloads.zipfian import ZipfianGenerator

WORKLOAD_NAMES = (
    "vector",
    "hashmap",
    "queue",
    "rbtree",
    "btree",
    "ycsb",
    "tpcc",
)


# -- microbenchmark wrappers ----------------------------------------------------


class VectorWorkload:
    """Insert/update entries against a persistent vector (8 stores/TX)."""

    name = "vector"

    def __init__(
        self,
        system: MemorySystem,
        *,
        capacity: int = 32768,
        item_bytes: int = 64,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.item_bytes = item_bytes
        self.vector = PersistentVector(system, capacity, item_bytes)
        self._setup_rng = rng_util.make_rng(rng_util.derive(seed, "setup"))
        self.prefill = max(1, capacity // 2)
        self._zipf = ZipfianGenerator(
            max(2, self.prefill),
            rng=rng_util.make_rng(rng_util.derive(seed, "slots")),
        )

    def setup(self, core: int = 0) -> None:
        for _ in range(self.prefill):
            item = rng_util.random_bytes(self._setup_rng, self.item_bytes)
            with self.system.transaction(core) as tx:
                self.vector.insert(tx, item)

    def do_transaction(self, core: int, rng: random.Random) -> None:
        item = rng_util.random_bytes(rng, self.item_bytes)
        with self.system.transaction(core) as tx:
            length = self.vector.length(tx)
            if length < self.vector.capacity and rng.random() < 0.5:
                self.vector.insert(tx, item)
            else:
                slot = self._zipf.next_scrambled() % length
                self.vector.update(tx, slot, item)


class HashmapWorkload:
    """Insert/update entries against a chained hash map (8 stores/TX)."""

    name = "hashmap"

    def __init__(
        self,
        system: MemorySystem,
        *,
        keyspace: int = 32768,
        buckets: int = 8192,
        value_bytes: int = 64,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.keyspace = keyspace
        self.value_bytes = value_bytes
        self.map = PersistentHashMap(system, buckets, value_bytes)
        self._setup_rng = rng_util.make_rng(rng_util.derive(seed, "setup"))
        self._zipf = ZipfianGenerator(
            keyspace, rng=rng_util.make_rng(rng_util.derive(seed, "keys"))
        )

    def setup(self, core: int = 0) -> None:
        for key in range(self.keyspace // 2):
            value = rng_util.random_bytes(self._setup_rng, self.value_bytes)
            with self.system.transaction(core) as tx:
                self.map.insert(tx, key, value)

    def do_transaction(self, core: int, rng: random.Random) -> None:
        # Skewed key popularity: repeated updates of hot entries are what
        # the paper's GC coalescing numbers (Table IV) presuppose.
        key = self._zipf.next_scrambled()
        value = rng_util.random_bytes(rng, self.value_bytes)
        with self.system.transaction(core) as tx:
            self.map.insert(tx, key, value)


class QueueWorkload:
    """Enqueue/dequeue against a persistent FIFO (4 stores/TX)."""

    name = "queue"

    def __init__(
        self,
        system: MemorySystem,
        *,
        value_bytes: int = 16,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.value_bytes = value_bytes
        self.queue = PersistentQueue(system, value_bytes)
        self._setup_rng = rng_util.make_rng(rng_util.derive(seed, "setup"))

    def setup(self, core: int = 0) -> None:
        for _ in range(64):
            value = rng_util.random_bytes(self._setup_rng, self.value_bytes)
            with self.system.transaction(core) as tx:
                self.queue.enqueue(tx, value)
                self.queue.update_count(tx, +1)

    def do_transaction(self, core: int, rng: random.Random) -> None:
        with self.system.transaction(core) as tx:
            if rng.random() < 0.6 or self.queue.length(tx) == 0:
                value = rng_util.random_bytes(rng, self.value_bytes)
                self.queue.enqueue(tx, value)
                self.queue.update_count(tx, +1)
            else:
                self.queue.dequeue(tx)
                self.queue.update_count(tx, -1)


class RBTreeWorkload:
    """Insert/update keys in a red-black tree (2–10 stores/TX)."""

    name = "rbtree"

    def __init__(
        self,
        system: MemorySystem,
        *,
        keyspace: int = 65536,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.keyspace = keyspace
        self.tree = PersistentRBTree(system)
        self._setup_rng = rng_util.make_rng(rng_util.derive(seed, "setup"))
        self._zipf = ZipfianGenerator(
            keyspace, rng=rng_util.make_rng(rng_util.derive(seed, "keys"))
        )

    def setup(self, core: int = 0) -> None:
        for _ in range(self.keyspace // 2):
            key = self._setup_rng.randrange(self.keyspace)
            with self.system.transaction(core) as tx:
                self.tree.insert(tx, key, key * 3)

    def do_transaction(self, core: int, rng: random.Random) -> None:
        # 35% inserts / 65% in-place updates lands the per-transaction
        # store count in Table III's range for the tree workloads; keys
        # follow a Zipfian popularity so hot entries rewrite (Table IV).
        key = self._zipf.next_scrambled()
        with self.system.transaction(core) as tx:
            if rng.random() < 0.35:
                self.tree.insert(tx, key, rng.getrandbits(63))
            elif not self.tree.update(tx, key, rng.getrandbits(63)):
                self.tree.insert(tx, key, rng.getrandbits(63))


class BTreeWorkload:
    """Insert/update keys in a B-tree (2–12 stores/TX)."""

    name = "btree"

    def __init__(
        self,
        system: MemorySystem,
        *,
        keyspace: int = 65536,
        degree: int = 4,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.keyspace = keyspace
        self.tree = PersistentBTree(system, t=degree)
        self._setup_rng = rng_util.make_rng(rng_util.derive(seed, "setup"))
        self._zipf = ZipfianGenerator(
            keyspace, rng=rng_util.make_rng(rng_util.derive(seed, "keys"))
        )

    def setup(self, core: int = 0) -> None:
        for _ in range(self.keyspace // 2):
            key = self._setup_rng.randrange(self.keyspace)
            with self.system.transaction(core) as tx:
                self.tree.insert(tx, key, key * 3)

    def do_transaction(self, core: int, rng: random.Random) -> None:
        # 35% inserts / 65% in-place updates lands the per-transaction
        # store count in Table III's range for the tree workloads; keys
        # follow a Zipfian popularity so hot entries rewrite (Table IV).
        key = self._zipf.next_scrambled()
        with self.system.transaction(core) as tx:
            if rng.random() < 0.35:
                self.tree.insert(tx, key, rng.getrandbits(63))
            elif not self.tree.update(tx, key, rng.getrandbits(63)):
                self.tree.insert(tx, key, rng.getrandbits(63))


def make_workload(
    name: str,
    system: MemorySystem,
    *,
    item_bytes: int = 64,
    seed: int = 0,
    **overrides,
):
    """Build a Table III workload by name.

    ``item_bytes`` selects the dataset variant (the paper uses 64 B and
    1 KB items for the synthetic workloads and 512 B / 1 KB values for
    YCSB); extra keyword arguments reach the workload constructor.
    """
    if name == "vector":
        return VectorWorkload(
            system, item_bytes=item_bytes, seed=seed, **overrides
        )
    if name == "hashmap":
        return HashmapWorkload(
            system, value_bytes=item_bytes, seed=seed, **overrides
        )
    if name == "queue":
        return QueueWorkload(system, seed=seed, **overrides)
    if name == "rbtree":
        return RBTreeWorkload(system, seed=seed, **overrides)
    if name == "btree":
        return BTreeWorkload(system, seed=seed, **overrides)
    if name == "ycsb":
        return YCSBWorkload(
            system, value_bytes=max(item_bytes, 512), seed=seed, **overrides
        )
    if name == "tpcc":
        return TPCCNewOrderWorkload(system, seed=seed, **overrides)
    raise KeyError(
        f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}"
    )


# -- the driver ------------------------------------------------------------------


@dataclass
class RunResult:
    """One measured run of one workload under one scheme."""

    scheme: str
    workload: str
    threads: int
    transactions: int
    makespan_ns: float
    mean_latency_ns: float
    max_latency_ns: float
    bytes_written: int
    bytes_read: int
    energy_pj: float
    llc_miss_ratio: float
    extras: Dict[str, float] = field(default_factory=dict)
    # Populated only when the system runs with a live Telemetry hub: the
    # hub's summary() dict (histograms, counters, series); None otherwise.
    telemetry: Optional[Dict] = None

    @property
    def throughput_tx_per_ms(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return self.transactions / (self.makespan_ns / 1e6)

    @property
    def bytes_per_tx(self) -> float:
        if not self.transactions:
            return 0.0
        return self.bytes_written / self.transactions


class WorkloadDriver:
    """Runs a workload across simulated threads in min-clock order."""

    def __init__(
        self, system: MemorySystem, *, threads: int = 8, seed: int = 0
    ) -> None:
        if threads < 1 or threads > system.config.num_cores:
            raise ValueError(
                f"threads must be 1..{system.config.num_cores}"
            )
        self.system = system
        self.threads = threads
        self.seed = seed

    def run(
        self,
        workload,
        transactions: int,
        *,
        setup: bool = True,
        warmup: int = 0,
        quiesce: bool = True,
        reset_measurement: bool = True,
    ) -> RunResult:
        """Execute ``transactions`` total transactions; returns metrics."""
        system = self.system
        if setup:
            workload.setup(core=0)
        system.sync_clocks()
        rngs = [
            rng_util.make_rng(rng_util.derive(self.seed, "thread", t))
            for t in range(self.threads)
        ]
        heap = [
            (system.clocks[t], t) for t in range(self.threads)
        ]

        def step(count: int) -> None:
            heap[:] = [(system.clocks[t], t) for t in range(self.threads)]
            heapq.heapify(heap)
            remaining = count
            while remaining > 0:
                _, thread = heapq.heappop(heap)
                workload.do_transaction(thread, rngs[thread])
                heapq.heappush(heap, (system.clocks[thread], thread))
                remaining -= 1

        if warmup:
            step(warmup)
            system.sync_clocks()
        if reset_measurement:
            system.reset_measurement()
        start_ns = max(system.clocks[:self.threads])
        start_tx = system.committed_transactions
        step(transactions)
        if quiesce:
            system.scheme.quiesce(system.now_ns)
        end_ns = max(system.clocks[:self.threads])
        executed = system.committed_transactions - start_tx
        device = system.device
        telemetry = (
            system.telemetry.summary() if system.telemetry.enabled else None
        )
        return RunResult(
            scheme=system.scheme.name,
            workload=getattr(workload, "name", type(workload).__name__),
            threads=self.threads,
            transactions=executed,
            makespan_ns=max(end_ns - start_ns, 1e-9),
            mean_latency_ns=system.mean_latency_ns,
            max_latency_ns=system.latency_max_ns,
            bytes_written=device.stats.bytes_written,
            bytes_read=device.stats.bytes_read,
            energy_pj=device.energy.total_pj,
            llc_miss_ratio=system.hierarchy.stats.llc_miss_ratio,
            telemetry=telemetry,
        )
