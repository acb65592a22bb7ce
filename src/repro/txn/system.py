"""The assembled memory system: device + hierarchy + scheme + clocks.

One :class:`MemorySystem` is one simulated machine.  Each core has its own
clock (nanoseconds); transactional operations advance the issuing core's
clock by cache latency plus whatever the active persistence scheme charges.
Multi-threaded experiments are driven by
:class:`repro.workloads.driver.WorkloadDriver`, which interleaves per-core
work in min-clock order so shared-resource contention (the NVM channel) is
modeled consistently.

Crash/recovery: :meth:`crash` drops every volatile structure — caches and
scheme SRAM — while :meth:`recover` invokes the scheme's recovery protocol
and returns its report.  The pair is what the crash-consistency property
tests drive.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.check.sanitizer import NULL_CHECKER
from repro.common.addr import CACHE_LINE_BYTES, split_by_cache_line
from repro.common.config import SystemConfig
from repro.common.errors import (
    AddressError,
    PowerLossError,
    TransactionError,
)
from repro.faults import make_device
from repro.memhier.hierarchy import CacheHierarchy
from repro.nvm.device import NVMDevice
from repro.schemes import make_scheme
from repro.schemes.base import PersistenceScheme
from repro.telemetry.hub import NULL_TELEMETRY
from repro.txn.allocator import PersistentHeap
from repro.txn.transaction import Transaction

# Instruction overhead charged per transactional memory operation.  The
# paper's workloads run as full x86 programs on McSimA+, so every tracked
# load/store is surrounded by a few dozen application instructions (hash
# computation, comparisons, allocator bookkeeping); ~25 instructions at
# 2.5 GHz and IPC ~1 is 10 ns.  Without this, simulated transactions are
# implausibly short and commit-time persists dominate every ratio.
_OP_OVERHEAD_NS = 10.0

_LINE_MASK = ~(CACHE_LINE_BYTES - 1)


class MemorySystem:
    """A simulated NVM machine running one persistence scheme."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        scheme: Union[str, PersistenceScheme] = "hoop",
        *,
        telemetry=None,
        checker=None,
    ) -> None:
        self.config = config or SystemConfig.paper_default()
        if isinstance(scheme, str):
            # Plain device unless the config opts into fault injection;
            # the plain path is untouched so fault-free simulations stay
            # bit-identical.
            self.device = make_device(self.config)
            self.scheme = make_scheme(scheme, self.config, self.device)
        else:
            # Adopt the scheme's device so durable_state and the traffic
            # counters observe the same NVM the scheme persists into.
            self.scheme = scheme
            self.device = scheme.device
        self.hierarchy = CacheHierarchy(
            self.config, self.scheme.fill_line, self.scheme.on_evict
        )
        self.heap = PersistentHeap(
            base=4096, limit=self.config.home_region_bytes
        )
        # Telemetry: the shared no-op unless an event hub was supplied.
        # `_tel_on` is the one-boolean hot-path guard the inlined
        # load/store paths below check.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel_on = self.telemetry.enabled
        if self._tel_on:
            self.scheme.attach_telemetry(self.telemetry)
            faulty = getattr(self.device, "injector", None)
            if faulty is not None:
                self.device.telemetry = self.telemetry
        # Persist-ordering sanitizer (repro.check): same no-op-singleton
        # pattern as telemetry; `_chk_on` is the hot-path guard.
        self.check = checker if checker is not None else NULL_CHECKER
        self._chk_on = self.check.active
        if self._chk_on:
            self.scheme.attach_checker(self.check)
        self.clocks = [0.0] * self.config.num_cores
        self.committed_transactions = 0
        # Recovery-attempt accounting (nested-fault sweep): how many
        # times recover() was entered and how many of those attempts a
        # nested power cut interrupted before they finished.
        self.recovery_attempts = 0
        self.recovery_interruptions = 0
        # Critical-path latency accumulator (Fig. 7b): sum/count/max of
        # Tx_begin→Tx_end times, cheap enough to leave always-on.
        self.latency_sum_ns = 0.0
        self.latency_count = 0
        self.latency_max_ns = 0.0

    # -- public API ------------------------------------------------------------

    def transaction(self, core: int = 0) -> Transaction:
        """Open a failure-atomic region on ``core`` (context manager)."""
        return Transaction(self, core)

    def run_batch(self, stores, core: int = 0) -> Transaction:
        """Execute ordered ``(addr, data)`` stores as one atomic region.

        The per-request surface of the serving layer
        (:mod:`repro.serve`): a batch of same-shard writes becomes a
        single ``Tx_begin … Tx_end`` transaction, so the whole batch is
        acknowledged — or lost — together.  Returns the closed
        :class:`Transaction`; its ``begin_ns``/``end_ns`` bracket the
        commit, which is the acknowledgement instant.  A
        :class:`~repro.common.errors.PowerLossError` mid-batch
        propagates with the transaction unacknowledged — the caller
        owns ``crash()``/``recover()`` and any retry policy.  The
        exception carries ``issued_stores``, the prefix of ``stores``
        whose store calls had completed when power died (the dying
        store itself excluded — its effects, if any, are torn), which
        is exactly the in-flight set a durability oracle must treat as
        all-or-nothing.  On success the returned transaction carries
        ``write_set`` (the full ordered store list) so callers — the
        replication layer above all — can re-derive the batch's
        word-granular redo records via :meth:`redo_words` without
        shadow bookkeeping.
        """
        stores = list(stores)
        tx = self.transaction(core)
        try:
            with tx:
                for addr, data in stores:
                    tx.store(addr, data)
        except PowerLossError as exc:
            exc.issued_stores = stores[: tx.stores]
            raise
        tx.write_set = stores
        return tx

    @staticmethod
    def redo_words(stores):
        """Word-granular redo export of one batch write set.

        Decomposes ``(addr, data)`` stores into ``(word_addr, 8-byte
        value)`` pairs — the redo records HOOP's controller
        materializes out-of-place, and the exact unit the replication
        layer ships and the acked-write oracle verifies.  Requires
        8-byte-aligned stores of word-multiple length (raises
        ``ValueError`` otherwise).  Pure function; touches no clocks.
        """
        words = []
        for addr, data in stores:
            if addr % 8 or len(data) % 8:
                raise ValueError(
                    "redo export requires 8-byte-aligned word-multiple "
                    f"stores (addr={addr:#x}, len={len(data)})"
                )
            for offset in range(0, len(data), 8):
                words.append((addr + offset, data[offset : offset + 8]))
        return words

    def allocate(self, size: int) -> int:
        """Persistent-heap allocation (home-region address)."""
        return self.heap.allocate(size)

    def free(self, addr: int, size: int) -> None:
        self.heap.free(addr, size)

    def load(self, addr: int, size: int, core: int = 0) -> bytes:
        """Non-transactional read (still goes through the caches)."""
        return self._load(core, addr, size)

    @property
    def now_ns(self) -> float:
        """Simulated wall-clock: the furthest core clock."""
        return max(self.clocks)

    def elapsed_ns(self, core: int) -> float:
        return self.clocks[core]

    # -- crash & recovery ----------------------------------------------------------

    def crash(self) -> None:
        """Power failure: caches and scheme-volatile state vanish.

        Also the reboot instant: an injected power cut is cleared so the
        device accepts writes again (recovery runs on restored power).
        Power is restored *before* the scheme's crash handler runs
        because schemes with a battery-backed persist domain (LAD) finish
        draining committed transactions there — physically that drain
        happens during the outage on backup energy, but applying it at
        reboot is content-identical and keeps the injector simple.
        """
        if self._tel_on:
            self.telemetry.emit(self.now_ns, "crash", "sim")
        self.hierarchy.crash()
        self.device.restore_power()
        self.scheme.crash()

    def recover(
        self,
        *,
        threads: int = 1,
        bandwidth_gb_per_s: Optional[float] = None,
    ):
        """Run the scheme's recovery; returns its report (or None).

        Counts every attempt, and separately every attempt a *nested*
        power cut interrupted (the exception still propagates — the
        caller decides whether to crash() and retry).  The counters land
        on telemetry as ``recovery.attempts`` / ``recovery.interrupted``
        when a hub is attached.
        """
        self.recovery_attempts += 1
        if self._tel_on:
            self.telemetry.count("recovery.attempts")
        try:
            return self.scheme.recover(
                threads=threads, bandwidth_gb_per_s=bandwidth_gb_per_s
            )
        except PowerLossError:
            self.recovery_interruptions += 1
            if self._tel_on:
                self.telemetry.count("recovery.interrupted")
            raise

    def durable_state(self, addr: int, size: int) -> bytes:
        """Raw NVM bytes (no caches) — the post-recovery truth for tests."""
        return self.device.peek(addr, size)

    @property
    def mean_latency_ns(self) -> float:
        if not self.latency_count:
            return 0.0
        return self.latency_sum_ns / self.latency_count

    def sync_clocks(self) -> float:
        """Barrier: align every core clock to the furthest one.

        Used at measurement boundaries (after the load phase, after
        warm-up) — threads start the measured region together, like the
        paper's benchmark harness.  Returns the barrier time.
        """
        horizon = max(self.clocks)
        self.clocks = [horizon] * len(self.clocks)
        return horizon

    def reset_measurement(self) -> None:
        """Zero traffic/latency counters after warm-up or setup."""
        self.scheme.reset_measurement()
        self.hierarchy.reset_stats()
        self.latency_sum_ns = 0.0
        self.latency_count = 0
        self.latency_max_ns = 0.0
        self.telemetry.reset_metrics()

    # -- transaction protocol (called by Transaction) --------------------------------

    def _begin(self, tx: Transaction) -> None:
        core = tx.core
        now = self.clocks[core]
        tx.tx_id, now = self.scheme.tx_begin(core, now)
        tx.begin_ns = now
        self.clocks[core] = now
        if self._chk_on:
            self.check.on_tx_begin(tx.tx_id, now)

    def _end(self, tx: Transaction) -> None:
        core = tx.core
        now = self.clocks[core]
        now = self.scheme.tx_end(core, tx.tx_id, now)
        tx.end_ns = now
        self.clocks[core] = now
        if self._chk_on:
            # Commit returned to the program: every ordering edge the
            # scheme's discipline promises must exist by now.
            self.check.on_tx_committed(tx.tx_id, now)
        self.committed_transactions += 1
        latency = tx.latency_ns
        self.latency_sum_ns += latency
        self.latency_count += 1
        if latency > self.latency_max_ns:
            self.latency_max_ns = latency
        if self._tel_on:
            self.telemetry.on_commit(core, tx.tx_id, tx.begin_ns, now)
        self.scheme.tick(now)

    # Stores and word loads are the innermost operations of every
    # simulation, so ``_store`` and ``_load_u64`` run the L1 probe and
    # the line access inline against ``CacheHierarchy``'s private state
    # and enter it only on an L1 miss.  Routing them through hierarchy
    # methods instead — the tidier module boundary — costs one frame and
    # one tuple per access and lost every ``paper-matrix`` pair, 0.96x
    # to 0.98x (docs/internals.md, "Hot-path layout").  Each access has
    # this one body; the layered forms it replaced are the references in
    # tests/test_hierarchy.py.

    def _store(self, tx: Transaction, addr: int, data: bytes) -> None:
        if not data:
            raise TransactionError("empty transactional store")
        core = tx.core
        tx_id = tx.tx_id
        now = self.clocks[core]
        size = len(data)
        if self._chk_on:
            self.check.on_store(tx_id, addr, size, now)
        h = self.hierarchy
        if not 0 <= core < h._num_cores:
            raise AddressError(f"core {core} out of range")
        line_addr = addr & _LINE_MASK
        if addr >= 0 and (addr + size - 1) & _LINE_MASK == line_addr:
            # The dominant case (workloads store word-sized fields):
            # the whole store is one piece.
            pieces = ((line_addr, addr, size),)
        else:
            pieces = split_by_cache_line(addr, size)
        l1 = h._l1[core]
        start_ns = now
        for line_addr, piece_addr, piece_size in pieces:
            h.stats.stores += 1
            bucket = l1._sets[(line_addr >> l1._shift) & l1._set_mask]
            if line_addr in bucket:
                l1.hits += 1
                bucket.move_to_end(line_addr)
                latency = h._l1_latency
            else:
                l1.misses += 1
                latency = h._miss_resident(core, line_addr, now).latency_ns
            line = h._data[line_addr]
            offset = piece_addr - line_addr
            start = piece_addr - addr
            piece = data[start : start + piece_size]
            line[offset : offset + piece_size] = piece
            flags = h._flags[line_addr]
            flags.dirty = True
            flags.persistent = True
            flags.tx_id = tx_id
            now = self.scheme.on_store(
                core,
                tx_id,
                piece_addr,
                piece_size,
                line_addr,
                bytes(line),
                # Parenthesized: the float the clock has always advanced
                # by is `latency + overhead`, added to `now` in one step.
                now + (latency + _OP_OVERHEAD_NS),
            )
        self.clocks[core] = now
        if self._tel_on:
            self.telemetry.record("store_latency_ns", now - start_ns)

    def _load_u64(self, core: int, addr: int) -> int:
        # The pointer-chase primitive of every tree/list workload: an
        # aligned word never crosses a line, so this is ``_load`` for
        # eight bytes without the bytes object or the AccessOutcome.
        if addr < 0 or addr & 7:
            return int.from_bytes(self._load(core, addr, 8), "little")
        h = self.hierarchy
        if not 0 <= core < h._num_cores:
            raise AddressError(f"core {core} out of range")
        line_addr = addr & _LINE_MASK
        h.stats.loads += 1
        now = self.clocks[core]
        l1 = h._l1[core]
        bucket = l1._sets[(line_addr >> l1._shift) & l1._set_mask]
        if line_addr in bucket:
            l1.hits += 1
            bucket.move_to_end(line_addr)
            latency = h._l1_latency
        else:
            l1.misses += 1
            latency = h._miss_resident(core, line_addr, now).latency_ns
        self.clocks[core] = now + (latency + _OP_OVERHEAD_NS)
        self.scheme.stats.tx_loads += 1
        if self._tel_on:
            self.telemetry.record("load_latency_ns", latency + _OP_OVERHEAD_NS)
        offset = addr - line_addr
        data = h._data[line_addr]
        return int.from_bytes(data[offset : offset + 8], "little")

    def _load(self, core: int, addr: int, size: int) -> bytes:
        now = self.clocks[core]
        if addr >= 0 and size > 0 and (addr + size - 1) & _LINE_MASK == addr & _LINE_MASK:
            # Fast path: single-line load (the dominant case).
            data, outcome = self.hierarchy.load(core, addr, size, now)
            self.clocks[core] = now + (outcome.latency_ns + _OP_OVERHEAD_NS)
            self.scheme.stats.tx_loads += 1
            if self._tel_on:
                self.telemetry.record(
                    "load_latency_ns", outcome.latency_ns + _OP_OVERHEAD_NS
                )
            return data
        chunks = []
        start_ns = now
        for _, piece_addr, piece_size in split_by_cache_line(addr, size):
            data, outcome = self.hierarchy.load(core, piece_addr, piece_size, now)
            now += outcome.latency_ns + _OP_OVERHEAD_NS
            chunks.append(data)
        self.clocks[core] = now
        self.scheme.stats.tx_loads += 1
        if self._tel_on:
            self.telemetry.record("load_latency_ns", now - start_ns)
        return b"".join(chunks)

# -- snapshot declarations ----------------------------------------------------
MemorySystem.__snapshot_state__ = "__all__"
