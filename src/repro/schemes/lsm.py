"""LSM: software log-structured NVM (LSNVMM [17]).

All transactional writes are appended to a log; a DRAM-cached skip list
maps home word addresses to their newest log location.  The decisive cost
is the **read path**: every LLC miss that hits logged data pays an
O(log N) index walk — the paper's "multiple memory accesses to obtain the
data location" — plus the log read itself.  Writes are cheap-ish: one
log append per store (word data + software header, no packing), with a
commit record at ``Tx_end``.

GC runs at the same cadence as HOOP's (the paper equalizes the
frequencies for fairness): committed log entries are coalesced per word
and the newest versions migrated to their home addresses, after which
index entries are dropped and the log truncated.

Recovery scans the log, replays committed transactions in commit order,
and rebuilds an empty index (the DRAM index died with the power).

Paper analogue: LSNVMM [17] (log-structured NVM).  Declared durability
discipline: ``log-drain`` — here trivially satisfied: the whole
transaction is one synchronous checksummed log append that doubles as
the commit record, so data and commit become durable in a single fenced
persist.  The persist-ordering sanitizer (:mod:`repro.check`) still
checks coverage and the synchronous commit on every transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.addr import (
    CACHE_LINE_BYTES,
    WORD_BYTES,
    cache_line_base,
    iter_words,
)
from repro.common.config import SystemConfig
from repro.memctrl.scheduler import PeriodicTrigger
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, RecoveryOutcome, SchemeTraits
from repro.schemes.appendlog import KIND_COMMIT, AppendLog
from repro.schemes.skiplist import SkipList
from repro.snapshot import reset_volatile

# DRAM access cost per skip-list hop: the index is a pointer chase through
# DRAM-resident nodes (upper levels are effectively cache-resident).
_HOP_NS = 5.0
# Software bookkeeping per logged store (allocation, header fill).
_APPEND_SW_NS = 2.0
_LOG_PRESSURE = 0.85


class LSMScheme(PersistenceScheme):
    """Append-everything log with a DRAM skip-list index."""

    name = "lsm"
    traits = SchemeTraits(
        approach="Log-structured NVM",
        read_latency="High",
        extra_writes_on_critical_path=False,
        requires_flush_fence=False,
        write_traffic="Medium",
        durability="log-drain",
    )

    def __init__(self, config: SystemConfig, device: NVMDevice) -> None:
        super().__init__(config, device)
        self.log = AppendLog(
            self.port, config.oop_region_base, config.oop_region_bytes
        )
        # word addr -> (value, commit seq, tx_id); the DRAM index.
        self.index: SkipList[Tuple[bytes, int, int]] = SkipList(seed=0xC0FFEE)
        self._open_words: Dict[int, Dict[int, bytes]] = {}
        # Streaming extents per open transaction: consecutive stores to
        # adjacent addresses coalesce into one log record, as a write()
        # style interface would see them; scattered stores do not.
        self._open_extents: Dict[int, List[List]] = {}
        self._first_offset: Dict[int, int] = {}
        self._committed_words: Dict[int, List[Tuple[int, bytes]]] = {}
        self._commit_order: List[int] = []
        self._commit_seq = 0
        self._gc_trigger = PeriodicTrigger(config.hoop.gc.period_ns)
        self.gc_passes = 0
        self.words_migrated = 0
        self.words_scanned = 0

    # -- transactional API -------------------------------------------------------

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        tx_id, now_ns = super().tx_begin(core, now_ns)
        self._open_words[tx_id] = {}
        self._open_extents[tx_id] = []
        return tx_id, now_ns

    def on_store(
        self,
        core: int,
        tx_id: int,
        addr: int,
        size: int,
        line_addr: int,
        line_data: bytes,
        now_ns: float,
    ) -> float:
        self.stats.tx_stores += 1
        words = self._open_words[tx_id]
        extents = self._open_extents[tx_id]
        for word_addr in iter_words(addr, size):
            offset = word_addr - line_addr
            value = line_data[offset : offset + WORD_BYTES]
            words[word_addr] = value
            if extents and word_addr == (
                extents[-1][0] + 8 * len(extents[-1][1])
            ):
                extents[-1][1].append(value)
            else:
                extents.append([word_addr, [value]])
            now_ns += _APPEND_SW_NS
        return now_ns

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        words_map = self._open_words.get(tx_id, {})
        if words_map:
            if self.log.fill_fraction >= _LOG_PRESSURE:
                now_ns = self._run_gc(now_ns, blocking=True)
            # LSNVMM batches a transaction's updates into one log entry of
            # *extents*: contiguous word runs, each behind a 32-byte
            # header (base address, length, version, index back-pointer —
            # the log node the DRAM skip list points at).  The entry's own
            # checksum makes the append the atomic commit record.
            payload = bytearray()
            for run_start, run_values in self._open_extents.get(tx_id, []):
                payload += run_start.to_bytes(8, "little")
                payload += len(run_values).to_bytes(8, "little")
                payload += bytes(16)  # version + index back-pointer
                payload += b"".join(run_values)
            _, now_ns = self.log.append(
                KIND_COMMIT, tx_id, 0, bytes(payload), now_ns, sync=True
            )
            if self.check.active:
                # One sync append carries every extent *and* is the commit
                # record — data and commit are durable together.
                for run_start, run_values in self._open_extents.get(
                    tx_id, []
                ):
                    self.check.note_persist(
                        tx_id, "log", run_start, 8 * len(run_values),
                        now_ns, sync=True, port=self.port,
                    )
                self.check.note_persist(
                    tx_id, "commit", -1, 0, now_ns, sync=True,
                    port=self.port,
                )
        words = self._open_words.pop(tx_id, {})
        self._open_extents.pop(tx_id, None)
        self._first_offset.pop(tx_id, None)
        if words:
            self._commit_seq += 1
            seq = self._commit_seq
            items = list(words.items())
            self._committed_words[tx_id] = items
            self._commit_order.append(tx_id)
            charged_descent = False
            for word_addr, value in items:
                hops = self.index.insert(word_addr, (value, seq, tx_id))
                if charged_descent:
                    now_ns += _HOP_NS  # neighbors: level-0 hops
                else:
                    now_ns += hops * _HOP_NS
                    charged_descent = True
        return now_ns

    # -- read path ---------------------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        line_addr = cache_line_base(line_addr)
        overlays: List[Tuple[int, bytes]] = []
        extra = 0.0
        # Open transactions first (their words are not indexed yet).
        for words in self._open_words.values():
            for word_addr, value in words.items():
                if cache_line_base(word_addr) == line_addr:
                    overlays.append((word_addr, value))
        # The index walk: one full O(log N) descent finds the line's
        # extent; sibling words are reached by level-0 successor hops.
        items, hops = self.index.range_items(
            line_addr, line_addr + CACHE_LINE_BYTES
        )
        extra += hops * _HOP_NS
        for word_addr, value in items:
            overlays.append((word_addr, value[0]))
        data, completion = self.port.read(line_addr, CACHE_LINE_BYTES, now_ns)
        line = bytearray(data)
        for word_addr, value in overlays:
            offset = word_addr - line_addr
            line[offset : offset + WORD_BYTES] = value
        return bytes(line), (completion - now_ns) + extra

    def on_evict(
        self,
        line_addr: int,
        data: bytes,
        dirty: bool,
        persistent: bool,
        tx_id: int,
        now_ns: float,
    ) -> None:
        if not dirty:
            return
        if persistent:
            # Log-structured rule: data lives in the log until GC migrates
            # it; in-place eviction writes would race the log's authority.
            return
        self.port.async_write(line_addr, data, now_ns)

    # -- GC -----------------------------------------------------------------------

    def tick(self, now_ns: float) -> None:
        if self._gc_trigger.due(now_ns):
            self._gc_trigger.fire(now_ns)
            self._run_gc(now_ns, blocking=False)

    def quiesce(self, now_ns: float) -> float:
        return self._run_gc(now_ns, blocking=True)

    def _run_gc(self, now_ns: float, *, blocking: bool) -> float:
        """Coalesce committed words, migrate home, drop index entries."""
        if not self._commit_order:
            return now_ns
        self.gc_passes += 1
        winners: Dict[int, bytes] = {}
        migrated_txs = list(self._commit_order)
        for tx_id in reversed(migrated_txs):
            for word_addr, value in self._committed_words.pop(tx_id, []):
                self.words_scanned += 1
                if word_addr not in winners:
                    winners[word_addr] = value
        migrated_set = set(migrated_txs)
        for word_addr, value in winners.items():
            self.port.async_write(word_addr, value, now_ns)
            current, hops = self.index.lookup(word_addr)
            if current is not None and current[2] in migrated_set:
                self.index.remove(word_addr)
        self.words_migrated += len(winners)
        self._commit_order.clear()
        drained = self.port.drain(now_ns)
        upto = min(self._first_offset.values()) if self._first_offset else None
        done = self.log.truncate(drained, upto=upto)
        return done if blocking else now_ns

    # -- crash & recovery -----------------------------------------------------------

    # The DRAM index, the open transactions and the commit record are volatile.
    __durable__ = PersistenceScheme.DURABLE + (
        "log", "index", "_commit_seq", "_gc_trigger", "gc_passes",
        "words_migrated", "words_scanned")

    def crash(self) -> None:
        reset_volatile(self)
        self.index.clear()

    def detach_recovery_memos(self) -> None:
        """Detach the log's scan memo."""
        self.log.detach_memo()

    def recover(
        self, *, threads: int = 1, bandwidth_gb_per_s: Optional[float] = None
    ) -> RecoveryOutcome:
        outcome = RecoveryOutcome(scheme=self.name)
        for entry in self.log.rebuild_and_scan():
            outcome.bytes_scanned += entry.total_bytes
            if entry.kind != KIND_COMMIT:
                continue
            # Batched extents; the entry's own checksum made its append
            # atomic, so a decoded entry is a committed transaction.
            payload = entry.payload
            i = 0
            while i + 32 <= len(payload):
                base = int.from_bytes(payload[i : i + 8], "little")
                count = int.from_bytes(payload[i + 8 : i + 16], "little")
                i += 32
                for w in range(count):
                    if i + 8 > len(payload):
                        break
                    self.device.poke(base + w * 8, payload[i : i + 8])
                    outcome.bytes_written += 8
                    i += 8
            outcome.committed_transactions += 1
        self.log.reset()
        outcome.elapsed_ns = (
            outcome.bytes_scanned + outcome.bytes_written
        ) / self.recovery_bytes_per_ns(bandwidth_gb_per_s)
        return outcome

# -- snapshot declarations ----------------------------------------------------
LSMScheme.__snapshot_state__ = "__all__"
