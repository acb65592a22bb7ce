"""Garbage collection with data coalescing (paper §III-E, Algorithm 1).

The collector runs periodically (10 ms simulated default) or on demand
(mapping table or OOP region filling up).  One pass:

1. pick the ``BLK_FULL`` data blocks;
2. read the commit log, walk every committed-unretired transaction whose
   slices lie entirely in collectable (FULL/GC) blocks, newest first;
3. **coalesce**: the first version of each home word seen in the
   reverse-time scan is the newest committed one — older versions of the
   same word are dropped without ever being written (this is where the
   Table IV data-reduction ratio comes from);
4. migrate the surviving words to their home addresses, parking each
   affected cache line in the eviction buffer and pruning mapping-table
   entries that described exactly the migrated version (Alg. 1 l. 22–23);
5. durably retire the migrated transactions in the commit log, then
   reclaim every block with no remaining live references (header state
   ``BLK_UNUSED``, cleared from the block index table).

Crash safety: the pass only *adds* home-region bytes that equal committed
OOP data, and retires transactions only after their data is durable at
home; a crash at any point leaves the commit log replayable (§III-E,
"HOOP can simply replay all committed transactions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.addr import cache_line_base
from repro.common.config import SystemConfig
from repro.common.errors import CorruptionError
from repro.core.block_refs import BlockRefs
from repro.core.commit_log import CommitLog, CommittedTx
from repro.core.eviction_buffer import EvictionBuffer
from repro.core.mapping_table import MappingTable
from repro.core.oop_region import BlockState, OOPRegion
from repro.core.slices import SLICE_BYTES, WORD_BYTES, SliceCodec
from repro.memctrl.port import MemoryPort
from repro.memctrl.scheduler import PeriodicTrigger
from repro.telemetry.hub import NULL_TELEMETRY

# Reserved system slot (below the persistent heap's base) holding the
# highest retired TxID.  GC retires transactions in commit order, so the
# watermark cleanly separates "migrated and possibly overwritten" from
# "must be replayed" for recovery scans of reused blocks.
RETIRE_WATERMARK_ADDR = 128


@dataclass
class GCPassReport:
    """What one collection pass did."""

    triggered_on_demand: bool = False
    blocks_collected: int = 0
    transactions_migrated: int = 0
    words_scanned: int = 0
    words_migrated: int = 0
    slices_read: int = 0
    completion_ns: float = 0.0

    @property
    def bytes_modified(self) -> int:
        return self.words_scanned * 8

    @property
    def bytes_migrated(self) -> int:
        return self.words_migrated * 8

    @property
    def data_reduction_ratio(self) -> float:
        """Fraction of transaction-modified bytes GC never wrote home."""
        if self.words_scanned == 0:
            return 0.0
        return 1.0 - self.words_migrated / self.words_scanned


@dataclass
class GCStats:
    """Aggregate across all passes (feeds Table IV and Fig. 10)."""

    passes: int = 0
    on_demand_passes: int = 0
    blocks_collected: int = 0
    transactions_migrated: int = 0
    words_scanned: int = 0
    words_migrated: int = 0

    def absorb(self, report: GCPassReport) -> None:
        self.passes += 1
        if report.triggered_on_demand:
            self.on_demand_passes += 1
        self.blocks_collected += report.blocks_collected
        self.transactions_migrated += report.transactions_migrated
        self.words_scanned += report.words_scanned
        self.words_migrated += report.words_migrated

    @property
    def data_reduction_ratio(self) -> float:
        if self.words_scanned == 0:
            return 0.0
        return 1.0 - self.words_migrated / self.words_scanned


class GarbageCollector:
    """Algorithm 1, wired to the controller's shared structures."""

    def __init__(
        self,
        config: SystemConfig,
        region: OOPRegion,
        codec: SliceCodec,
        commit_log: CommitLog,
        mapping: MappingTable,
        eviction_buffer: EvictionBuffer,
        refs: BlockRefs,
        port: MemoryPort,
    ) -> None:
        self.config = config
        self.region = region
        self.codec = codec
        self.commit_log = commit_log
        self.mapping = mapping
        self.eviction_buffer = eviction_buffer
        self.refs = refs
        self.port = port
        self.trigger = PeriodicTrigger(config.hoop.gc.period_ns)
        self.stats = GCStats()
        self._watermark = 0
        self.telemetry = NULL_TELEMETRY
        self.track = "gc"
        # Pressure thresholds in absolute units so the per-store pressure
        # probe is two integer-ish comparisons, not two divisions over
        # freshly-recomputed occupancy fractions.
        gc_cfg = config.hoop.gc
        self._mapping_pressure_entries = (
            gc_cfg.on_demand_mapping_fill * mapping.capacity_entries
        )
        self._region_pressure_blocks = (
            gc_cfg.on_demand_region_fill * region.num_blocks
        )

    # -- triggering ------------------------------------------------------------

    def maybe_run(self, now_ns: float) -> Optional[GCPassReport]:
        """Run a background pass if the period elapsed."""
        if not self.trigger.due(now_ns):
            return None
        missed = self.trigger.fire(now_ns)
        if self.telemetry.enabled:
            # fire_count vs missed-period skew: a high missed count means
            # the poll cadence (transaction boundaries) outran the period.
            self.telemetry.count("gc.periodic_fires")
            if missed > 1:
                self.telemetry.count("gc.missed_periods", missed - 1)
        return self.run(now_ns, on_demand=False)

    def pressure(self) -> bool:
        """True when SRAM/region occupancy demands an on-demand pass.

        Equivalent to comparing ``fill_fraction`` against the configured
        thresholds, but phrased as ``occupancy >= threshold * capacity``
        so the store critical path pays O(1) comparisons only.
        """
        return (
            self.mapping.entries >= self._mapping_pressure_entries
            or self.region.busy_blocks >= self._region_pressure_blocks
        )

    # -- one pass -----------------------------------------------------------------

    def run(self, now_ns: float, *, on_demand: bool) -> GCPassReport:
        report = GCPassReport(triggered_on_demand=on_demand)
        if on_demand:
            # Squeeze out everything collectable, including the active block.
            self.region.seal_active_block(now_ns, stream="data")
        candidates = set(self.region.full_blocks(stream="data"))
        report.completion_ns = now_ns
        if not candidates:
            self.stats.absorb(report)
            return report
        telemetry = self.telemetry if self.telemetry.enabled else None
        if telemetry is not None:
            telemetry.emit(
                now_ns,
                "gc_start",
                self.track,
                {"on_demand": on_demand, "candidates": len(candidates)},
            )
        for block in candidates:
            self.region.begin_gc(block, now_ns)

        collectable = candidates | {
            b
            for b in range(self.region.num_blocks)
            if self.region.state_of(b) == BlockState.GC
        }
        latest = now_ns

        # Pick the longest commit-order *prefix* of transactions whose
        # slices all sit in collectable blocks.  Migrating out of commit
        # order could land an older value home after a newer one when
        # interleaved multi-core chains straddle block boundaries, so the
        # first non-collectable transaction ends this round's window.
        prefix: List[CommittedTx] = []
        for tx in self.commit_log.analyse().logged():
            blocks = self.refs.blocks_of(tx.tx_id)
            if not blocks.issubset(collectable):
                break
            prefix.append(tx)

        # Walk the prefix newest-first (reverse time order) and coalesce
        # into H: first version seen per word wins (Alg. 1 l. 7-17).
        # With coalescing ablated, every version is written home in
        # forward commit order instead (the naive log-replay collector).
        coalesce = self.config.hoop.gc.coalesce
        coalesced: Dict[int, Tuple[bytes, int, int]] = {}
        migrated_txs: List[int] = []
        uncoalesced_writes = 0
        for tx in reversed(prefix):
            words, slices_read, latest = self._read_tx_words(tx, now_ns)
            report.slices_read += slices_read
            report.words_scanned += len(words)
            for addr, payload, src_slice, src_slot in words:
                if addr not in coalesced:
                    coalesced[addr] = (payload, src_slice, src_slot)
                elif not coalesce:
                    offset = src_slot * WORD_BYTES
                    self.port.async_write(
                        addr, payload[offset : offset + WORD_BYTES], now_ns
                    )
                    uncoalesced_writes += 1
            migrated_txs.append(tx.tx_id)
            report.transactions_migrated += 1

        # Migrate the surviving versions home (Alg. 1 l. 20-27).
        lines: Dict[int, List[int]] = {}
        for addr in coalesced:
            lines.setdefault(cache_line_base(addr), []).append(addr)
        remove_migrated = self.mapping.remove_migrated
        for line_addr, word_addrs in lines.items():
            home_line, latest = self.port.read(line_addr, 64, now_ns)
            staged = bytearray(home_line)
            word_writes = []
            removed = 0
            for addr in sorted(word_addrs):
                payload, src_slice, src_slot = coalesced[addr]
                src = src_slot * WORD_BYTES
                value = payload[src : src + WORD_BYTES]
                offset = addr - line_addr
                staged[offset : offset + 8] = value
                word_writes.append((addr, value))
                if remove_migrated(addr, src_slice, src_slot):
                    removed += 1
            if removed and telemetry is not None:
                telemetry.emit(
                    now_ns,
                    "mapping_evict",
                    self.track,
                    {"addr": line_addr, "words": removed},
                )
            # The line's word writes all queue at the same instant and
            # reach the device as one batch (the retire step drains the
            # queue later).
            self.port.async_write_words(word_writes, now_ns)
            self.eviction_buffer.insert(line_addr, bytes(staged), now_ns)
        report.words_migrated = len(coalesced) + uncoalesced_writes

        # Durably retire, then reclaim blocks with no live references.
        if migrated_txs:
            latest = max(latest, self.port.drain(now_ns))
            latest = max(
                latest, self.commit_log.flush_dirty(now_ns, sync=True)
            )
            latest = max(
                latest, self.commit_log.retire(migrated_txs, now_ns)
            )
            self._watermark = max(self._watermark, max(migrated_txs))
            latest = max(
                latest,
                self.port.sync_write(
                    RETIRE_WATERMARK_ADDR,
                    self._watermark.to_bytes(8, "little"),
                    now_ns,
                ),
            )
            for tx_id in migrated_txs:
                self.refs.on_tx_retired(tx_id)
        for block in sorted(collectable):
            if (
                self.region.state_of(block) == BlockState.GC
                and self.refs.is_reclaimable(block)
            ):
                self._forget_decodes(block)
                self.region.reclaim(block, now_ns)
                report.blocks_collected += 1
        self._reclaim_addr_blocks(now_ns)

        report.completion_ns = latest
        if telemetry is not None:
            # The end event is stamped at the pass's async completion
            # horizon (see the hub's ordering contract).
            telemetry.emit(
                report.completion_ns,
                "gc_end",
                self.track,
                {
                    "scanned": report.words_scanned,
                    "migrated": report.words_migrated,
                    "reclaimed": report.blocks_collected,
                    "txs": report.transactions_migrated,
                },
            )
            telemetry.record("gc_pause_ns", report.completion_ns - now_ns)
        self.stats.absorb(report)
        return report

    # -- helpers ------------------------------------------------------------------

    def _read_tx_words(
        self, tx: CommittedTx, now_ns: float
    ) -> Tuple[List[Tuple[int, bytes, int, int]], int, float]:
        """All words of a transaction, newest store first.

        Each word is ``(addr, payload, slice, slot)``: its value is
        ``payload[8 * slot : 8 * slot + 8]`` of the slice's payload, cut
        only for the version that wins coalescing.  Walks each chain
        segment tail-to-head via prev-links; segments are recorded
        oldest-first, so they are visited in reverse.  Within a slice the
        packing order is oldest-first, so word slots are visited in
        reverse too.
        """
        words: List[Tuple[int, bytes, int, int]] = []
        slices_read = 0
        latest = now_ns
        total = self.region.num_blocks * self.region.slots_per_block
        for tail in reversed(tx.segment_tails):
            cursor: Optional[int] = tail
            while cursor is not None:
                raw, completion = self.region.read_slice(cursor, now_ns)
                latest = max(latest, completion)
                slices_read += 1
                try:
                    ds = self.codec.decode_data(raw)
                except CorruptionError:
                    break  # torn tail of a crashed segment; older data intact
                block, _ = self.region.slice_location(cursor)
                if (
                    ds.tx_id != tx.tx_id
                    or ds.generation != self.region.generation_of(block)
                ):
                    break  # chain ran into reused slices; stop defensively
                addrs, payload = ds.addrs, ds.payload
                for slot in range(len(addrs) - 1, -1, -1):
                    words.append((addrs[slot], payload, cursor, slot))
                if ds.prev_delta is None:
                    cursor = None
                else:
                    cursor = (cursor - ds.prev_delta) % total
        return words, slices_read, latest

    def _forget_decodes(self, block: int) -> None:
        """Drop a data block's slice decodes from the codec memo.

        Called just before the block is reclaimed: from then on no
        reader (GC, the LLC-miss path, recovery's busy-block scan) asks
        for these slices again.  The memo stays a pure cache, so this
        only frees memory; see "The word-run write path" in
        ``docs/internals.md``.
        """
        region = self.region
        raw = region.port.device.peek(
            region.block_base(block), region.block_bytes
        )
        forget = self.codec._decode_cache.pop
        for slot in range(1, region.slots_per_block + 1):  # 0: the header
            offset = slot * SLICE_BYTES
            forget(raw[offset : offset + SLICE_BYTES], None)

    def _reclaim_addr_blocks(self, now_ns: float) -> None:
        """Reclaim commit-log blocks whose pages are all fully retired."""
        retired_pages = self.commit_log.fully_retired_pages()
        if not retired_pages:
            return
        by_block: Dict[int, List[int]] = {}
        for slice_index in retired_pages:
            block, _ = self.region.slice_location(slice_index)
            by_block.setdefault(block, []).append(slice_index)
        for block, pages in by_block.items():
            if (
                self.region.state_of(block) == BlockState.FULL
                and len(pages) == self.region.slots_per_block
            ):
                self.commit_log.drop_pages(pages)
                self.region.begin_gc(block, now_ns)
                self.region.reclaim(block, now_ns)


# -- snapshot declarations ----------------------------------------------------
GCPassReport.__snapshot_state__ = "__atoms__"
GCStats.__snapshot_state__ = "__atoms__"
GarbageCollector.__snapshot_state__ = "__all__"
