"""OSP: optimized shadow paging at cache-line granularity (SSP [38,39]).

Every virtual cache line is backed by **two** physical lines — the home
line and a shadow line — plus a *flip bit* choosing the current copy.  A
transaction's updates are eagerly flushed to the *inactive* copies at
commit, then the flip bits switch **atomically**: the commit persists one
flip record naming every flipped line (a single log append), after which
the per-line metadata slots are updated lazily.  Old data is never
overwritten in place, so there is no logging of data and no double data
write — Table I's "Low" write traffic for SSP.

The costs the paper calls out, all modeled here:

* **eager persistence** — one synchronous line flush per updated line at
  commit (no write-queue hiding);
* **TLB shootdown** — each commit's remap invalidates the mapping on
  every other core; charged per commit;
* **page consolidation** — heavily flipped pairs are periodically folded
  back to their home lines, costing extra copy traffic.

Recovery replays the flip log over the persisted slot records: committed
transactions' flips apply; a torn final record is discarded, leaving the
old copies current — exactly shadow paging's atomicity argument.  Our
``recover`` then consolidates every flipped line back to its home address
so post-recovery NVM state is directly comparable across schemes.

Paper analogue: SSP [38, 39] (cache-line shadow paging).  Declared
durability discipline: ``flush-fence`` — the eagerly persisted inactive
copies must be flushed and fenced (drained) before the synchronous flip
record commits; the persist-ordering sanitizer (:mod:`repro.check`)
enforces that fence edge on every committed transaction.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.common.addr import CACHE_LINE_BYTES, cache_line_base
from repro.common.config import SystemConfig
from repro.common.errors import CapacityError
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, RecoveryOutcome, SchemeTraits
from repro.schemes.appendlog import KIND_COMMIT, AppendLog
from repro.snapshot import reset_volatile

# Cost of invalidating stale translations on the other cores after a
# commit's remap ("frequent TLB shootdowns on multicore machines").
# Amortized per commit: shootdown IPIs overlap the commit's drain.
_TLB_SHOOTDOWN_NS = 250.0
# Consolidate a line pair after this many flips.
_CONSOLIDATE_FLIPS = 8

_META_RECORD = struct.Struct("<QQI")  # tagged line addr, shadow|flip, crc
_FLIP_TUPLE = struct.Struct("<QQB")  # line addr, shadow addr, new flip


class OSPScheme(PersistenceScheme):
    """Cache-line shadow paging with eager commit flushes."""

    name = "osp"
    traits = SchemeTraits(
        approach="Shadow paging / cache line",
        read_latency="Low",
        extra_writes_on_critical_path=True,
        requires_flush_fence=True,
        write_traffic="Low",
        durability="flush-fence",
    )

    def __init__(self, config: SystemConfig, device: NVMDevice) -> None:
        super().__init__(config, device)
        region_base = config.oop_region_base
        region_bytes = config.oop_region_bytes
        # Layout of the reserved region: flip log | metadata slots | shadows.
        log_bytes = max(64 * 1024, region_bytes // 64)
        # One 20-byte record per shadowed line: size the slot area for a
        # shadow pool of line pairs (20/64ths of the pool's line count).
        meta_bytes = max(64 * 1024, region_bytes // 4)
        self.fliplog = AppendLog(self.port, region_base, log_bytes)
        self._meta_base = region_base + log_bytes
        self._pool_base = self._meta_base + meta_bytes
        self._pool_limit = region_base + region_bytes
        self._pool_cursor = self._pool_base
        # line addr -> (shadow addr, flip); flip False = home is current.
        self._pairs: Dict[int, Tuple[int, bool]] = {}
        self._meta_slot: Dict[int, int] = {}
        # Open transactions' updated lines: tx -> {line: data}.
        self._tx_lines: Dict[int, Dict[int, bytes]] = {}
        self._flip_counts: Dict[int, int] = {}
        self.commit_flushes = 0
        self.tlb_shootdowns = 0
        self.consolidations = 0

    # -- pair management -----------------------------------------------------------

    def _shadow_for(self, line_addr: int) -> Tuple[int, bool]:
        pair = self._pairs.get(line_addr)
        if pair is not None:
            return pair
        if self._pool_cursor + CACHE_LINE_BYTES > self._pool_limit:
            raise CapacityError("shadow pool exhausted")
        shadow = self._pool_cursor
        self._pool_cursor += CACHE_LINE_BYTES
        pair = (shadow, False)
        self._pairs[line_addr] = pair
        slot = len(self._meta_slot)
        if (
            self._meta_base + (slot + 1) * _META_RECORD.size
            > self._pool_base
        ):
            raise CapacityError("shadow metadata area exhausted")
        self._meta_slot[line_addr] = slot
        return pair

    def _write_slot(self, line_addr: int, now_ns: float) -> None:
        """Lazily persist a line's (shadow, flip) record (idempotent)."""
        shadow, flip = self._pairs[line_addr]
        slot = self._meta_slot[line_addr]
        addr_of_slot = self._meta_base + slot * _META_RECORD.size
        packed = shadow | (1 if flip else 0)
        body = _META_RECORD.pack(line_addr | 1, packed, 0)
        crc = zlib.crc32(body[:-4]) & 0xFFFFFFFF
        body = _META_RECORD.pack(line_addr | 1, packed, crc)
        self.port.async_write(addr_of_slot, body, now_ns)

    def _current_addr(self, line_addr: int) -> int:
        pair = self._pairs.get(line_addr)
        if pair is None:
            return line_addr
        shadow, flip = pair
        return shadow if flip else line_addr

    def _inactive_addr(self, line_addr: int) -> int:
        shadow, flip = self._pairs[line_addr]
        return line_addr if flip else shadow

    # -- transactional API ---------------------------------------------------------

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        tx_id, now_ns = super().tx_begin(core, now_ns)
        self._tx_lines[tx_id] = {}
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
        self._tx_lines[tx_id][line_addr] = line_data
        return now_ns

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        """Eagerly flush to inactive copies, then flip atomically."""
        lines = self._tx_lines.pop(tx_id, {})
        if not lines:
            return now_ns
        flips = []
        check = self.check
        for line_addr, data in lines.items():
            self._shadow_for(line_addr)
            target = self._inactive_addr(line_addr)
            # Eager persistence: all line flushes issue back-to-back and
            # the commit waits for the batch to drain.
            self.port.async_write(target, data, now_ns)
            self.commit_flushes += 1
            if check.active:
                # The shadow write covers the *home* line logically.
                check.note_persist(
                    tx_id, "data", line_addr, CACHE_LINE_BYTES, now_ns,
                    sync=False, port=self.port,
                )
            shadow, flip = self._pairs[line_addr]
            flips.append((line_addr, shadow, not flip))
        now_ns = self.port.drain(now_ns)
        # Atomic remap: one flip record covering the whole batch is the
        # commit point.
        payload = b"".join(
            _FLIP_TUPLE.pack(line, shadow, 1 if flip else 0)
            for line, shadow, flip in flips
        )
        _, now_ns = self.fliplog.append(
            KIND_COMMIT, tx_id, 0, payload, now_ns, sync=True
        )
        if check.active:
            check.note_persist(
                tx_id, "commit", -1, 0, now_ns, sync=True, port=self.port
            )
        for line_addr, shadow, flip in flips:
            self._pairs[line_addr] = (shadow, flip)
            self._write_slot(line_addr, now_ns)
        # Remapping invalidates stale translations on the other cores.
        now_ns += _TLB_SHOOTDOWN_NS
        self.tlb_shootdowns += 1
        self._maybe_consolidate([line for line, _, _ in flips], now_ns)
        return now_ns

    def _maybe_consolidate(self, lines: List[int], now_ns: float) -> None:
        """Fold heavily-flipped pairs back to home (page consolidation)."""
        for line_addr in lines:
            count = self._flip_counts.get(line_addr, 0) + 1
            if count >= _CONSOLIDATE_FLIPS:
                shadow, flip = self._pairs[line_addr]
                if flip:
                    data = self.device.peek(shadow, CACHE_LINE_BYTES)
                    self.port.async_write(line_addr, data, now_ns)
                    self._pairs[line_addr] = (shadow, False)
                    payload = _FLIP_TUPLE.pack(line_addr, shadow, 0)
                    self.fliplog.append(
                        KIND_COMMIT, 0, 0, payload, now_ns, sync=False
                    )
                    self._write_slot(line_addr, now_ns)
                self.consolidations += 1
                count = 0
            self._flip_counts[line_addr] = count

    # -- background ----------------------------------------------------------------

    def tick(self, now_ns: float) -> None:
        """Truncate the flip log once the lazy slot records caught up."""
        if self.fliplog.fill_fraction >= 0.5:
            drained = self.port.drain(now_ns)
            self.fliplog.truncate(drained)

    def quiesce(self, now_ns: float) -> float:
        drained = self.port.drain(now_ns)
        return self.fliplog.truncate(drained)

    # -- read path ---------------------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        line_addr = cache_line_base(line_addr)
        for lines in self._tx_lines.values():
            if line_addr in lines:
                return lines[line_addr], 0.0
        source = self._current_addr(line_addr)
        data, completion = self.port.read(source, CACHE_LINE_BYTES, now_ns)
        return data, completion - now_ns

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
            # Mid-transaction: the write set holds the bytes (they reach
            # the inactive copy at commit).  Post-commit: the current copy
            # was already flushed eagerly at tx_end.  Nothing to write.
            return
        # Non-transactional dirty data goes to the current copy.
        self.port.async_write(self._current_addr(line_addr), data, now_ns)

    # -- crash & recovery -----------------------------------------------------------

    # Line pairs, metadata slots, flip counts and open write sets are SRAM.
    __durable__ = PersistenceScheme.DURABLE + (
        "fliplog", "_meta_base", "_pool_base", "_pool_limit", "_pool_cursor",
        "commit_flushes", "tlb_shootdowns", "consolidations")
    crash = reset_volatile

    def detach_recovery_memos(self) -> None:
        """Detach the log's scan memo."""
        self.fliplog.detach_memo()

    def recover(
        self, *, threads: int = 1, bandwidth_gb_per_s: Optional[float] = None
    ) -> RecoveryOutcome:
        outcome = RecoveryOutcome(scheme=self.name)
        # Base state: the lazily persisted slot records.
        restored: Dict[int, Tuple[int, bool]] = {}
        limit = (self._pool_base - self._meta_base) // _META_RECORD.size
        for slot in range(limit):
            addr_of_slot = self._meta_base + slot * _META_RECORD.size
            raw = self.device.peek(addr_of_slot, _META_RECORD.size)
            outcome.bytes_scanned += _META_RECORD.size
            tagged, packed, crc = _META_RECORD.unpack(raw)
            if not tagged & 1:
                break  # slots are allocated densely; first empty ends scan
            body = _META_RECORD.pack(tagged, packed, 0)
            if crc != zlib.crc32(body[:-4]) & 0xFFFFFFFF:
                continue  # torn slot write: the flip log will correct it
            restored[tagged & ~1] = (packed & ~1, bool(packed & 1))
        # Replay the flip log over the base state (commit order).
        for entry in self.fliplog.rebuild_and_scan():
            outcome.bytes_scanned += entry.total_bytes
            outcome.committed_transactions += 1
            for i in range(0, len(entry.payload), _FLIP_TUPLE.size):
                line, shadow, flip = _FLIP_TUPLE.unpack_from(entry.payload, i)
                restored[line] = (shadow, bool(flip))
        # Consolidate flipped lines home so all schemes expose the same
        # post-recovery address space.
        for line_addr, (shadow, flip) in restored.items():
            if flip:
                data = self.device.peek(shadow, CACHE_LINE_BYTES)
                self.device.poke(line_addr, data)
                outcome.bytes_written += CACHE_LINE_BYTES
        self._pairs = {
            addr: (shadow, False) for addr, (shadow, _) in restored.items()
        }
        self._meta_slot = {addr: i for i, addr in enumerate(restored)}
        if restored:
            highest = max(shadow for shadow, _ in restored.values())
            self._pool_cursor = max(
                self._pool_cursor, highest + CACHE_LINE_BYTES
            )
        for addr in self._pairs:
            self._write_slot(addr, 0.0)
        self.fliplog.reset()
        outcome.elapsed_ns = (
            outcome.bytes_scanned + 2 * outcome.bytes_written
        ) / self.recovery_bytes_per_ns(bandwidth_gb_per_s)
        return outcome

# -- snapshot declarations ----------------------------------------------------
OSPScheme.__snapshot_state__ = "__all__"
