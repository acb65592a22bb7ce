"""The per-core OOP data buffer and data packing (§III-C, Fig. 3).

Every transactional store sends its modified word (plus home address) to
the issuing core's buffer entry.  The buffer:

* tracks updates at **word granularity** and deduplicates repeated updates
  to the same word within a transaction ("multiple updates in the same
  cache line ... packed in the same memory slice");
* **packs** eight words and their metadata into one 128-byte memory slice
  and writes it to the OOP region asynchronously as soon as it fills;
* flushes the remainder synchronously at ``Tx_end``;
* keeps the mapping table pointed at the newest durable-or-buffered
  location of every word, so loads can be served from the buffer itself
  ("the OOP address stored in the mapping table can either point to a
  location in the OOP data buffer, or an OOP block in NVM").

The 1 KB-per-core budget bounds pending words at 64; the packing threshold
of eight keeps the live population far below that, and the bound is
asserted rather than assumed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import CapacityError, TransactionError
from repro.core.mapping_table import MappingTable, OOPLocation
from repro.core.oop_region import OOPRegion
from repro.core.slices import (
    MAX_PREV_DELTA,
    SLICE_BYTES,
    STATE_LAST,
    STATE_OPEN,
    WORD_BYTES,
    DataSlice,
    SliceCodec,
)
from repro.check.sanitizer import NULL_CHECKER
from repro.snapshot import reset_volatile
from repro.telemetry.hub import NULL_TELEMETRY


@dataclass(slots=True)
class _CoreEntry:
    """Volatile per-core buffer state for the transaction in flight."""

    tx_id: Optional[int] = None
    # word address -> 8-byte value, in first-store order: a re-store
    # overwrites the value in place, so it keeps its slice.
    pending: Dict[int, bytes] = field(default_factory=dict)
    last_slice: Optional[int] = None  # tail of the current chain segment
    segment_open: bool = False  # a slice has been written in this segment
    segments: List[int] = field(default_factory=list)  # closed segment tails


@dataclass
class BufferStats:
    words_buffered: int = 0
    words_deduped: int = 0
    slices_written: int = 0
    sync_slices: int = 0
    segment_splits: int = 0


class OOPDataBuffer:
    """All cores' OOP data buffer entries plus the packing logic."""

    def __init__(
        self,
        config: SystemConfig,
        region: OOPRegion,
        codec: SliceCodec,
        mapping: MappingTable,
        on_slice_written=None,
    ) -> None:
        self.config = config
        self.region = region
        self.codec = codec
        self.mapping = mapping
        self._on_slice_written = on_slice_written
        # core -> its entry, made on the core's first use.
        self._cores: Dict[int, _CoreEntry] = defaultdict(_CoreEntry)
        # Every word a core has buffered maps to this one entry.
        self._markers = tuple(
            OOPLocation(True, core, 0) for core in range(config.num_cores)
        )
        # 16 bytes of SRAM per pending word: 8 B data + 8 B home address.
        self.capacity_words = config.hoop.oop_buffer_bytes_per_core // 16
        self._words_per_slice = codec.words_per_slice
        self.stats = BufferStats()
        self._total_slices = region.num_blocks * region.slots_per_block
        self.telemetry = NULL_TELEMETRY
        self.track = "ctrl0"
        self.check = NULL_CHECKER
        # The sync STATE_LAST slice is HOOP's commit point — except under
        # the multi-controller 2PC, where a locally-final slice proves
        # nothing globally (the scheme emits its own commit note after
        # the commit phase and clears this flag).
        self.check_commit_on_last = True

    # -- transaction lifecycle ------------------------------------------------

    def begin(self, core: int, tx_id: int) -> None:
        entry = self._cores[core]
        if entry.tx_id is not None:
            raise TransactionError(
                f"core {core} already has transaction {entry.tx_id} open"
            )
        self._cores[core] = _CoreEntry(tx_id=tx_id)

    def add_words(
        self,
        core: int,
        addr: int,
        size: int,
        line_addr: int,
        line_data: bytes,
        now_ns: float,
    ) -> None:
        """Stage the word run one store piece touches.

        ``[addr, addr + size)`` lies inside the cache line at
        ``line_addr`` whose post-store bytes are ``line_data``; every
        8-byte word it overlaps is staged in address order and mapped to
        the core's marker.  Dedupe, the capacity check, the mapping
        update and the overflow flush run word by word, so a slice fills
        and flushes at exactly the word it would have if the run were fed
        one word at a time.
        """
        entry = self._cores[core]
        if entry.tx_id is None:
            raise TransactionError(f"core {core} has no open transaction")
        first = addr & ~(WORD_BYTES - 1)
        stop = addr + size
        if self.telemetry.enabled:
            self.telemetry.emit(
                now_ns,
                "mapping_insert",
                self.track,
                {
                    "addr": first,
                    "words": (stop - first + WORD_BYTES - 1) // WORD_BYTES,
                },
            )
        pending = entry.pending
        stats = self.stats
        capacity = self.capacity_words
        words_per_slice = self._words_per_slice
        record = self.mapping.record
        marker = self._markers[core]
        for word_addr in range(first, stop, WORD_BYTES):
            if word_addr in pending:
                stats.words_deduped += 1
            else:
                if len(pending) >= capacity:
                    raise CapacityError(
                        f"OOP data buffer overflow on core {core}"
                    )
                stats.words_buffered += 1
            offset = word_addr - line_addr
            pending[word_addr] = line_data[offset : offset + WORD_BYTES]
            record(word_addr, marker)
            # Hold the buffer until it *overflows* a slice: the commit
            # point is the synchronous persist of a STATE_LAST slice at
            # Tx_end, so every transaction must end with at least one
            # word still pending.
            if len(pending) > words_per_slice:
                self._flush_slice(core, now_ns, sync=False, last=False)

    def tx_end(self, core: int, now_ns: float) -> Tuple[List[int], float]:
        """Flush remaining words synchronously; returns (segment tails, t).

        The returned tails are the chain segments the commit log must
        record (all but the final one as uncommitted continuation entries).
        An empty list means the transaction wrote nothing.
        """
        entry = self._cores[core]
        if entry.tx_id is None:
            raise TransactionError(f"core {core} has no open transaction")
        completion = now_ns
        while entry.pending:
            last = len(entry.pending) <= self._words_per_slice
            completion = self._flush_slice(core, now_ns, sync=True, last=last)
        segments = list(entry.segments)
        if entry.last_slice is not None:
            segments.append(entry.last_slice)
        self._cores[core] = _CoreEntry()
        return segments, completion

    # -- reads ------------------------------------------------------------------

    def buffered_word(self, core: int, word_addr: int) -> Optional[bytes]:
        """Value of a word still sitting in a core's buffer, if any."""
        return self._cores[core].pending.get(word_addr)

    def open_tx(self, core: int) -> Optional[int]:
        """The transaction ``core`` has open in the buffer, if any."""
        return self._cores[core].tx_id

    def pending_count(self, core: int) -> int:
        """Words ``core``'s open transaction holds in the buffer."""
        return len(self._cores[core].pending)

    # -- packing -------------------------------------------------------------

    def _flush_slice(
        self, core: int, now_ns: float, *, sync: bool, last: bool
    ) -> float:
        entry = self._cores[core]
        tx_id = entry.tx_id
        pending = entry.pending
        assert tx_id is not None and pending
        # The slice's oldest-staged words; islice avoids copying the
        # whole pending dict when it holds more than one slice's worth.
        addrs = tuple(islice(pending, self._words_per_slice))
        region = self.region
        slice_index = region.allocate_slice(now_ns, stream="data")
        # A slot claimed: the words leave ``pending`` as the slice's one
        # payload (DataSlice's layout, no per-word pair).
        payload = b"".join(map(pending.pop, addrs))
        prev_delta: Optional[int] = None
        if entry.segment_open:
            assert entry.last_slice is not None
            delta = (slice_index - entry.last_slice) % self._total_slices
            if 0 < delta <= MAX_PREV_DELTA:
                prev_delta = delta
            else:
                # Chain hop too far for the 24-bit field: close the segment
                # and start a fresh one (recorded separately at commit).
                entry.segments.append(entry.last_slice)
                self.stats.segment_splits += 1
        block, slot = divmod(slice_index, region.slots_per_block)
        ds = DataSlice.packed(
            tx_id, addrs, payload, prev_delta is None, prev_delta,
            STATE_LAST if last else STATE_OPEN, region.generation_of(block),
        )
        raw = self.codec.encode_data(ds)
        # OOPRegion.slice_addr, from the (block, slot) already in hand.
        addr = region.base + block * region.block_bytes + (slot + 1) * SLICE_BYTES
        port = region.port
        if sync:
            completion = port.sync_write(addr, raw, now_ns)
            self.stats.sync_slices += 1
        else:
            completion = port.async_write(addr, raw, now_ns)
        if self._on_slice_written is not None:
            self._on_slice_written(tx_id, block)
        self.mapping.relocate_flushed(addrs, slice_index, self._markers[core])
        entry.last_slice = slice_index
        entry.segment_open = True
        self.stats.slices_written += 1
        check = self.check
        if check.active:
            for word_addr in addrs:
                check.note_persist(
                    tx_id, "oop", word_addr, 8, now_ns, sync=sync, port=port
                )
            if last and self.check_commit_on_last:
                check.note_persist(
                    tx_id, "commit", -1, 0, completion, sync=sync, port=port
                )
        return completion

    # -- crash lifecycle ------------------------------------------------------

    # All buffered (uncommitted) words are lost with power.
    __durable__ = (
        "config", "region", "codec", "mapping", "_on_slice_written",
        "_markers", "capacity_words", "_words_per_slice", "stats",
        "_total_slices", "telemetry", "track", "check", "check_commit_on_last")
    crash = reset_volatile


# -- snapshot declarations ----------------------------------------------------
# _CoreEntry's pending dict / segments list are deep-cloned; the buffer's
# _on_slice_written bound method is re-bound to the cloned BlockRefs by
# the engine's method handler.
_CoreEntry.__snapshot_state__ = "__all__"
BufferStats.__snapshot_state__ = "__atoms__"
OOPDataBuffer.__snapshot_state__ = "__all__"
