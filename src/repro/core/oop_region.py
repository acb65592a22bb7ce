"""The log-structured OOP region (paper Fig. 5a, Section III-D).

The region is an array of fixed-size **OOP blocks** (2 MB by default).
Slot 0 of every block holds the block header (index, next pointer, 2-bit
state: ``BLK_UNUSED``, ``BLK_INUSE``, ``BLK_FULL``, ``BLK_GC``); the
remaining slots are 128-byte memory slices.  A **block index table** maps
block numbers to start addresses and is cached in the memory controller.

Allocation is strictly round-robin over blocks *and* sequential over slices
within the active block, which is what gives the paper's uniform-aging
property (verified by a wear test) and keeps next-slice chain offsets small
enough for the 24-bit field.

Deviation noted for fidelity: the paper gives the header an 8-bit block
index, which cannot name the ~26 k blocks of a 51 GB OOP region; we widen
the on-NVM index field to 32 bits and record the discrepancy here and in
DESIGN.md.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Deque, Iterator, List, Optional, Set, Tuple

from repro.common.bitfield import BitStruct, Field
from repro.common.config import SystemConfig
from repro.common.errors import AddressError, CapacityError, CorruptionError
from repro.core.slices import SLICE_BYTES
from repro.memctrl.port import MemoryPort

import zlib


class BlockState(IntEnum):
    """The 2-bit block state from the OOP block header."""

    UNUSED = 0
    INUSE = 1
    FULL = 2
    GC = 3


_HEADER = BitStruct(
    [
        Field("index", 32),
        Field("next_block", 34),
        Field("state", 2),
        Field("stream", 2),  # 0 = data slices, 1 = commit-log address slices
        Field("generation", 8),  # reuse count (mod 256): stale-slice guard
        Field("checksum", 16),
    ],
    total_bytes=SLICE_BYTES,
)
_NO_NEXT_BLOCK = (1 << 34) - 1
_STREAM_CODES = {"data": 0, "addr": 1}
_STREAM_NAMES = {0: "data", 1: "addr"}


def _encode_header(
    index: int,
    next_block: Optional[int],
    state: BlockState,
    stream: str = "data",
    generation: int = 0,
) -> bytes:
    body = {
        "index": index,
        "next_block": _NO_NEXT_BLOCK if next_block is None else next_block,
        "state": int(state),
        "stream": _STREAM_CODES[stream],
        "generation": generation & 0xFF,
        "checksum": 0,
    }
    body["checksum"] = zlib.crc32(_HEADER.pack(body)) & 0xFFFF
    return _HEADER.pack(body)


def _decode_header(raw: bytes) -> Tuple[int, Optional[int], BlockState, str, int]:
    fields = _HEADER.unpack(raw)
    check = dict(fields, checksum=0)
    if fields["checksum"] != zlib.crc32(_HEADER.pack(check)) & 0xFFFF:
        raise CorruptionError("OOP block header checksum mismatch")
    next_block = fields["next_block"]
    return (
        fields["index"],
        None if next_block == _NO_NEXT_BLOCK else next_block,
        BlockState(fields["state"]),
        _STREAM_NAMES.get(fields["stream"], "data"),
        fields["generation"],
    )


@dataclass
class RegionStats:
    slices_allocated: int = 0
    blocks_opened: int = 0
    blocks_filled: int = 0
    blocks_reclaimed: int = 0


# Invariant-check mode: every O(1) occupancy read recomputes the answer
# from scratch and asserts equality.  Off by default (it restores the
# O(#blocks) scan this module exists to avoid); enabled by the property
# tests and by REPRO_CHECK_INVARIANTS=1.
_CHECK_INVARIANTS = os.environ.get("REPRO_CHECK_INVARIANTS", "0") not in ("", "0")


def set_invariant_checks(enabled: bool) -> bool:
    """Toggle paranoid occupancy rechecks; returns the previous setting."""
    global _CHECK_INVARIANTS
    previous = _CHECK_INVARIANTS
    _CHECK_INVARIANTS = enabled
    return previous


class OOPRegion:
    """Allocator and accessor for the out-of-place update region."""

    def __init__(
        self,
        config: SystemConfig,
        port: MemoryPort,
        *,
        base: Optional[int] = None,
        size: Optional[int] = None,
    ) -> None:
        self.config = config
        self.port = port
        self.base = config.oop_region_base if base is None else base
        self.block_bytes = config.hoop.oop_block_bytes
        region_bytes = config.oop_region_bytes if size is None else size
        self.num_blocks = region_bytes // self.block_bytes
        if self.num_blocks < 2:
            raise CapacityError("OOP region needs at least two blocks")
        # Slot 0 of each block is the header; the rest hold slices.
        self.slots_per_block = self.block_bytes // SLICE_BYTES - 1
        self._state: List[BlockState] = [BlockState.UNUSED] * self.num_blocks
        self._free: Deque[int] = deque(range(self.num_blocks))
        # Two allocation streams: "data" for data memory slices, "addr" for
        # commit-log address slices.  Keeping them in separate blocks means
        # a data block's reclaim depends only on its transactions being
        # migrated, never on commit-log pages that happen to share it (an
        # engineering choice the paper leaves open; see DESIGN.md).
        self._active: dict = {"data": None, "addr": None}
        self._cursor: dict = {"data": 0, "addr": 0}
        self._block_stream: dict = {}
        self._generation: dict = {}  # block -> reuse count
        self._touched: Set[int] = set()
        # Incremental occupancy: number of blocks whose state != UNUSED.
        # Maintained by every state transition so ``fill_fraction`` (read
        # on the store critical path via GC pressure checks) is O(1)
        # instead of an O(#blocks) rescan.
        self._busy_blocks = 0
        self.stats = RegionStats()

    # -- address arithmetic -------------------------------------------------

    def block_base(self, block: int) -> int:
        """Start address of a block (the block index table's job)."""
        if not 0 <= block < self.num_blocks:
            raise AddressError(f"block {block} out of range")
        return self.base + block * self.block_bytes

    def slice_location(self, slice_index: int) -> Tuple[int, int]:
        """Map a region slice index to ``(block, slot)``."""
        if slice_index < 0 or slice_index >= self.num_blocks * self.slots_per_block:
            raise AddressError(f"slice index {slice_index} out of range")
        return divmod(slice_index, self.slots_per_block)

    def slice_addr(self, slice_index: int) -> int:
        """Physical NVM address of a region slice index."""
        block, slot = self.slice_location(slice_index)
        return self.block_base(block) + (slot + 1) * SLICE_BYTES

    def slice_index(self, block: int, slot: int) -> int:
        if not 0 <= slot < self.slots_per_block:
            raise AddressError(f"slot {slot} out of range")
        return block * self.slots_per_block + slot

    # -- block state ------------------------------------------------------------

    def state_of(self, block: int) -> BlockState:
        return self._state[block]

    def full_blocks(self, stream: Optional[str] = "data") -> List[int]:
        return [
            b
            for b, s in enumerate(self._state)
            if s == BlockState.FULL
            and (stream is None or self._block_stream.get(b) == stream)
        ]

    @property
    def fill_fraction(self) -> float:
        """Fraction of blocks not currently reusable (for GC triggering)."""
        if _CHECK_INVARIANTS:
            self.verify_accounting()
        return self._busy_blocks / self.num_blocks

    @property
    def busy_blocks(self) -> int:
        """Number of blocks whose state is not UNUSED (O(1))."""
        return self._busy_blocks

    def verify_accounting(self) -> None:
        """Recompute occupancy from scratch and assert the counter agrees."""
        busy = sum(1 for s in self._state if s != BlockState.UNUSED)
        if busy != self._busy_blocks:
            raise AssertionError(
                f"incremental busy-block counter {self._busy_blocks} != "
                f"recounted {busy}"
            )

    def generation_of(self, block: int) -> int:
        """Current reuse generation of a block (stamped into its slices)."""
        return self._generation.get(block, 0)

    def _write_header(self, block: int, state: BlockState, now_ns: float) -> None:
        old = self._state[block]
        if (old == BlockState.UNUSED) != (state == BlockState.UNUSED):
            self._busy_blocks += 1 if old == BlockState.UNUSED else -1
        self._state[block] = state
        self._touched.add(block)
        stream = self._block_stream.get(block, "data")
        raw = _encode_header(
            block, None, state, stream, self._generation.get(block, 0)
        )
        self.port.async_write(self.block_base(block), raw, now_ns)

    # -- allocation ---------------------------------------------------------------

    def allocate_slice(self, now_ns: float, stream: str = "data") -> int:
        """Claim the next sequential slice slot; returns its region index.

        Opens a fresh block (round-robin from the free list) when the
        stream's active block fills.  Raises :class:`CapacityError` when
        the region is exhausted — callers trigger on-demand GC first.
        """
        if stream not in self._active:
            raise AddressError(f"unknown allocation stream {stream!r}")
        if self._active[stream] is None:
            if not self._free:
                raise CapacityError("OOP region exhausted; GC required")
            block = self._free.popleft()
            self._active[stream] = block
            self._cursor[stream] = 0
            self._block_stream[block] = stream
            self.stats.blocks_opened += 1
            self._write_header(block, BlockState.INUSE, now_ns)
        block = self._active[stream]
        index = self.slice_index(block, self._cursor[stream])
        self._cursor[stream] += 1
        self.stats.slices_allocated += 1
        if self._cursor[stream] >= self.slots_per_block:
            self._write_header(block, BlockState.FULL, now_ns)
            self.stats.blocks_filled += 1
            self._active[stream] = None
        return index

    def stream_of(self, block: int) -> Optional[str]:
        """Which allocation stream a block belongs to (None if never used)."""
        return self._block_stream.get(block)

    def seal_active_block(self, now_ns: float, stream: str = "data") -> Optional[int]:
        """Force the stream's active block to FULL (used by on-demand GC)."""
        block = self._active.get(stream)
        if block is None:
            return None
        self._write_header(block, BlockState.FULL, now_ns)
        self.stats.blocks_filled += 1
        self._active[stream] = None
        return block

    def active_block(self, stream: str = "data") -> Optional[int]:
        return self._active.get(stream)

    def free_block_count(self) -> int:
        return len(self._free)

    # -- GC transitions -----------------------------------------------------------

    def begin_gc(self, block: int, now_ns: float) -> None:
        if self._state[block] != BlockState.FULL:
            raise CapacityError(f"block {block} not FULL; cannot GC")
        self._write_header(block, BlockState.GC, now_ns)

    def reclaim(self, block: int, now_ns: float) -> None:
        """Return a collected block to the free rotation (BLK_UNUSED).

        Bumps the block's reuse generation so slices written before the
        reclaim can never be mistaken for live ones by a recovery scan.
        """
        if self._state[block] != BlockState.GC:
            raise CapacityError(f"block {block} not under GC; cannot reclaim")
        self._generation[block] = (self._generation.get(block, 0) + 1) & 0xFF
        self._write_header(block, BlockState.UNUSED, now_ns)
        self._free.append(block)  # tail append = round-robin wear leveling
        self.stats.blocks_reclaimed += 1

    # -- slice IO ---------------------------------------------------------------

    def write_slice(
        self, slice_index: int, raw: bytes, now_ns: float, *, sync: bool
    ) -> float:
        """Persist a 128-byte slice; returns completion time."""
        if len(raw) != SLICE_BYTES:
            raise AddressError("slice writes must be exactly 128 bytes")
        addr = self.slice_addr(slice_index)
        if sync:
            return self.port.sync_write(addr, raw, now_ns)
        return self.port.async_write(addr, raw, now_ns)

    def read_slice(self, slice_index: int, now_ns: float) -> Tuple[bytes, float]:
        """Read a 128-byte slice; returns ``(raw, completion)``."""
        return self.port.read(self.slice_addr(slice_index), SLICE_BYTES, now_ns)

    def iter_block_slices(self, block: int) -> Iterator[int]:
        """Region slice indexes of every slot in a block."""
        for slot in range(self.slots_per_block):
            yield self.slice_index(block, slot)

    # -- lifecycle -------------------------------------------------------------

    # A power cut loses the open block and cursor of each stream.
    __durable__ = (
        "config", "port", "base", "block_bytes", "num_blocks",
        "slots_per_block", "_state", "_free", "_block_stream", "_generation",
        "_touched", "_busy_blocks", "stats")

    def crash(self) -> None:
        """Drop volatile allocator state (content stays on NVM)."""
        self._active = {"data": None, "addr": None}
        self._cursor = {"data": 0, "addr": 0}

    def rebuild_from_nvm(self) -> None:
        """Reconstruct block states by scanning on-NVM headers.

        Used by recovery before replaying committed transactions.  Blocks
        whose header was never written stay UNUSED.
        """
        self._state = [BlockState.UNUSED] * self.num_blocks
        self._block_stream = {}
        self._generation = {}
        for block in sorted(self._touched):
            raw = self.port.device.peek(self.block_base(block), SLICE_BYTES)
            try:
                _, _, state, stream, generation = _decode_header(raw)
            except CorruptionError:
                state = BlockState.UNUSED
                stream = "data"
                generation = 0
            # A block caught mid-GC is replayed like a FULL block.
            if state == BlockState.GC:
                state = BlockState.FULL
            self._state[block] = state
            self._generation[block] = generation
            if state != BlockState.UNUSED:
                self._block_stream[block] = stream
        self._busy_blocks = sum(
            1 for s in self._state if s != BlockState.UNUSED
        )
        self._free = deque(
            b for b, s in enumerate(self._state) if s == BlockState.UNUSED
        )
        self._active = {"data": None, "addr": None}
        self._cursor = {"data": 0, "addr": 0}

    def clear(self, now_ns: float) -> None:
        """Reset the whole region to UNUSED (end of recovery, §III-F).

        Every touched block's generation is bumped so slices from before
        the wipe can never be mistaken for live data later.
        """
        for block in sorted(self._touched):
            self._generation[block] = (
                self._generation.get(block, 0) + 1
            ) & 0xFF
            if self._state[block] != BlockState.UNUSED:
                self._write_header(block, BlockState.UNUSED, now_ns)
        self._state = [BlockState.UNUSED] * self.num_blocks
        self._busy_blocks = 0
        self._free = deque(range(self.num_blocks))
        self._active = {"data": None, "addr": None}
        self._cursor = {"data": 0, "addr": 0}
        self._block_stream.clear()


# -- snapshot declarations ----------------------------------------------------
RegionStats.__snapshot_state__ = "__atoms__"
OOPRegion.__snapshot_state__ = "__all__"
