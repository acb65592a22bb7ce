"""Functional + timed NVM device.

The device stores real bytes in sparse 4 KB pages (so a 512 GB device costs
only what is touched), and charges every access with:

* device latency (50 ns read / 150 ns write by default, Table II),
* channel occupancy through :class:`repro.nvm.bandwidth.ChannelModel`,
* energy through :class:`repro.nvm.energy.EnergyMeter` with a simple
  one-entry row-buffer locality model,
* wear through :class:`repro.nvm.wear.WearTracker`.

All persistence schemes read and write NVM *only* through this class, which
is what lets crash-recovery tests trust the device content as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from repro.common.config import NVMConfig
from repro.common.errors import AddressError
from repro.nvm.bandwidth import ChannelModel
from repro.nvm.energy import EnergyMeter
from repro.nvm.wear import WearTracker

_PAGE = 4096


class AccessResult(NamedTuple):
    """Timing outcome of one device access."""

    start_ns: float
    completion_ns: float
    row_buffer_hit: bool

    @property
    def latency_ns(self) -> float:
        return self.completion_ns - self.start_ns


@dataclass
class DeviceStats:
    """Aggregate functional counters."""

    __snapshot_state__ = "__atoms__"

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class NVMDevice:
    """Byte-addressable non-volatile memory with timing and energy."""

    def __init__(
        self,
        config: Optional[NVMConfig] = None,
        *,
        wear_block_bytes: int = 2 * 1024 * 1024,
    ) -> None:
        self.config = config or NVMConfig()
        # Hot-path snapshots of config scalars (read/write run per
        # simulated memory access).
        self._capacity = self.config.capacity
        self._row_bytes = self.config.row_buffer_bytes
        self._read_latency_ns = self.config.read_latency_ns
        self._write_latency_ns = self.config.write_latency_ns
        self._pages: Dict[int, bytearray] = {}
        # Pages shared copy-on-write with one or more snapshots: a write
        # to a member must clone the page first (repro.snapshot).  Empty
        # (one cheap set miss per write) until a snapshot is captured.
        self._cow_shared: set = set()
        self.channel = ChannelModel(self.config.bandwidth_gb_per_s)
        self.energy = EnergyMeter(self.config.energy)
        self.wear = WearTracker(wear_block_bytes)
        # Inlined energy/wear accounting for the timed plane: the
        # pJ/bit coefficient sums match EnergyMeter.record_* term
        # order so totals agree bit-for-bit.
        e = self.config.energy
        self._rd_hit_pj = e.row_buffer_read_pj_per_bit
        self._rd_miss_pj = e.array_read_pj_per_bit + e.row_buffer_read_pj_per_bit
        self._wr_hit_pj = e.row_buffer_write_pj_per_bit + e.array_write_pj_per_bit
        self._wr_miss_pj = (
            e.row_buffer_write_pj_per_bit
            + e.array_write_pj_per_bit
            + e.array_read_pj_per_bit
        )
        self._wear_block = self.wear.block_bytes
        self._wear_writes = self.wear._writes
        self.stats = DeviceStats()
        self._open_row: Optional[int] = None

    # -- functional byte plane ---------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size <= 0 or addr + size > self._capacity:
            raise AddressError(
                f"access [{addr:#x}, +{size}) outside device of "
                f"{self.config.capacity} bytes"
            )

    def peek(self, addr: int, size: int) -> bytes:
        """Read bytes with no timing, energy, or stats (for tests/tools)."""
        self._check(addr, size)
        page_base = addr & ~(_PAGE - 1)
        if (addr + size - 1) & ~(_PAGE - 1) == page_base:
            # Single-page access (every cache-line/word access qualifies).
            page = self._pages.get(page_base)
            if page is None:
                return bytes(size)
            offset = addr - page_base
            return bytes(page[offset : offset + size])
        out = bytearray(size)
        cursor = addr
        filled = 0
        while filled < size:
            page_base = cursor & ~(_PAGE - 1)
            offset = cursor - page_base
            chunk = min(size - filled, _PAGE - offset)
            page = self._pages.get(page_base)
            if page is not None:
                out[filled : filled + chunk] = page[offset : offset + chunk]
            cursor += chunk
            filled += chunk
        return bytes(out)

    def poke(self, addr: int, data: bytes) -> None:
        """Write bytes with no timing, energy, or stats (for tests/tools)."""
        size = len(data)
        self._check(addr, max(1, size))
        page_base = addr & ~(_PAGE - 1)
        if size and (addr + size - 1) & ~(_PAGE - 1) == page_base:
            page = self._pages.get(page_base)
            if page is None:
                page = bytearray(_PAGE)
                self._pages[page_base] = page
            elif page_base in self._cow_shared:
                page = bytearray(page)
                self._pages[page_base] = page
                self._cow_shared.discard(page_base)
            offset = addr - page_base
            page[offset : offset + size] = data
            return
        cursor = addr
        consumed = 0
        size = len(data)
        while consumed < size:
            page_base = cursor & ~(_PAGE - 1)
            offset = cursor - page_base
            chunk = min(size - consumed, _PAGE - offset)
            page = self._pages.get(page_base)
            if page is None:
                page = bytearray(_PAGE)
                self._pages[page_base] = page
            elif page_base in self._cow_shared:
                page = bytearray(page)
                self._pages[page_base] = page
                self._cow_shared.discard(page_base)
            page[offset : offset + chunk] = data[consumed : consumed + chunk]
            cursor += chunk
            consumed += chunk

    def poke_batch(self, pokes: Sequence[Tuple[int, bytes]]) -> None:
        """Many pokes in order; exactly equal to one ``poke`` each.

        Recovery writes home one word or line per poke, often the same
        line many times over.  When every element has one power-of-two
        size of at most a page, is aligned to it and lies in the device,
        any two elements either coincide or are disjoint, so only the
        last value per address is applied: the final bytes are the same.
        Each applied element runs ``poke``'s single-page body here,
        keeping the last page it wrote (already private to this device)
        for the next element; in any other batch a page-crossing, empty
        or out-of-range element takes the full ``poke``, which raises at
        that element with every earlier one applied.
        """
        pages = self._pages
        cow_shared = self._cow_shared
        capacity = self._capacity
        if pokes:
            size = len(pokes[0][1])
            if 0 < size <= _PAGE and not size & (size - 1):
                misaligned = size - 1
                latest: Dict[int, bytes] = {}
                for addr, data in pokes:
                    if (
                        len(data) != size
                        or addr & misaligned
                        or addr < 0
                        or addr + size > capacity
                    ):
                        break
                    latest[addr] = data
                else:
                    pokes = latest.items()
        last_base = -1
        page = None
        for addr, data in pokes:
            size = len(data)
            page_base = addr & ~(_PAGE - 1)
            if (
                size
                and addr >= 0
                and addr + size <= capacity
                and (addr + size - 1) & ~(_PAGE - 1) == page_base
            ):
                if page_base != last_base:
                    page = pages.get(page_base)
                    if page is None:
                        page = bytearray(_PAGE)
                        pages[page_base] = page
                    elif page_base in cow_shared:
                        page = bytearray(page)
                        pages[page_base] = page
                        cow_shared.discard(page_base)
                    last_base = page_base
                offset = addr - page_base
                page[offset : offset + size] = data
            else:
                NVMDevice.poke(self, addr, data)

    # -- timed plane ---------------------------------------------------------

    def read(self, addr: int, size: int, now_ns: float = 0.0):
        """Timed priority read; returns ``(data, AccessResult)``."""
        # peek()'s single-page fast path inlined (timed reads run per
        # LLC fill); multi-page or invalid accesses take the full call.
        page_base = addr & ~(_PAGE - 1)
        if (
            addr >= 0
            and 0 < size
            and addr + size <= self._capacity
            and (addr + size - 1) & ~(_PAGE - 1) == page_base
        ):
            page = self._pages.get(page_base)
            if page is None:
                data = bytes(size)
            else:
                offset = addr - page_base
                data = bytes(page[offset : offset + size])
        else:
            data = self.peek(addr, size)
        row = addr // self._row_bytes
        hit = row == self._open_row
        self._open_row = row
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += size
        self.energy.read_pj += (size * 8) * (
            self._rd_hit_pj if hit else self._rd_miss_pj
        )
        finish = self.channel.read(now_ns, size) + self._read_latency_ns
        return data, AccessResult(now_ns, finish, hit)

    def write(
        self,
        addr: int,
        data: bytes,
        now_ns: float = 0.0,
        *,
        queued: bool = True,
    ) -> AccessResult:
        """Timed write; ``queued`` rides the write queue, else the caller
        waits behind it (a persist).  Returns an :class:`AccessResult`."""
        if not data:
            return AccessResult(now_ns, now_ns, True)
        size = len(data)
        # poke()'s single-page fast path inlined (timed writes run per
        # persist/eviction); multi-page or invalid accesses take the
        # full call.
        page_base = addr & ~(_PAGE - 1)
        if (
            addr >= 0
            and addr + size <= self._capacity
            and (addr + size - 1) & ~(_PAGE - 1) == page_base
        ):
            page = self._pages.get(page_base)
            if page is None:
                page = bytearray(_PAGE)
                self._pages[page_base] = page
            elif page_base in self._cow_shared:
                page = bytearray(page)
                self._pages[page_base] = page
                self._cow_shared.discard(page_base)
            offset = addr - page_base
            page[offset : offset + size] = data
        else:
            self.poke(addr, data)
        row = addr // self._row_bytes
        hit = row == self._open_row
        self._open_row = row
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += size
        self.energy.write_pj += (size * 8) * (
            self._wr_hit_pj if hit else self._wr_miss_pj
        )
        block = addr // self._wear_block
        if (addr + size - 1) // self._wear_block == block:
            self._wear_writes[block] += size
        else:
            self.wear.record_write(addr, size)
        if queued:
            finish = self.channel.write_queued(now_ns, size)
        else:
            finish = self.channel.write_sync(now_ns, size)
        return AccessResult(now_ns, finish + self._write_latency_ns, hit)

    def write_batch(
        self, writes: Iterable[Tuple[int, bytes]], now_ns: float = 0.0
    ) -> None:
        """Queue many writes issued at the same instant.

        Every piece of state (content, stats, energy, wear, row-buffer
        sequence, channel backlog and stats) ends exactly equal to
        calling ``write(..., queued=True)`` once per element at
        ``now_ns``: the body is ``write``'s, run per element in order,
        with only the per-write completion arithmetic and
        :class:`AccessResult` left out for callers — like GC migration —
        that never look at individual completions.
        """
        pages = self._pages
        cow_shared = self._cow_shared
        capacity = self._capacity
        row_bytes = self._row_bytes
        wear_block = self._wear_block
        wear_writes = self._wear_writes
        stats = self.stats
        energy = self.energy
        sizes = []
        for addr, data in writes:
            if not data:
                continue
            size = len(data)
            page_base = addr & ~(_PAGE - 1)
            if (
                addr >= 0
                and addr + size <= capacity
                and (addr + size - 1) & ~(_PAGE - 1) == page_base
            ):
                page = pages.get(page_base)
                if page is None:
                    page = bytearray(_PAGE)
                    pages[page_base] = page
                elif page_base in cow_shared:
                    page = bytearray(page)
                    pages[page_base] = page
                    cow_shared.discard(page_base)
                offset = addr - page_base
                page[offset : offset + size] = data
            else:
                self.poke(addr, data)
            row = addr // row_bytes
            hit = row == self._open_row
            self._open_row = row
            stats.writes += 1
            stats.bytes_written += size
            energy.write_pj += (size * 8) * (
                self._wr_hit_pj if hit else self._wr_miss_pj
            )
            block = addr // wear_block
            if (addr + size - 1) // wear_block == block:
                wear_writes[block] += size
            else:
                self.wear.record_write(addr, size)
            sizes.append(size)
        if sizes:
            self.channel.write_queued_many(now_ns, sizes)

    # -- snapshots ---------------------------------------------------------------

    def __snapshot_clone__(self, memo: dict, clone) -> "NVMDevice":
        """Copy-on-write clone hook for :mod:`repro.snapshot`.

        Sparse pages are *shared* between source and clone; both sides
        mark every current page COW-shared, and the write paths clone a
        shared page before its first mutation.  Everything else (stats,
        channel, energy, wear, fault state in the subclass) is cloned
        through the engine, which preserves aliases like
        ``_wear_writes is wear._writes`` via the shared memo.
        """
        cls = self.__class__
        out = cls.__new__(cls)
        memo[id(self)] = out
        self._cow_shared.update(self._pages.keys())
        out_dict = out.__dict__
        for key, value in self.__dict__.items():
            if key == "_pages":
                out_dict[key] = dict(value)
            elif key == "_cow_shared":
                out_dict[key] = set(self._pages.keys())
            else:
                out_dict[key] = clone(value)
        return out

    # -- bookkeeping -----------------------------------------------------------

    def restore_power(self) -> None:
        """Reboot hook after a (simulated) power failure.

        The plain device has no power-failure state; the fault-injecting
        subclass disarms its power-loss budgets here.  Called by
        :meth:`repro.txn.system.MemorySystem.crash`.
        """

    def content_fingerprint(self) -> str:
        """SHA-256 over all non-zero content (order- and layout-stable).

        All-zero pages hash identically to untouched ones (missing pages
        read as zeros), so two devices with equal *readable* content
        always fingerprint equally — the byte-identity oracle the
        crash-sweep and parallel-recovery tests compare.
        """
        import hashlib

        digest = hashlib.sha256()
        zero = bytes(_PAGE)
        for page_base in sorted(self._pages):
            page = self._pages[page_base]
            if page == zero:
                continue
            digest.update(page_base.to_bytes(8, "little"))
            digest.update(page)
        return digest.hexdigest()

    @property
    def touched_bytes(self) -> int:
        """Bytes of backing storage actually allocated (sparse footprint)."""
        return len(self._pages) * _PAGE

    def reset_stats(self) -> None:
        """Clear counters/energy/wear but keep content (new measurement)."""
        self.stats = DeviceStats()
        self.energy.reset()
        self.wear.reset()
        self.channel.reset()
        self._open_row = None

    def clear(self) -> None:
        """Erase content and counters (fresh device)."""
        self._pages.clear()
        self._cow_shared.clear()
        self.reset_stats()

# AccessResult is a frozen timing record (floats/bool) — atom-shared.
AccessResult.__snapshot_state__ = "__atom__"
