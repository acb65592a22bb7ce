"""The GC-migration eviction buffer (§III-C).

While GC migrates a cache line home and removes its mapping-table entry, a
concurrent LLC miss could race past the table and read the home region
before the migrated bytes land.  HOOP closes the window with a small
(128 KB) buffer: GC parks every migrated line here; the load path probes it
after a mapping-table miss and before falling through to the home region.

Ours is a FIFO over ``(home line address → 64-byte line)`` with the line
budget implied by the SRAM size (64 B data + 8 B tag per entry).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.common.addr import CACHE_LINE_BYTES, cache_line_base
from repro.snapshot import reset_volatile
from repro.telemetry.hub import NULL_TELEMETRY


@dataclass
class EvictionBufferStats:
    inserts: int = 0
    hits: int = 0
    misses: int = 0
    fifo_drops: int = 0


class EvictionBuffer:
    """FIFO staging buffer for lines written home during GC."""

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines <= 0:
            raise ValueError("eviction buffer capacity must be positive")
        self.capacity_lines = capacity_lines
        self._lines: "OrderedDict[int, bytes]" = OrderedDict()
        self.stats = EvictionBufferStats()
        self.telemetry = NULL_TELEMETRY
        self.track = "evict0"

    def insert(self, line_addr: int, data: bytes, now_ns: float = 0.0) -> None:
        """Park a migrated line; oldest entry falls out when full.

        ``now_ns`` is purely observational (the telemetry timestamp);
        the buffer itself has no clock.
        """
        if len(data) != CACHE_LINE_BYTES:
            raise ValueError("eviction buffer holds whole cache lines")
        line = cache_line_base(line_addr)
        if line in self._lines:
            self._lines.move_to_end(line)
        self._lines[line] = data
        self.stats.inserts += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                now_ns, "oop_evict", self.track, {"line": line}
            )
        while len(self._lines) > self.capacity_lines:
            self._lines.popitem(last=False)
            self.stats.fifo_drops += 1
            if self.telemetry.enabled:
                self.telemetry.count("evict.fifo_drops")

    def lookup(self, line_addr: int) -> Optional[bytes]:
        """Probe for a migrated line (the step-2 check in Fig. 6's load)."""
        data = self._lines.get(cache_line_base(line_addr))
        if data is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return data

    @property
    def occupancy(self) -> int:
        return len(self._lines)

    # SRAM content is lost on power failure; the counters stay.
    __durable__ = ("capacity_lines", "stats", "telemetry", "track")
    crash = reset_volatile


# -- snapshot declarations ----------------------------------------------------
EvictionBufferStats.__snapshot_state__ = "__atoms__"
EvictionBuffer.__snapshot_state__ = "__all__"
