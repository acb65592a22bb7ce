"""Per-block NVM wear tracking.

Section III-D claims HOOP "can achieve uniform aging of all cache lines
within an OOP block" because blocks and slices are allocated round-robin.
The tracker counts writes per wear block so tests can assert that claim
(max/min write-count spread stays small across OOP blocks) and so reports
can show the write-amplification pressure each scheme puts on the device.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


class WearTracker:
    """Counts bytes written per fixed-size wear block."""

    def __init__(self, block_bytes: int = 2 * 1024 * 1024) -> None:
        if block_bytes <= 0:
            raise ValueError("wear block size must be positive")
        self.block_bytes = block_bytes
        self._writes: Dict[int, int] = defaultdict(int)

    def record_write(self, addr: int, num_bytes: int) -> None:
        """Attribute ``num_bytes`` written starting at ``addr``."""
        if num_bytes <= 0:
            return
        first = addr // self.block_bytes
        last = (addr + num_bytes - 1) // self.block_bytes
        if first == last:
            self._writes[first] += num_bytes
            return
        cursor = addr
        remaining = num_bytes
        for block in range(first, last + 1):
            block_end = (block + 1) * self.block_bytes
            chunk = min(remaining, block_end - cursor)
            self._writes[block] += chunk
            cursor += chunk
            remaining -= chunk

    def writes_for_block(self, block: int) -> int:
        """Bytes written so far to wear block ``block``."""
        return self._writes.get(block, 0)

    @property
    def touched_blocks(self) -> int:
        return len(self._writes)

    @property
    def total_bytes(self) -> int:
        return sum(self._writes.values())

    def spread(self) -> float:
        """max/mean write ratio over touched blocks (1.0 = perfectly even)."""
        if not self._writes:
            return 1.0
        counts = list(self._writes.values())
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean

    def reset(self) -> None:
        """Forget every count (a new measurement window)."""
        self._writes.clear()


# -- snapshot declarations ----------------------------------------------------
WearTracker.__snapshot_state__ = "__all__"
