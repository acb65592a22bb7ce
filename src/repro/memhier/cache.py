"""One set-associative, write-back, LRU cache level (tag store only).

Data is kept by the hierarchy (once per line, at LLC scope); this class
tracks presence, recency, and the per-line flag bits: ``dirty`` and the
``persistent`` bit HOOP adds to mark lines modified inside a transaction
(Section III-G).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Dict

from repro.common.config import CacheConfig
from repro.snapshot import reset_volatile


@dataclass(slots=True)
class LineFlags:
    """Per-line metadata bits."""

    dirty: bool = False
    persistent: bool = False
    tx_id: int = 0


# Shared placeholder for tag-only residency tracking (L1/L2): those
# levels never read their flag bits, so one immutable-by-convention
# instance serves every line instead of an allocation per insert.
_TAG = LineFlags()


class CacheLevel:
    """Tag store for one cache level.

    The level itself only probes; lines enter and leave through the
    hierarchy's miss path (:meth:`CacheHierarchy._miss_resident`), which
    works on ``_sets`` directly with the shift-and-mask set index below.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._ways = config.ways
        # Set index -> LRU bucket.  Probes index straight into the dict
        # (no .get()/None branch on the hottest lookups), and the first
        # one for a set creates its bucket, so a snapshot clone copies
        # only the sets a line ever mapped to.
        self._sets: Dict[int, "OrderedDict[int, LineFlags]"] = defaultdict(
            OrderedDict
        )
        # CacheConfig guarantees power-of-two line size and set count,
        # so the set index is ``(line_addr >> _shift) & _set_mask``.
        self._shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def probe(self, line_addr: int) -> bool:
        """Hit test: counts the hit or miss and refreshes LRU recency."""
        bucket = self._sets[(line_addr >> self._shift) & self._set_mask]
        if line_addr in bucket:
            self.hits += 1
            bucket.move_to_end(line_addr)
            return True
        self.misses += 1
        return False

    @property
    def miss_ratio(self) -> float:
        """Misses over probes since the last ``reset_stats`` (0 if none)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    # Power failure drops every line (``clear``); the counters stay.
    __durable__ = (
        "config", "_ways", "_shift", "_set_mask", "hits", "misses", "evictions")
    clear = reset_volatile

    def reset_stats(self) -> None:
        """Zero the counters; residency and recency stay."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


# -- snapshot declarations ----------------------------------------------------
# LineFlags fields are scalars.
LineFlags.__snapshot_state__ = "__atoms__"
CacheLevel.__snapshot_state__ = "__all__"
