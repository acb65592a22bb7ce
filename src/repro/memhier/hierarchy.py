"""The three-level cache hierarchy (per-core L1/L2, shared inclusive LLC).

Design notes
------------

* **Single data copy.**  Line bytes live in one dict scoped to LLC
  residency.  L1/L2 are presence/recency tag stores used only for latency;
  dirty/persistent flags are kept on the LLC entry.  This collapses the
  coherence problem (the paper relies on conventional coherence and so do
  we) while preserving the two facts schemes care about: *which* lines are
  volatile, and *what bytes* leave the hierarchy on an eviction.

* **Inclusive LLC.**  An LLC eviction back-invalidates every core's L1/L2,
  matching the inclusive configuration in Table II.

* **Fill/evict delegation.**  On an LLC miss the active persistence scheme
  supplies the line (home region, OOP region, log, or shadow copy — that is
  the scheme's whole point); on a dirty eviction the scheme decides where
  the bytes go.  The hierarchy never touches NVM itself.

* **Hot-path layout.**  Word loads and every store are the innermost
  operations of every simulation, so ``MemorySystem`` (``txn/system.py``)
  runs the L1 probe and the line write inline against this class's
  private state and enters it only on an L1 miss
  (:meth:`CacheHierarchy._miss_resident`); :meth:`CacheHierarchy.load`
  serves every other read.  The common case (an L1 hit) is kept free of
  LLC probes: per-line flags are mirrored in a flat dict (``_flags``)
  whose lifetime exactly matches ``_data`` (LLC residency), and the
  per-level latencies are cached as plain floats at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Tuple

from repro.common.addr import CACHE_LINE_BYTES
from repro.common.config import SystemConfig
from repro.common.errors import AddressError
from repro.memhier.cache import _TAG, CacheLevel, LineFlags
from repro.snapshot import reset_volatile

# fill_handler(line_addr, now_ns) -> (line_bytes, extra_latency_ns)
FillHandler = Callable[[int, float], Tuple[bytes, float]]
# evict_handler(line_addr, data, dirty, persistent, tx_id, now_ns) -> None
EvictHandler = Callable[[int, bytes, bool, bool, int, float], None]

_LINE_MASK = ~(CACHE_LINE_BYTES - 1)


class AccessOutcome(NamedTuple):
    """Where an access hit and what it cost."""

    hit_level: str  # "L1", "L2", "LLC", or "MEM"
    latency_ns: float

    @property
    def llc_miss(self) -> bool:
        """True when the scheme had to supply the line."""
        return self.hit_level == "MEM"


@dataclass
class HierarchyStats:
    """Access and LLC counters since the last ``reset_stats``."""

    loads: int = 0
    stores: int = 0
    llc_misses: int = 0
    llc_accesses: int = 0
    dirty_evictions: int = 0

    @property
    def llc_miss_ratio(self) -> float:
        """LLC misses over LLC accesses (0 before the first)."""
        if not self.llc_accesses:
            return 0.0
        return self.llc_misses / self.llc_accesses


class CacheHierarchy:
    """Per-core L1/L2 over a shared, inclusive LLC."""

    def __init__(
        self,
        config: SystemConfig,
        fill_handler: FillHandler,
        evict_handler: EvictHandler,
    ) -> None:
        self.config = config
        self._fill = fill_handler
        self._evict = evict_handler
        self._l1 = [CacheLevel(config.l1) for _ in range(config.num_cores)]
        self._l2 = [CacheLevel(config.l2) for _ in range(config.num_cores)]
        # Back-invalidation sweeps every private level; one flat list
        # halves the loop bookkeeping on each LLC eviction.
        self._private_levels = self._l1 + self._l2
        self._llc = CacheLevel(config.llc)
        self._data: Dict[int, bytearray] = {}
        # Flags mirror: same keys as _data, pointing at the LineFlags
        # objects stored in the LLC tag array.  Lets a store reach a
        # line's flags by one dict probe instead of a set-associative
        # LLC lookup.
        self._flags: Dict[int, LineFlags] = {}
        # Per-level latencies as plain floats (dataclass attribute chains
        # are measurable on the hot path).
        self._l1_latency = config.l1.latency_ns
        self._l2_latency = config.l2.latency_ns
        self._llc_latency = config.llc.latency_ns
        self._num_cores = config.num_cores
        # Hit latencies never vary, so the three hit outcomes are shared
        # immutable singletons; only MEM outcomes (fill latency varies)
        # are built per miss.
        self._out_l1 = AccessOutcome("L1", self._l1_latency)
        self._out_l2 = AccessOutcome("L2", self._l1_latency + self._l2_latency)
        self._out_llc = AccessOutcome(
            "LLC", self._l1_latency + self._l2_latency + self._llc_latency
        )
        self.stats = HierarchyStats()

    # -- internals -----------------------------------------------------------

    def _back_invalidate(self, line_addr: int) -> None:
        # Inclusive LLC: drop the line from all 2*num_cores private tag
        # stores.  Runs per LLC eviction, so the buckets are reached
        # directly — with .get(), which creates no bucket for a set no
        # line of that level ever mapped to.
        for level in self._private_levels:
            bucket = level._sets.get(
                (line_addr >> level._shift) & level._set_mask
            )
            if bucket is not None:
                bucket.pop(line_addr, None)

    def _evict_line(
        self,
        line_addr: int,
        dirty: bool,
        persistent: bool,
        tx_id: int,
        now_ns: float,
    ) -> None:
        """Retire an LLC victim: drop it everywhere, hand it to the scheme."""
        data = self._data.pop(line_addr, None)
        self._flags.pop(line_addr, None)
        self._back_invalidate(line_addr)
        if data is None:
            return
        if dirty:
            self.stats.dirty_evictions += 1
        self._evict(
            line_addr,
            bytes(data),
            dirty,
            persistent,
            tx_id,
            now_ns,
        )

    def _miss_resident(
        self, core: int, line_addr: int, now_ns: float
    ) -> AccessOutcome:
        """L1-missed path of residency: probe L2/LLC, fill on LLC miss.

        The one place lines enter and leave the tag stores.  It works on
        the levels' buckets directly — an L2/LLC probe is
        :meth:`CacheLevel.probe` written out; a refill pushes the LRU
        way out of a full set and inserts, the line being absent from
        every level it just missed in — because this runs on every L1
        miss and a call per level is measurable.
        """
        l1 = self._l1[core]
        l2 = self._l2[core]
        l1_bucket = l1._sets[(line_addr >> l1._shift) & l1._set_mask]
        l2_bucket = l2._sets[(line_addr >> l2._shift) & l2._set_mask]
        if line_addr in l2_bucket:
            l2.hits += 1
            l2_bucket.move_to_end(line_addr)
            outcome = self._out_l2
        else:
            l2.misses += 1
            stats = self.stats
            stats.llc_accesses += 1
            llc = self._llc
            bucket = llc._sets[(line_addr >> llc._shift) & llc._set_mask]
            if line_addr in bucket:
                llc.hits += 1
                bucket.move_to_end(line_addr)
                outcome = self._out_llc
            else:
                llc.misses += 1
                # LLC miss: the scheme supplies the line.
                stats.llc_misses += 1
                data, extra = self._fill(line_addr, now_ns)
                if len(data) != CACHE_LINE_BYTES:
                    raise AddressError(
                        f"fill handler returned {len(data)} bytes for a line"
                    )
                if len(bucket) >= llc._ways:
                    victim_addr, victim_flags = bucket.popitem(last=False)
                    llc.evictions += 1
                    self._evict_line(
                        victim_addr,
                        victim_flags.dirty,
                        victim_flags.persistent,
                        victim_flags.tx_id,
                        now_ns,
                    )
                flags = LineFlags()
                bucket[line_addr] = flags
                self._data[line_addr] = bytearray(data)
                self._flags[line_addr] = flags
                outcome = AccessOutcome(
                    "MEM", self._out_llc.latency_ns + extra
                )
            # L2 refill.  An eviction above back-invalidates only the
            # *victim's* line, so this one is still absent here.
            if len(l2_bucket) >= l2._ways:
                l2_bucket.popitem(last=False)
                l2.evictions += 1
            l2_bucket[line_addr] = _TAG
        # L1 refill: the caller's L1 probe is what missed.
        if len(l1_bucket) >= l1._ways:
            l1_bucket.popitem(last=False)
            l1.evictions += 1
        l1_bucket[line_addr] = _TAG
        return outcome

    # -- public API ------------------------------------------------------------

    def load(
        self, core: int, addr: int, size: int, now_ns: float = 0.0
    ) -> Tuple[bytes, AccessOutcome]:
        """Read ``size`` bytes within one cache line."""
        if not 0 <= core < self._num_cores:
            raise AddressError(f"core {core} out of range")
        line = addr & _LINE_MASK
        if (addr + size - 1) & _LINE_MASK != line:
            raise AddressError("load must not cross a cache-line boundary")
        self.stats.loads += 1
        if self._l1[core].probe(line):
            outcome = self._out_l1
        else:
            outcome = self._miss_resident(core, line, now_ns)
        offset = addr - line
        data = bytes(self._data[line][offset : offset + size])
        return data, outcome

    # Power failure: every line vanishes; the levels and counters stay.
    __durable__ = (
        "config", "_fill", "_evict", "_l1", "_l2", "_private_levels", "_llc",
        "_l1_latency", "_l2_latency", "_llc_latency", "_num_cores", "_out_l1",
        "_out_l2", "_out_llc", "stats")

    def crash(self) -> None:
        """Power failure: every volatile line vanishes."""
        reset_volatile(self)
        for level in (*self._private_levels, self._llc):
            level.clear()

    @property
    def llc(self) -> CacheLevel:
        """The shared last-level tag store (its buckets hold the flags)."""
        return self._llc

    def reset_stats(self) -> None:
        """Zero every counter, here and in each level; contents stay."""
        self.stats = HierarchyStats()
        self._llc.reset_stats()
        for level in self._l1:
            level.reset_stats()
        for level in self._l2:
            level.reset_stats()


# -- snapshot declarations ----------------------------------------------------
HierarchyStats.__snapshot_state__ = "__atoms__"
CacheHierarchy.__snapshot_state__ = "__all__"
AccessOutcome.__snapshot_state__ = "__atom__"
