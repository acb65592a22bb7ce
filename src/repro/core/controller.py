"""The HOOP memory-controller machinery (paper Fig. 2 and Fig. 6).

:class:`HoopController` owns every indirection-layer structure and
implements the load/store/commit flows; :class:`HoopScheme` adapts it to
the common :class:`~repro.schemes.base.PersistenceScheme` contract so the
harness can swap HOOP against the baselines.

Store path (Fig. 6 right): a transactional store updates the cache line
(persistent bit set by the hierarchy) and mirrors each touched **word**
into the issuing core's OOP data buffer; packed slices stream to the OOP
region asynchronously; nothing stalls.  ``Tx_end`` drains the final slice
and appends the commit-log entry — two synchronous 128-byte persists are
the whole commit-time critical path.

Load path (Fig. 6 left): an LLC miss probes the mapping table.  On a hit
the home line and the referenced slices are read in parallel and the line
is reconstructed by overlaying the mapped words (newest versions of words
still in a core's OOP data buffer come straight from SRAM).  On a miss the
eviction buffer is probed, then the home region.

The crucial invariant (property-tested): every word a transaction stores
is mirrored out-of-place *at store time*, so dirty persistent lines can be
evicted by simply dropping them — the out-of-place copy plus the home
region always reconstructs the newest value.  That is where HOOP's write
traffic and latency wins come from.

Declared durability discipline: ``controller-ordered`` — the hardware
FIFO write queue orders the asynchronously streamed OOP slices ahead of
the synchronous STATE_LAST slice (the commit point), so no explicit
drain edge is required; the persist-ordering sanitizer
(:mod:`repro.check`) checks coverage and the synchronous commit persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.addr import (
    CACHE_LINE_BYTES,
    WORD_BYTES,
    cache_line_base,
)
from repro.common.config import SystemConfig
from repro.core.block_refs import BlockRefs
from repro.core.commit_log import CommitLog
from repro.core.eviction_buffer import EvictionBuffer
from repro.core.gc import GarbageCollector, GCPassReport
from repro.core.mapping_table import MappingTable
from repro.core.oop_buffer import OOPDataBuffer
from repro.core.oop_region import OOPRegion
from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.core.slices import SliceCodec
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, SchemeTraits
from repro.telemetry.hub import NULL_TELEMETRY

# On-chip SRAM probe latency inside the memory controller (mapping table,
# eviction buffer, OOP data buffer) and the slice-unpack cost the paper
# calls "a few cycles".
_SRAM_PROBE_NS = 2.0
_UNPACK_NS = 2.0


@dataclass
class HoopStats:
    """Controller-level counters behind §IV-C's read-path profile."""

    mapping_hits_on_miss: int = 0
    mapping_misses_on_miss: int = 0
    eviction_buffer_hits: int = 0
    parallel_reads: int = 0
    oop_only_reads: int = 0
    buffered_word_reads: int = 0
    persistent_evictions_dropped: int = 0
    on_demand_gc: int = 0
    # NVM reads issued by the *fill* path only (excludes GC's scans), the
    # denominator-matched counter behind §IV-C's "1.28 loads per miss".
    fill_home_reads: int = 0
    fill_slice_reads: int = 0


class HoopController:
    """All of HOOP's memory-controller state and flows."""

    def __init__(
        self,
        config: SystemConfig,
        device: NVMDevice,
        *,
        region_base: Optional[int] = None,
        region_size: Optional[int] = None,
    ) -> None:
        self.config = config
        self.device = device
        self.port = MemoryPort(device)
        if config.hoop.packing_degree is not None:
            self.codec = SliceCodec(
                config.hoop.home_addr_bits, config.hoop.packing_degree
            )
        else:
            self.codec = SliceCodec.for_home_bits(config.hoop.home_addr_bits)
        self.region = OOPRegion(
            config, self.port, base=region_base, size=region_size
        )
        self.mapping = MappingTable(
            config.hoop.mapping_table_entries,
            condense=config.hoop.condense_mapping,
        )
        self.eviction_buffer = EvictionBuffer(config.hoop.eviction_buffer_lines)
        self.commit_log = CommitLog(self.region, self.codec)
        self.refs = BlockRefs()
        self.buffer = OOPDataBuffer(
            config,
            self.region,
            self.codec,
            self.mapping,
            on_slice_written=self.refs.on_slice_written,
        )
        self.gc = GarbageCollector(
            config,
            self.region,
            self.codec,
            self.commit_log,
            self.mapping,
            self.eviction_buffer,
            self.refs,
            self.port,
        )
        self.recovery = RecoveryManager(
            config, self.region, self.codec, self.commit_log, self.port
        )
        self.stats = HoopStats()
        self.telemetry = NULL_TELEMETRY
        self._track = "ctrl0"

    def attach_telemetry(self, telemetry, *, index: int = 0) -> None:
        """Install an event hub across the controller's component tree.

        ``index`` names this controller's tracks (``ctrl<i>``, ``gc<i>``,
        ``evict<i>``) so the multi-controller scheme's timelines stay
        separable in the exported trace.
        """
        self.telemetry = telemetry
        self._track = f"ctrl{index}"
        self.port.telemetry = telemetry
        self.port.track = self._track
        self.gc.telemetry = telemetry
        self.gc.track = f"gc{index}"
        self.commit_log.telemetry = telemetry
        self.commit_log.track = self._track
        self.eviction_buffer.telemetry = telemetry
        self.eviction_buffer.track = f"evict{index}"
        self.buffer.telemetry = telemetry
        self.buffer.track = self._track

    def attach_checker(self, checker) -> None:
        """Install a persist-ordering sanitizer on the controller tree."""
        self.port.check = checker
        self.buffer.check = checker

    # -- transaction flow -------------------------------------------------------

    def tx_begin(self, core: int, tx_id: int, now_ns: float) -> float:
        """Set the transaction state bit; open the core's buffer entry."""
        self.refs.on_tx_begin(tx_id)
        self.buffer.begin(core, tx_id)
        return now_ns

    def tx_store(
        self,
        core: int,
        tx_id: int,
        addr: int,
        size: int,
        line_addr: int,
        line_data: bytes,
        now_ns: float,
    ) -> float:
        """Mirror every touched word into the OOP data buffer."""
        if self.gc.pressure():
            if self.telemetry.enabled:
                self.telemetry.emit(
                    now_ns,
                    "ondemand_gc",
                    self._track,
                    {
                        "mapping_entries": self.mapping.entries,
                        "busy_blocks": self.region.busy_blocks,
                    },
                )
            report = self.gc.run(now_ns, on_demand=True)
            self.stats.on_demand_gc += 1
            now_ns = max(now_ns, report.completion_ns)
        # The hierarchy already bounds-checked the access and cut it at
        # line boundaries: one word-run call per store piece.
        self.buffer.add_words(core, addr, size, line_addr, line_data, now_ns)
        return now_ns

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        """Drain the buffer, persist the commit-log entry (commit point)."""
        segments, completion = self.buffer.tx_end(core, now_ns)
        now_ns = max(now_ns, completion)
        for tail in segments[:-1]:
            now_ns = max(
                now_ns,
                self.commit_log.append_entry(tx_id, tail, False, now_ns),
            )
        if segments:
            now_ns = max(
                now_ns,
                self.commit_log.append_entry(tx_id, segments[-1], True, now_ns),
            )
            self.refs.on_tx_commit(tx_id)
        else:
            # A read-only transaction commits without any persist.
            self.refs.on_tx_retired(tx_id)
        return now_ns

    # -- load path (Fig. 6 left) ------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        """Serve an LLC miss; returns (line, extra latency beyond caches)."""
        line_addr = cache_line_base(line_addr)
        mapped = self.mapping.lookup_line(line_addr)
        if mapped:
            self.stats.mapping_hits_on_miss += 1
            return self._reconstruct(line_addr, mapped, now_ns)
        self.stats.mapping_misses_on_miss += 1
        staged = self.eviction_buffer.lookup(line_addr)
        if staged is not None:
            self.stats.eviction_buffer_hits += 1
            return staged, _SRAM_PROBE_NS
        data, completion = self.port.read(line_addr, CACHE_LINE_BYTES, now_ns)
        self.stats.fill_home_reads += 1
        return data, (completion - now_ns) + _SRAM_PROBE_NS

    def _reconstruct(
        self, line_addr: int, mapped: Dict[int, "object"], now_ns: float
    ) -> Tuple[bytes, float]:
        """Overlay mapped words onto the home line (parallel reads)."""
        slice_reads: List[Tuple[int, "object"]] = []
        overlays: List[Tuple[int, bytes]] = []
        for word_addr, location in mapped.items():
            if location.in_buffer:
                value = self.buffer.buffered_word(
                    location.slice_index, word_addr
                )
                if value is None:
                    # The buffered word was flushed between mapping update
                    # and this probe; fall back to its slice via a fresh
                    # lookup (the relocation already happened).
                    refreshed = self.mapping.lookup_word(word_addr)
                    if refreshed is not None and not refreshed.in_buffer:
                        slice_reads.append((word_addr, refreshed))
                    continue
                overlays.append((word_addr, value))
                self.stats.buffered_word_reads += 1
            else:
                slice_reads.append((word_addr, location))

        distinct_slices: Dict[int, List[Tuple[int, "object"]]] = {}
        for word_addr, location in slice_reads:
            distinct_slices.setdefault(location.slice_index, []).append(
                (word_addr, location)
            )
        slice_completion = now_ns
        for slice_index, members in distinct_slices.items():
            raw, slice_completion = self.region.read_slice(slice_index, now_ns)
            self.stats.fill_slice_reads += 1
            ds = self.codec.decode_data(raw)
            addrs, payload = ds.addrs, ds.payload
            for word_addr, location in members:
                slot = location.word_slot
                # A slot not holding the word would be a stale entry;
                # the home line's bytes stand then.
                if slot < len(addrs) and addrs[slot] == word_addr:
                    offset = slot * WORD_BYTES
                    overlays.append(
                        (word_addr, payload[offset : offset + WORD_BYTES])
                    )

        # Only when the overlays cover the whole line can the home read be
        # skipped; otherwise both reads are issued in parallel (§III-G).
        covered = {word_addr for word_addr, _ in overlays}
        need_home = len(covered) < CACHE_LINE_BYTES // WORD_BYTES
        home_completion = now_ns
        if need_home:
            home, home_completion = self.port.read(
                line_addr, CACHE_LINE_BYTES, now_ns
            )
            self.stats.fill_home_reads += 1
            line = bytearray(home)
        else:
            line = bytearray(CACHE_LINE_BYTES)
        for word_addr, value in overlays:
            offset = word_addr - line_addr
            line[offset : offset + WORD_BYTES] = value

        if distinct_slices and need_home:
            self.stats.parallel_reads += 1
        elif distinct_slices:
            self.stats.oop_only_reads += 1
        final = max(home_completion, slice_completion)
        return bytes(line), (final - now_ns) + _SRAM_PROBE_NS + _UNPACK_NS

    # -- evictions -----------------------------------------------------------------

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
            # Every transactional word is already mirrored out-of-place at
            # store time; the eviction costs nothing.
            self.stats.persistent_evictions_dropped += 1
            return
        self.port.async_write(line_addr, data, now_ns)

    # -- background / crash / recovery -------------------------------------------

    def tick(self, now_ns: float) -> Optional[GCPassReport]:
        return self.gc.maybe_run(now_ns)

    def quiesce(self, now_ns: float) -> float:
        """Migrate everything committed home (end-of-measurement GC)."""
        for _ in range(4):  # multi-segment chains may need extra passes
            if self.commit_log.live_count == 0:
                break
            report = self.gc.run(now_ns, on_demand=True)
            now_ns = max(now_ns, report.completion_ns)
            if report.transactions_migrated == 0:
                break
        return now_ns

    def crash(self) -> None:
        self.buffer.crash()
        self.mapping.crash()
        self.eviction_buffer.crash()
        self.refs.crash()
        self.region.crash()
        self.commit_log.crash()

    def recover(
        self,
        *,
        threads: int = 1,
        bandwidth_gb_per_s: Optional[float] = None,
    ) -> RecoveryReport:
        report = self.recovery.recover(
            threads=threads, bandwidth_gb_per_s=bandwidth_gb_per_s
        )
        self.mapping.crash()
        self.eviction_buffer.crash()
        self.refs.crash()
        return report


class HoopScheme(PersistenceScheme):
    """HOOP behind the common persistence-scheme contract."""

    name = "hoop"
    traits = SchemeTraits(
        approach="Hardware out-of-place update",
        read_latency="Low",
        extra_writes_on_critical_path=False,
        requires_flush_fence=False,
        write_traffic="Low",
        durability="controller-ordered",
    )

    def __init__(self, config: SystemConfig, device: NVMDevice) -> None:
        super().__init__(config, device)
        self.controller = HoopController(config, device)
        # Share one port so traffic rolls up in one place.
        self.port = self.controller.port

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.controller.attach_telemetry(telemetry, index=0)

    def attach_checker(self, checker) -> None:
        self.check = checker
        self.controller.attach_checker(checker)
        checker.bind_scheme(self.name, self.traits.durability)

    def slice_codecs(self) -> tuple:
        """The controller's codec."""
        return (self.controller.codec,)

    def detach_recovery_memos(self) -> None:
        """Detach the controller's recovery memo."""
        self.controller.recovery.detach_memo()

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        tx_id, now_ns = super().tx_begin(core, now_ns)
        return tx_id, self.controller.tx_begin(core, tx_id, now_ns)

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
        return self.controller.tx_store(
            core, tx_id, addr, size, line_addr, line_data, now_ns
        )

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        return self.controller.tx_end(core, tx_id, now_ns)

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        return self.controller.fill_line(line_addr, now_ns)

    def on_evict(
        self,
        line_addr: int,
        data: bytes,
        dirty: bool,
        persistent: bool,
        tx_id: int,
        now_ns: float,
    ) -> None:
        self.controller.on_evict(
            line_addr, data, dirty, persistent, tx_id, now_ns
        )

    def tick(self, now_ns: float) -> None:
        self.controller.tick(now_ns)

    def quiesce(self, now_ns: float) -> float:
        return self.controller.quiesce(now_ns)

    def crash(self) -> None:
        self.controller.crash()

    def recover(
        self, *, threads: int = 1, bandwidth_gb_per_s: Optional[float] = None
    ) -> RecoveryReport:
        return self.controller.recover(
            threads=threads, bandwidth_gb_per_s=bandwidth_gb_per_s
        )

    def reset_measurement(self) -> None:
        super().reset_measurement()
        # Keep per-window read-path counters aligned with the hierarchy
        # and device counters the harness resets at measurement start.
        self.controller.stats = HoopStats()

    @property
    def hoop_stats(self) -> HoopStats:
        return self.controller.stats


# -- snapshot declarations ----------------------------------------------------
HoopStats.__snapshot_state__ = "__atoms__"
HoopController.__snapshot_state__ = "__all__"
HoopScheme.__snapshot_state__ = "__all__"
