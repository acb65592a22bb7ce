"""Opt-Undo: hardware-assisted undo logging (ATOM [24] style).

The defining cost is the **strict persist ordering**: before a line's
first in-place update within a transaction may become durable, a copy of
its *old* value must already be durable in the undo log.  ATOM enforces
the ordering in the memory controller — stores do not stall the CPU, and
log entries are compact (one pre-image line + small header, no fat
metadata line, which is the ~9% traffic edge over Opt-Redo the paper
measures) — but commit still serializes *log drain → in-place data
writes → data drain → commit record*, two full drains where redo pays
one.  That is exactly the Fig. 4a-vs-4b critical-path difference.

Recovery rolls back transactions with no commit record by re-applying
their undo images newest-first.

Paper analogue: ATOM [24] (controller-enforced undo-before-data
ordering).  Declared durability discipline: ``undo-inplace`` — the
``log-drain`` rules plus per-line pre-image ordering: each line's undo
entry must be durable (queued + drained) before its first in-place
write, and the in-place writes drained before the synchronous commit
record.  The persist-ordering sanitizer (:mod:`repro.check`) checks all
three edges per committed transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.addr import CACHE_LINE_BYTES, cache_line_base
from repro.common.config import SystemConfig
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, RecoveryOutcome, SchemeTraits
from repro.schemes.appendlog import KIND_COMMIT, KIND_DATA, AppendLog
from repro.snapshot import reset_volatile

_LOG_ENTRY_BYTES = 2 * CACHE_LINE_BYTES
_LOG_PRESSURE = 0.85


class OptUndoScheme(PersistenceScheme):
    """Hardware undo logging with controller-enforced ordering."""

    name = "opt-undo"
    traits = SchemeTraits(
        approach="Logging / Undo",
        read_latency="Low",
        extra_writes_on_critical_path=True,
        requires_flush_fence=False,
        write_traffic="Medium",
        durability="undo-inplace",
    )

    def __init__(self, config: SystemConfig, device: NVMDevice) -> None:
        super().__init__(config, device)
        self.log = AppendLog(
            self.port, config.oop_region_base, config.oop_region_bytes
        )
        # Per open transaction: lines already undo-logged, and the current
        # (volatile) content of every line it has modified.
        self._logged_lines: Dict[int, Set[int]] = {}
        self._tx_lines: Dict[int, Dict[int, bytes]] = {}
        self._first_offset: Dict[int, int] = {}

    # -- transactional API -------------------------------------------------------

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        tx_id, now_ns = super().tx_begin(core, now_ns)
        self._logged_lines[tx_id] = set()
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
        if self.log.fill_fraction >= _LOG_PRESSURE:
            # The log can only shrink when transactions commit; all we can
            # do under pressure is drain and truncate released entries.
            now_ns = self._truncate_released(now_ns)
        logged = self._logged_lines[tx_id]
        if line_addr not in logged:
            # Undo-before-data: the pre-image rides the write queue; the
            # memory controller (not the CPU) enforces that it drains
            # before any in-place write of the line — ATOM's core idea,
            # which is why the store itself does not stall.  The pre-image
            # is the durable home copy, snooped from the cache fill.
            old_line = self.device.peek(line_addr, CACHE_LINE_BYTES)
            offset, _ = self.log.append(
                KIND_DATA,
                tx_id,
                line_addr,
                old_line,
                now_ns,
                sync=False,
                min_entry_bytes=_LOG_ENTRY_BYTES,
            )
            self._first_offset.setdefault(tx_id, offset)
            logged.add(line_addr)
            self.stats.ordering_stalls += 1
            if self.check.active:
                self.check.note_persist(
                    tx_id, "undo", line_addr, CACHE_LINE_BYTES, now_ns,
                    sync=False, port=self.port,
                )
        self._tx_lines[tx_id][line_addr] = line_data
        return now_ns

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        # Strict persist ordering, enforced by the controller: (1) every
        # undo entry durable, (2) then the in-place data writes, (3) then
        # the commit record.  Two drains back-to-back is what makes undo's
        # critical path longer than redo's single drain (Fig. 4a vs 4b).
        lines = self._tx_lines.pop(tx_id, {})
        check = self.check
        now_ns = self.port.drain(now_ns)  # logs-before-data
        for line_addr, data in lines.items():
            self.port.async_write(line_addr, data, now_ns)
            if check.active:
                check.note_persist(
                    tx_id, "data", line_addr, CACHE_LINE_BYTES, now_ns,
                    sync=False, port=self.port,
                )
        now_ns = self.port.drain(now_ns)  # data-before-commit
        _, now_ns = self.log.append(
            KIND_COMMIT, tx_id, 0, b"", now_ns, sync=True,
        )
        if check.active:
            check.note_persist(
                tx_id, "commit", -1, 0, now_ns, sync=True, port=self.port
            )
        self._logged_lines.pop(tx_id, None)
        self._first_offset.pop(tx_id, None)
        return now_ns

    def _truncate_released(self, now_ns: float) -> float:
        upto = min(self._first_offset.values()) if self._first_offset else None
        return self.log.truncate(now_ns, upto=upto)

    # -- read path -----------------------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        line_addr = cache_line_base(line_addr)
        # In-place updates may still be cache-volatile; an evicted line's
        # newest value is in the open transaction's tracking table.
        for lines in self._tx_lines.values():
            if line_addr in lines:
                return lines[line_addr], 0.0
        data, completion = self.port.read(line_addr, CACHE_LINE_BYTES, now_ns)
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
            # Mid-transaction: the open write set holds the bytes and the
            # commit writeback will persist them (the undo entry is already
            # durable, so even an eager write would be safe).  Post-commit:
            # home was updated at tx_end.  Either way, drop.
            return
        self.port.async_write(line_addr, data, now_ns)

    # -- background --------------------------------------------------------------

    def tick(self, now_ns: float) -> None:
        if self.log.fill_fraction >= 0.5:
            self._truncate_released(now_ns)

    def quiesce(self, now_ns: float) -> float:
        return self._truncate_released(self.port.drain(now_ns))

    # -- crash & recovery -----------------------------------------------------------

    # The open transactions' logged lines and log offsets are SRAM.
    __durable__ = PersistenceScheme.DURABLE + ("log",)
    crash = reset_volatile

    def detach_recovery_memos(self) -> None:
        """Detach the log's scan memo."""
        self.log.detach_memo()

    def recover(
        self, *, threads: int = 1, bandwidth_gb_per_s: Optional[float] = None
    ) -> RecoveryOutcome:
        outcome = RecoveryOutcome(scheme=self.name)
        undo_images: Dict[int, List] = {}
        committed: Set[int] = set()
        for entry in self.log.rebuild_and_scan():
            outcome.bytes_scanned += entry.total_bytes
            if entry.kind == KIND_DATA:
                undo_images.setdefault(entry.tx_id, []).append(entry)
            elif entry.kind == KIND_COMMIT:
                committed.add(entry.tx_id)
        for tx_id, entries in undo_images.items():
            if tx_id in committed:
                outcome.committed_transactions += 1
                continue
            # Roll back newest-first so earlier pre-images win.
            for entry in reversed(entries):
                self.device.poke(entry.addr, entry.payload)
                outcome.bytes_written += len(entry.payload)
            outcome.rolled_back_transactions += 1
        self.log.reset()
        bytes_per_ns = self.recovery_bytes_per_ns(bandwidth_gb_per_s)
        outcome.elapsed_ns = (
            outcome.bytes_scanned / bytes_per_ns
            + outcome.bytes_written / bytes_per_ns
        )
        return outcome

# -- snapshot declarations ----------------------------------------------------
OptUndoScheme.__snapshot_state__ = "__all__"
