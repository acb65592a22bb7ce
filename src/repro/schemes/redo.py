"""Opt-Redo: hardware-assisted redo logging (WrAP [13] style).

At commit, every cache line the transaction updated is streamed to a redo
log through the memory controller's write queue as **two cache lines** on
NVM (data + metadata) — the model the paper uses ("Opt-Redo persists both
the data and metadata for a single update using two cache lines, which
wastes memory bandwidth").  The commit waits for the queued log writes to
drain, then persists a commit record.  The home region is updated lazily
by an asynchronous **checkpoint** that applies committed data in place and
truncates the log.

Reads pay for the redo indirection: every LLC miss first consults the
controller's victim table, and hits on committed-but-not-yet-checkpointed
data are served from a DRAM-resident shadow at DRAM latency — Table I's
"High" read latency for redo schemes.

Crash recovery replays the data entries of every transaction whose commit
record is durable, in commit order, and discards the rest.

Paper analogue: WrAP [13] (hardware redo logging through the controller
write queue).  Declared durability discipline: ``log-drain`` — queued
redo-log entries must be explicitly drained before the synchronous commit
record persists; the persist-ordering sanitizer (:mod:`repro.check`)
enforces exactly that edge on every committed transaction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.addr import CACHE_LINE_BYTES, cache_line_base
from repro.common.config import SystemConfig
from repro.memctrl.scheduler import PeriodicTrigger
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, RecoveryOutcome, SchemeTraits
from repro.schemes.appendlog import (
    KIND_COMMIT,
    KIND_DATA,
    AppendLog,
    replay_committed,
)
from repro.snapshot import reset_volatile

# Each logged line occupies two cache lines on NVM (data + metadata).
_LOG_ENTRY_BYTES = 2 * CACHE_LINE_BYTES
# Victim-table probe charged on every LLC miss (the redo indirection).
_VICTIM_PROBE_NS = 12.0
# Serving a line from the DRAM-resident redo shadow.
_SHADOW_HIT_NS = 90.0
# Checkpoint before the log passes this fill level.
_LOG_PRESSURE = 0.85


class OptRedoScheme(PersistenceScheme):
    """Hardware redo logging with asynchronous checkpointing."""

    name = "opt-redo"
    traits = SchemeTraits(
        approach="Logging / Redo",
        read_latency="High",
        extra_writes_on_critical_path=True,
        requires_flush_fence=False,
        write_traffic="High",
        durability="log-drain",
    )

    def __init__(self, config: SystemConfig, device: NVMDevice) -> None:
        super().__init__(config, device)
        self.log = AppendLog(
            self.port, config.oop_region_base, config.oop_region_bytes
        )
        # Committed lines not yet checkpointed: line addr -> bytes.
        self._shadow: Dict[int, bytes] = {}
        # Open transactions' write sets: tx_id -> {line addr -> bytes}.
        self._write_sets: Dict[int, Dict[int, bytes]] = {}
        self._checkpoint = PeriodicTrigger(config.hoop.gc.period_ns)
        self.checkpoints = 0
        self.shadow_hits = 0

    # -- transactional API -------------------------------------------------------

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        tx_id, now_ns = super().tx_begin(core, now_ns)
        self._write_sets[tx_id] = {}
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
        self._write_sets[tx_id][line_addr] = line_data
        return now_ns

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        write_set = self._write_sets.pop(tx_id, {})
        if not write_set:
            return now_ns
        if self.log.fill_fraction >= _LOG_PRESSURE:
            now_ns = self._run_checkpoint(now_ns, blocking=True)
        # Stream the redo entries through the write queue, drain so every
        # entry is durable before the commit record, then persist it.
        check = self.check
        for line_addr, data in write_set.items():
            self.log.append(
                KIND_DATA,
                tx_id,
                line_addr,
                data,
                now_ns,
                sync=False,
                min_entry_bytes=_LOG_ENTRY_BYTES,
            )
            if check.active:
                check.note_persist(
                    tx_id, "log", line_addr, CACHE_LINE_BYTES, now_ns,
                    sync=False, port=self.port,
                )
        now_ns = self.port.drain(now_ns)
        _, now_ns = self.log.append(
            KIND_COMMIT, tx_id, 0, b"", now_ns, sync=True,
            min_entry_bytes=CACHE_LINE_BYTES,
        )
        if check.active:
            check.note_persist(
                tx_id, "commit", -1, 0, now_ns, sync=True, port=self.port
            )
        self._shadow.update(write_set)
        return now_ns

    # -- read path ---------------------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        line_addr = cache_line_base(line_addr)
        for write_set in self._write_sets.values():
            if line_addr in write_set:
                self.shadow_hits += 1
                return write_set[line_addr], _SHADOW_HIT_NS
        shadow = self._shadow.get(line_addr)
        if shadow is not None:
            self.shadow_hits += 1
            return shadow, _SHADOW_HIT_NS
        data, completion = self.port.read(line_addr, CACHE_LINE_BYTES, now_ns)
        return data, (completion - now_ns) + _VICTIM_PROBE_NS

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
            # Redo rule: in-place data must not reach home before commit;
            # the write set / shadow copy already holds these bytes and
            # the checkpoint will apply them.
            return
        self.port.async_write(line_addr, data, now_ns)

    # -- checkpoint ---------------------------------------------------------------

    def tick(self, now_ns: float) -> None:
        if self._checkpoint.due(now_ns):
            self._checkpoint.fire(now_ns)
            self._run_checkpoint(now_ns, blocking=False)

    def _run_checkpoint(self, now_ns: float, *, blocking: bool) -> float:
        """Apply committed shadow lines in place, then truncate the log.

        Open transactions have no log entries yet (redo entries appear at
        commit), so full truncation is always safe once the in-place
        writes are durable.
        """
        for line_addr, data in self._shadow.items():
            self.port.async_write(line_addr, data, now_ns)
        if self._shadow:
            self.checkpoints += 1
        self._shadow.clear()
        drain = self.port.drain(now_ns)
        truncate_done = self.log.truncate(drain)
        return truncate_done if blocking else now_ns

    def quiesce(self, now_ns: float) -> float:
        return self._run_checkpoint(now_ns, blocking=True)

    # -- crash & recovery -----------------------------------------------------------

    # The shadow and the open write sets are SRAM.
    __durable__ = PersistenceScheme.DURABLE + (
        "log", "_checkpoint", "checkpoints", "shadow_hits")
    crash = reset_volatile

    def detach_recovery_memos(self) -> None:
        """Detach the log's scan memo."""
        self.log.detach_memo()

    def recover(
        self, *, threads: int = 1, bandwidth_gb_per_s: Optional[float] = None
    ) -> RecoveryOutcome:
        return replay_committed(self, bandwidth_gb_per_s)

# -- snapshot declarations ----------------------------------------------------
OptRedoScheme.__snapshot_state__ = "__all__"
