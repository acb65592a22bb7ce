"""LAD: logless atomic durability (Gupta et al. [16]).

LAD buffers a transaction's updates in the memory controller's queues —
inside the persistence domain — until commit, then writes them to their
home addresses **in place**, with no log at all.  Atomicity comes from the
controller: once a transaction commits, its queued lines are guaranteed to
drain (battery-backed persist domain); if it never commits, its updates
never leave the controller.

Model:

* ``on_store`` parks the line in the controller queue — free, like HOOP;
* ``tx_end`` persists every updated line at **cache-line granularity**
  (the cost the paper dings LAD for versus HOOP's word packing) and waits
  for the drain plus a small commit handshake;
* the controller queue is bounded; a transaction larger than the queue
  forces early in-place writes protected by a mini undo area (rare; the
  paper's workloads fit);
* on crash, queued lines of *committed* transactions complete (persist
  domain semantics), everything else evaporates.

Write traffic is one line per updated line per transaction — no logging,
but no packing and no coalescing across transactions, which is exactly
how HOOP ends up ~12% lower (Fig. 8).

Paper analogue: LAD (Gupta et al. [16], logless atomic durability).
Declared durability discipline: ``persist-domain`` — queued in-place
writes sit inside the battery-backed persist domain, so no explicit
drain edge is required before the synchronous commit token; the
persist-ordering sanitizer (:mod:`repro.check`) checks coverage and the
synchronous commit record only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.addr import CACHE_LINE_BYTES, cache_line_base
from repro.common.config import SystemConfig
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, RecoveryOutcome, SchemeTraits

# Controller queue budget per core, in cache lines (LAD uses the existing
# write-pending queues; keep it modest).
_QUEUE_LINES_PER_CORE = 64
# Commit handshake inside the controller (enqueue commit marker, ack).
_COMMIT_HANDSHAKE_NS = 30.0


class LADScheme(PersistenceScheme):
    """Logless atomic durability via controller-buffered commits."""

    name = "lad"
    traits = SchemeTraits(
        approach="Logless atomic durability",
        read_latency="High",
        extra_writes_on_critical_path=False,
        requires_flush_fence=False,
        write_traffic="Medium",
        durability="persist-domain",
    )

    def __init__(self, config: SystemConfig, device: NVMDevice) -> None:
        super().__init__(config, device)
        # tx -> {line addr: data}: the controller queue contents.
        self._queued: Dict[int, Dict[int, bytes]] = {}
        # Committed transactions whose drain is still in flight: these
        # lines are inside the persist domain and survive a crash.
        self._draining: List[Tuple[int, Dict[int, bytes]]] = []
        self.queue_overflows = 0

    # -- transactional API -------------------------------------------------------

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        tx_id, now_ns = super().tx_begin(core, now_ns)
        self._queued[tx_id] = {}
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
        queue = self._queued[tx_id]
        if (
            line_addr not in queue
            and len(queue) >= _QUEUE_LINES_PER_CORE
        ):
            # Queue overflow: LAD must fall back to eagerly persisting the
            # oldest queued line (it can no longer be revoked, so the
            # transaction loses all-or-nothing only if the system also
            # crashes mid-transaction — counted, and avoided by sizing).
            self.queue_overflows += 1
            oldest = next(iter(queue))
            data = queue.pop(oldest)
            now_ns = self.port.sync_write(oldest, data, now_ns)
            if self.check.active:
                self.check.note_persist(
                    tx_id, "data", oldest, CACHE_LINE_BYTES, now_ns,
                    sync=True, port=self.port,
                )
        queue[line_addr] = line_data
        return now_ns

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        """Persist queued lines in place at cache-line granularity."""
        queue = self._queued.pop(tx_id, {})
        if not queue:
            return now_ns
        # Commit marks the queue entries as persistent-domain: from this
        # instant the transaction is durable even if power fails, so the
        # *functional* content lands now; the *timing* charges the drain.
        self._draining.append((tx_id, dict(queue)))
        check = self.check
        for line_addr, data in queue.items():
            self.port.async_write(line_addr, data, now_ns)
            if check.active:
                check.note_persist(
                    tx_id, "data", line_addr, CACHE_LINE_BYTES, now_ns,
                    sync=False, port=self.port,
                )
        now_ns = self.port.drain(now_ns)
        # The commit token: LAD's controllers persist a per-transaction
        # commit record so the persist-domain guarantee survives power
        # loss mid-drain (one cache line, like its ordering messages).
        now_ns = self.port.sync_write(
            self._commit_slot(tx_id), b"\x01" * 64, now_ns
        )
        if check.active:
            check.note_persist(
                tx_id, "commit", -1, 0, now_ns, sync=True, port=self.port
            )
        now_ns += _COMMIT_HANDSHAKE_NS
        self._draining.pop()
        return now_ns

    def _commit_slot(self, tx_id: int) -> int:
        """Round-robin commit-record slots in the reserved region."""
        slots = (self.config.oop_region_bytes // 64) - 1
        return self.config.oop_region_base + (tx_id % slots) * 64

    # -- read path ---------------------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        line_addr = cache_line_base(line_addr)
        for queue in self._queued.values():
            if line_addr in queue:
                return queue[line_addr], 0.0
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
            # Uncommitted content sits in the controller queue; committed
            # content was already written in place at tx_end.  Either way
            # the eviction itself writes nothing.
            return
        self.port.async_write(line_addr, data, now_ns)

    # -- crash & recovery -----------------------------------------------------------

    # Uncommitted queues are volatile; committed ones drain on the battery.
    __durable__ = PersistenceScheme.DURABLE + ("queue_overflows",)
    __persist_domain__ = ("_draining",)

    def crash(self) -> None:
        # Persist-domain semantics: committed transactions whose drain was
        # still in flight complete on the controller's backup energy — a
        # power cut mid-drain (fault injection) cannot tear them.  The
        # remaining lines land functionally here (the system restores
        # device power before invoking us, so the pokes are accepted);
        # re-poking lines that already drained is idempotent, and a torn
        # fatal write is overwritten with the full line.  Uncommitted
        # queues evaporate with the controller's volatile state.
        for _tx_id, lines in self._draining:
            for line_addr, data in lines.items():
                self.device.poke(line_addr, data)
        self._draining.clear()
        self._queued.clear()

    def recover(
        self, *, threads: int = 1, bandwidth_gb_per_s: Optional[float] = None
    ) -> RecoveryOutcome:
        """Nothing to replay: commits were in place and domain-protected."""
        return RecoveryOutcome(scheme=self.name)

# -- snapshot declarations ----------------------------------------------------
LADScheme.__snapshot_state__ = "__all__"
