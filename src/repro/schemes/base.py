"""The persistence-scheme contract.

A scheme is the policy layer between the cache hierarchy and the NVM
device.  The memory system calls it:

* on the transactional API (``tx_begin`` / ``on_store`` / ``tx_end``) —
  each returns the caller's advanced clock, which is how a scheme charges
  critical-path latency (ordering stalls, commit drains, eager flushes);
* on LLC misses (``fill_line``) — where a scheme's read-path indirection
  (HOOP's mapping table, LSM's index walk, OSP's line-pair choice) lives;
* on LLC evictions (``on_evict``) — where write-back policy lives;
* between transactions (``tick``) — background work: GC, checkpointing,
  log truncation;
* at power failure (``crash``) and restart (``recover``).

Write-traffic accounting never goes through the scheme's own counters: the
device tallies every byte, so Fig. 8 comparisons are tamper-proof by
construction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.check.sanitizer import NULL_CHECKER
from repro.common.config import SystemConfig
from repro.common.units import bytes_per_ns_from_gbps
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice
from repro.telemetry.hub import NULL_TELEMETRY


@dataclass(frozen=True)
class SchemeTraits:
    """A scheme's Table I row (qualitative comparison)."""

    approach: str  # e.g. "Logging/Redo", "Shadow paging", "OOP update"
    read_latency: str  # "Low" / "High"
    extra_writes_on_critical_path: bool
    requires_flush_fence: bool
    write_traffic: str  # "Low" / "Medium" / "High"
    # Declared durability-ordering discipline, enforced at runtime by the
    # persist-ordering sanitizer (repro.check.sanitizer.DISCIPLINES keys):
    # "none", "controller-ordered", "persist-domain", "log-drain",
    # "flush-fence", or "undo-inplace".  The scheme's module docstring
    # must state the same discipline — docs and contract stay in sync
    # because both quote this field.
    durability: str = "flush-fence"


@dataclass
class RecoveryOutcome:
    """What a baseline's recovery pass did (HOOP returns its richer
    :class:`~repro.core.recovery.RecoveryReport` instead)."""

    scheme: str
    committed_transactions: int = 0
    rolled_back_transactions: int = 0
    bytes_scanned: int = 0
    bytes_written: int = 0
    elapsed_ns: float = 0.0


@dataclass
class SchemeStats:
    """Counters every scheme keeps the same way."""

    transactions: int = 0
    tx_stores: int = 0
    tx_loads: int = 0
    ordering_stalls: int = 0


class PersistenceScheme(abc.ABC):
    """Base class for all crash-consistency schemes."""

    name: str = "abstract"
    traits: SchemeTraits

    def __init__(self, config: SystemConfig, device: NVMDevice) -> None:
        self.config = config
        self.device = device
        self.port = MemoryPort(device)
        self.stats = SchemeStats()
        self._next_tx_id = 1
        self.telemetry = NULL_TELEMETRY
        self.check = NULL_CHECKER

    # -- telemetry ---------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Install an event hub on this scheme and its memory port.

        Subclasses with more machinery (HOOP's controller tree) override
        to propagate the hub further; all overrides must stay purely
        observational so an attached-but-silent hub perturbs nothing.
        """
        self.telemetry = telemetry
        self.port.telemetry = telemetry
        self.port.track = "port"

    # -- checking ----------------------------------------------------------------

    def attach_checker(self, checker) -> None:
        """Install a persist-ordering sanitizer on this scheme + its port.

        The checker adopts this scheme's name and declared durability
        discipline (``traits.durability``); subclasses with more ports
        (HOOP's controller tree) override to propagate further.  Like
        telemetry, attachment is purely observational — instrumented runs
        are bit-identical to bare ones.
        """
        self.check = checker
        self.port.check = checker
        checker.bind_scheme(self.name, self.traits.durability)

    # -- host caches -------------------------------------------------------------

    def slice_codecs(self) -> tuple:
        """The slice codecs this machine decodes through (HOOP's).

        A replication group makes its machines share one codec memo
        (``SliceCodec.adopt_memos``).  Default: none.
        """
        return ()

    def detach_recovery_memos(self) -> None:
        """Recover through empty memos of this machine's own from now on.

        Forks of one machine share their recovery memos, so each crash
        case reuses what the one before it derived; a durable projection
        detaches them, so what its one recovery derives is freed with
        it.  Host caches only: recovery's results do not change.
        Default: no memo to detach.
        """

    # -- transactional API -------------------------------------------------------

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        """Open a transaction; returns ``(tx_id, now)``."""
        tx_id = self._next_tx_id
        self._next_tx_id += 1
        self.stats.transactions += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                now_ns, "txn_begin", f"core{core}", {"tx": tx_id}
            )
        return tx_id, now_ns

    @abc.abstractmethod
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
        """A transactional store just updated the cache; charge the scheme.

        ``line_data`` is the post-store content of the affected line.
        Returns the caller's advanced clock.
        """

    @abc.abstractmethod
    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        """Commit; returns the clock after the commit is durable."""

    # -- hierarchy delegation ------------------------------------------------------

    @abc.abstractmethod
    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        """Produce a line on LLC miss; returns ``(bytes, extra_latency)``."""

    @abc.abstractmethod
    def on_evict(
        self,
        line_addr: int,
        data: bytes,
        dirty: bool,
        persistent: bool,
        tx_id: int,
        now_ns: float,
    ) -> None:
        """Handle an LLC eviction (write-back policy)."""

    # -- background, crash, recovery ------------------------------------------------

    def tick(self, now_ns: float) -> None:
        """Pump background work (GC, checkpoint).  Default: nothing."""

    def quiesce(self, now_ns: float) -> float:
        """Complete all deferred background work (end-of-measurement).

        Traffic comparisons (Fig. 8) must include the home-region writes a
        scheme has merely postponed — checkpointing for redo, GC migration
        for HOOP/LSM — otherwise deferral would masquerade as reduction.
        Returns the completion time.
        """
        return now_ns

    # A scheme's ``__durable__`` (see repro.snapshot) starts from these.
    DURABLE = ("config", "device", "port", "stats", "_next_tx_id", "telemetry", "check")

    def crash(self) -> None:
        """Power failure: discard all scheme-volatile state."""

    def recover(self, *, threads: int = 1, bandwidth_gb_per_s: Optional[float] = None):
        """Restore a consistent home region; returns a scheme report."""
        return None

    def recovery_bytes_per_ns(self, bandwidth_gb_per_s: Optional[float]) -> float:
        """The channel rate recovery is charged at: the override, else the NVM's."""
        return bytes_per_ns_from_gbps(
            bandwidth_gb_per_s or self.config.nvm.bandwidth_gb_per_s
        )

    # -- accounting ------------------------------------------------------------------

    def reset_measurement(self) -> None:
        """Zero traffic/energy counters (e.g. after warm-up)."""
        self.device.reset_stats()
        self.port.reset_stats()
        self.stats = SchemeStats()

# -- snapshot declarations ----------------------------------------------------
SchemeTraits.__snapshot_state__ = "__shared__"
RecoveryOutcome.__snapshot_state__ = "__atoms__"
SchemeStats.__snapshot_state__ = "__atoms__"
PersistenceScheme.__snapshot_state__ = "__all__"
