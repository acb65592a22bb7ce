"""Multiple memory controllers with two-phase commit (paper §III-I).

The paper sketches the extension: "HOOP can be extended to support
multiple memory controllers with the two-phase commit protocol.  In the
Prepare phase, the cache controller will send the modified data in a
transaction to the OOP data buffer [of each controller] ... the cache
controller waits for all outstanding flushes to be acknowledged.  In the
Commit phase, the cache controller sends the commit message with the
transaction identity to all memory controllers."

This module implements that sketch faithfully on top of the
single-controller machinery:

* the physical address space is interleaved across ``controllers`` HOOP
  controllers at cache-line granularity; each controller owns an equal
  carve of the reserved OOP region;
* **Prepare**: each participating controller drains the transaction's
  slices (the per-controller ``tx_end`` flush), in parallel — the commit
  waits for the *slowest* participant;
* **Commit**: a commit entry for the transaction is durably appended on
  *every* controller (the commit message), again in parallel;
* **Recovery**: standard 2PC presumed-abort reasoning.  The Commit
  phase starts only after every prepare acknowledged, so a commit entry
  durable on *any* controller proves the global commit decision; the
  agreed set is the union of the controllers' durable commit entries.  A
  torn two-phase commit that reached *no* controller is discarded
  everywhere (the program never saw the commit), preserving atomicity
  across the interleave.  A controller whose own commit-log page was
  lost to a torn rewrite still replays an agreed transaction by finding
  its STATE_LAST slice in the region scan — the scan locates segment
  tails only; it never *decides* commitment, because a locally-final
  slice proves nothing globally.

Declared durability discipline: ``controller-ordered`` — same as
single-controller HOOP (each controller's FIFO write queue orders the
transaction's slice persists ahead of its synchronous commit entry), but
the commit point the sanitizer sees is the end of the *global* Commit
phase, not any participant's locally-final slice.

The per-controller GC keeps running independently; it only ever migrates
transactions whose commit entry is locally durable, which in this
protocol implies the global commit succeeded or will be resolved by
recovery before any block reuse (entries are written before ``tx_end``
returns).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.addr import cache_line_index
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.core.controller import HoopController
from repro.core.recovery import RecoveryReport
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, SchemeTraits

# Controller-to-controller commit message hop (on-package interconnect).
_COMMIT_MESSAGE_NS = 20.0


class MultiControllerHoopScheme(PersistenceScheme):
    """HOOP across ``controllers`` memory controllers with 2PC."""

    name = "hoop-mc"
    traits = SchemeTraits(
        approach="Hardware out-of-place update (multi-controller)",
        read_latency="Low",
        extra_writes_on_critical_path=False,
        requires_flush_fence=False,
        write_traffic="Low",
        durability="controller-ordered",
    )

    def __init__(
        self,
        config: SystemConfig,
        device: NVMDevice,
        controllers: int = 2,
    ) -> None:
        super().__init__(config, device)
        if controllers < 2:
            raise ConfigError("multi-controller mode needs >= 2 controllers")
        carve = config.oop_region_bytes // controllers
        carve -= carve % config.hoop.oop_block_bytes
        if carve < 2 * config.hoop.oop_block_bytes:
            raise ConfigError("OOP region too small to split")
        self.controllers: List[HoopController] = [
            HoopController(
                config,
                device,
                region_base=config.oop_region_base + i * carve,
                region_size=carve,
            )
            for i in range(controllers)
        ]
        # Open transactions: tx -> set of participating controller ids.
        self._participants = {}
        self.two_phase_commits = 0

    def attach_telemetry(self, telemetry) -> None:
        super().attach_telemetry(telemetry)
        for i, controller in enumerate(self.controllers):
            controller.attach_telemetry(telemetry, index=i)

    def attach_checker(self, checker) -> None:
        self.check = checker
        for controller in self.controllers:
            controller.attach_checker(checker)
            # A locally-final STATE_LAST slice proves nothing globally:
            # the commit note is emitted here, after the 2PC commit phase.
            controller.buffer.check_commit_on_last = False
        checker.bind_scheme(self.name, self.traits.durability)

    # -- partitioning -----------------------------------------------------------

    def _owner(self, addr: int) -> int:
        """Line-interleaved ownership across controllers."""
        return cache_line_index(addr) % len(self.controllers)

    # -- transactional API -----------------------------------------------------

    def tx_begin(self, core: int, now_ns: float) -> Tuple[int, float]:
        tx_id, now_ns = super().tx_begin(core, now_ns)
        self._participants[tx_id] = set()
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
        owner = self._owner(line_addr)
        controller = self.controllers[owner]
        participants = self._participants[tx_id]
        if owner not in participants:
            controller.tx_begin(core, tx_id, now_ns)
            participants.add(owner)
        return controller.tx_store(
            core, tx_id, addr, size, line_addr, line_data, now_ns
        )

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        participants = sorted(self._participants.pop(tx_id, set()))
        if not participants:
            return now_ns
        # Prepare: every participant drains its slices; the cache
        # controller waits for all flush acknowledgements (max, parallel).
        prepare_done = now_ns
        tails = {}
        for owner in participants:
            controller = self.controllers[owner]
            segments, completion = controller.buffer.tx_end(core, now_ns)
            tails[owner] = segments
            prepare_done = max(prepare_done, completion)
        # Commit: the commit message reaches every controller and each
        # durably records the transaction identity.
        commit_done = prepare_done + _COMMIT_MESSAGE_NS
        for i, controller in enumerate(self.controllers):
            segments = tails.get(i, [])
            done = prepare_done
            for tail in segments[:-1]:
                done = max(
                    done,
                    controller.commit_log.append_entry(
                        tx_id, tail, False, prepare_done
                    ),
                )
            tail = segments[-1] if segments else 0
            done = max(
                done,
                controller.commit_log.append_entry(
                    tx_id, tail, True, prepare_done
                ),
            )
            done = max(
                done,
                controller.commit_log.flush_dirty(prepare_done, sync=True),
            )
            controller.refs.on_tx_begin(tx_id)  # known to refs even if idle
            controller.refs.on_tx_commit(tx_id)
            commit_done = max(commit_done, done + _COMMIT_MESSAGE_NS)
        self.two_phase_commits += 1
        if self.check.active:
            # The global commit point: every controller sync-flushed its
            # commit entry during the Commit phase above.
            self.check.note_persist(
                tx_id, "commit", -1, 0, commit_done, sync=True,
                port=self.controllers[0].port,
            )
        return commit_done

    # -- hierarchy delegation ----------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float) -> Tuple[bytes, float]:
        return self.controllers[self._owner(line_addr)].fill_line(
            line_addr, now_ns
        )

    def on_evict(
        self,
        line_addr: int,
        data: bytes,
        dirty: bool,
        persistent: bool,
        tx_id: int,
        now_ns: float,
    ) -> None:
        self.controllers[self._owner(line_addr)].on_evict(
            line_addr, data, dirty, persistent, tx_id, now_ns
        )

    # -- background / crash / recovery --------------------------------------------

    def tick(self, now_ns: float) -> None:
        for controller in self.controllers:
            controller.tick(now_ns)

    def quiesce(self, now_ns: float) -> float:
        for controller in self.controllers:
            now_ns = max(now_ns, controller.quiesce(now_ns))
        return now_ns

    # The two-phase participant sets are volatile.
    __durable__ = PersistenceScheme.DURABLE + (
        "controllers", "two_phase_commits")

    def crash(self) -> None:
        self._participants.clear()
        for controller in self.controllers:
            controller.crash()

    def recover(
        self,
        *,
        threads: int = 1,
        bandwidth_gb_per_s: Optional[float] = None,
    ) -> RecoveryReport:
        """Consensus recovery: replay only globally-committed txns.

        The agreed set is the *union* of the controllers' durable commit
        entries: the Commit phase starts only after every prepare
        acknowledged, so one durable entry anywhere proves the global
        decision — and a torn rewrite of one controller's commit-log
        page (which loses every entry on that page, old ones included)
        cannot un-commit transactions another controller still records.

        Replay and cleanup are split by a barrier: every controller
        redoes the agreed set (``clear_region=False``) before *any*
        controller erases its region or commit log.  Clearing inline
        (the single-controller default) is not nested-crash-safe here:
        controller 0's clear destroys the only durable evidence of a
        transaction whose commit entry reached just that controller,
        so a power cut before controller 1 finishes replaying makes
        the rerun drop the transaction from the agreed set — with
        controller 0's shard already poked home, the words it owns
        survive and the rest never arrive (a torn global commit).
        With the barrier, a cut during redo leaves all evidence
        intact (the rerun re-agrees), and a cut during cleanup means
        every poke already landed (the words the rerun no longer
        replays are durable in the home region).
        """
        # Phase 1: each controller scans its region once; its vote is the
        # set of transactions its durable commit log names.
        scans = [c.recovery.scan() for c in self.controllers]
        agreed = {tx.tx_id for scan in scans for tx in scan.logged}
        # Phase 2: every controller replays exactly the agreed set.
        merged = RecoveryReport(
            threads=threads,
            bandwidth_gb_per_s=(
                bandwidth_gb_per_s or self.config.nvm.bandwidth_gb_per_s
            ),
        )
        for controller, scan in zip(self.controllers, scans):
            # The scan's STATE_LAST finds supply segment tails for agreed
            # transactions whose local commit entries were lost;
            # ``only_tx_ids`` keeps them from *deciding* commits.
            report = controller.recovery.replay(
                scan,
                threads=threads,
                bandwidth_gb_per_s=bandwidth_gb_per_s,
                only_tx_ids=agreed,
                clear_region=False,
            )
            controller.mapping.crash()
            controller.eviction_buffer.crash()
            controller.refs.crash()
            merged.words_recovered += report.words_recovered
            merged.bytes_scanned += report.bytes_scanned
            merged.bytes_written += report.bytes_written
            merged.slices_walked += report.slices_walked
            merged.scan_time_ns = max(
                merged.scan_time_ns, report.scan_time_ns
            )
            merged.merge_time_ns = max(
                merged.merge_time_ns, report.merge_time_ns
            )
            merged.write_time_ns = max(
                merged.write_time_ns, report.write_time_ns
            )
        # Cleanup barrier: only after every controller's redo landed.
        for controller in self.controllers:
            controller.region.clear(0.0)
            controller.commit_log.crash()
        merged.committed_transactions = len(agreed)
        return merged


# -- snapshot declarations ----------------------------------------------------
MultiControllerHoopScheme.__snapshot_state__ = "__all__"
