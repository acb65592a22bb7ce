"""Shard-local execution: one replication group's event loop slice.

A :class:`ShardExecutor` owns everything that is *per-shard* — the
replication group, the shard's bounded admission queue, the batch
policy, the acked-write oracle slice, the wake heap, and every
failover/promotion/rejoin state machine — and exposes exactly the
epoch-bounded stepping API the coordinator drives:

* :meth:`ShardExecutor.submit` — hand over a routed arrival (pushed as
  a heap event at its arrival instant, *not* executed yet);
* :meth:`ShardExecutor.advance_to` — run every queued event up to and
  including a simulated-time horizon;
* :meth:`ShardExecutor.next_event_ns` — the shard's next event clock,
  which the coordinator folds into the global horizon;
* :meth:`ShardExecutor.final_verify` — the end-of-run oracle sweep for
  this shard alone.

Shards share nothing (each group's keys, machines, fault seeds, and
RNG streams are derived per shard), so a cluster run is the same
computation whether the executors are advanced interleaved on one
event loop or round-robin in epochs of any length
(:mod:`repro.serve.engine`).

Event ordering within a shard is total and epoch-independent: the heap
key is ``(time_ns, kind, seq)`` with arrivals ordered before wakes at
the same instant, and ``seq`` a per-shard monotone counter.  Arrivals
are always submitted in the canonical global arrival order
(:class:`~repro.serve.client.ArrivalStream`), so per-shard sequence
numbers — and therefore every tie-break — do not depend on the epoch
quantum.

Wakes are *level-triggered*, like the pump they drive: a wake carries
no payload, and :meth:`ShardExecutor._pump` recomputes everything
(rejoins, promotion, recovery, busy-until, batch readiness) from state,
so a second wake at an instant that already has one pending could only
repeat the first.  The wake heap therefore holds **at most one pending
wake per distinct simulated instant** (exact float equality, no
epsilon), enforced in :meth:`ShardExecutor._push` — the one place wakes
are scheduled.  The instant is forgotten when its wake is popped, so a
pump may re-arm the instant it is running at (a zero-duration batch, a
power cut during promotion).  *Stale* wakes are kept — a batch deadline
whose batch already ran full still fires, pumps, and finds nothing to
do — because every pending instant feeds :meth:`~ShardExecutor.
next_event_ns`, hence the coordinator's horizons and epoch count;
*duplicates* are not, because an edge-queued timer (one heap entry per
caller) makes a saturated shard re-queue a wake per arrival per batch,
and the event count grows with the square of the time spent saturated.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Set

from repro.common.errors import PowerLossError
from repro.serve.admission import AdmissionController, RetryableRejection
from repro.serve.batcher import BatchScheduler
from repro.serve.client import OP_GET, Request
from repro.serve.oracle import AckOracle
from repro.serve.replica import (
    BACKUP,
    DEAD,
    GROUP_FAILING_OVER,
    GROUP_RECOVERING,
    GROUP_UP,
    REJOINING,
    Replica,
    ReplicationGroup,
)
from repro.txn.system import MemorySystem

# Event kinds: a routed client arrival, or a shard wake-up (batch
# deadline, busy-until, recovery completion, promotion instant, or a
# rejoin step — the pump sorts it out).  Arrivals order before wakes at
# the same instant; the constants are the heap tie-break.
_ARRIVAL = 0
_WAKE = 1


class ShardExecutor:
    """One shard's complete serving state machine, steppable in epochs."""

    def __init__(
        self,
        cfg,
        group: ReplicationGroup,
        *,
        telemetry,
    ) -> None:
        self.cfg = cfg
        self.shard_id = group.shard_id
        self.group = group
        self.telemetry = telemetry
        self.admission = AdmissionController(queue_depth=cfg.queue_depth)
        self.batcher = BatchScheduler(
            batch_size=cfg.batch_size,
            batch_wait_ns=cfg.batch_wait_us * 1e3,
        )
        self.oracle = AckOracle()
        self.now_ns = 0.0
        self.offered = 0
        self.admitted = 0
        self.acked_puts = 0
        self.acked_gets = 0
        self.retried = 0
        self.shed_on_failover = 0
        self.batches = 0
        self.backup_kills = 0
        self.divergence_checks = 0
        self.oracle_failures: List[str] = []
        self.last_completion_ns = 0.0
        self._events: List[tuple] = []
        self._seq = 0
        # Instants that have a wake pending in ``_events`` (see _push).
        self._wake_instants: Set[float] = set()
        self._double_kill_armed = False
        prefix = f"shard{self.shard_id}/"
        self._queue_depth_metric = prefix + "queue_depth"
        self._admitted_metric = prefix + "admitted"
        self._batch_size_metric = prefix + "batch_size"
        self._latency_metric = prefix + "request_latency_ns"

    # -- event plumbing -------------------------------------------------------

    def _push(self, time_ns: float, kind: int) -> None:
        """Schedule an event; a wake only if its instant has none pending.

        Wakes carry no payload and the pump is a function of state, so
        one pending wake per instant does everything any number would.
        """
        if kind == _WAKE:
            if time_ns in self._wake_instants:
                return
            self._wake_instants.add(time_ns)
        self._seq += 1
        heapq.heappush(self._events, (time_ns, kind, self._seq, None))

    def submit(self, request: Request) -> None:
        """Queue a routed arrival as an event at its arrival instant.

        Submission never executes anything: the request waits in the
        heap until an :meth:`advance_to` horizon covers it, so the
        per-shard processing order depends only on ``(time, kind,
        seq)`` — never on when the coordinator handed the request over.
        """
        self._seq += 1
        heapq.heappush(
            self._events, (request.arrival_ns, _ARRIVAL, self._seq, request)
        )

    def next_event_ns(self) -> float:
        """This shard's next event clock (``inf`` when drained)."""
        return self._events[0][0] if self._events else math.inf

    def advance_to(self, horizon_ns: float) -> None:
        """Run every event at or before ``horizon_ns``, in heap order.

        Events scheduled *during* the advance (batch wakes, promotion
        instants…) that land within the horizon are executed in the
        same pass — the loop drains the heap front, not a snapshot of
        it — so an epoch boundary is never observable from inside the
        shard.
        """
        events = self._events
        while events and events[0][0] <= horizon_ns:
            time_ns, kind, _, payload = heapq.heappop(events)
            if time_ns > self.now_ns:
                self.now_ns = time_ns
            if kind == _ARRIVAL:
                self._admit(payload)
            else:
                # Forgotten before the pump, which may re-arm this instant.
                self._wake_instants.discard(time_ns)
            self._pump()

    def arm_kills(self) -> None:
        """Arm this shard's configured deadline power cuts (if targeted).

        ``--kill-shard`` (legacy, R-agnostic) and
        ``--kill-primary-at-ms`` both target a group's primary;
        ``--kill-backup-at-ms`` targets replica 1 of the same group.
        The double-kill deadline is armed later, on the *promoted*
        primary, at promotion time.
        """
        cfg = self.cfg
        target = cfg.kill_shard if cfg.kill_shard is not None else 0
        if self.shard_id != target:
            return
        kill_at_ms = None
        if cfg.kill_shard is not None:
            kill_at_ms = (
                cfg.kill_at_ms
                if cfg.kill_at_ms is not None
                else cfg.duration_ms * 0.4
            )
        if cfg.kill_primary_at_ms is not None:
            kill_at_ms = cfg.kill_primary_at_ms
        if kill_at_ms is not None:
            primary = self.group.primary
            primary.system.device.injector.arm_power_loss_at(
                kill_at_ms * 1e6, torn=cfg.torn_kill
            )
        if cfg.kill_backup_at_ms is not None:
            backup = self.group.replicas[1]
            backup.system.device.injector.arm_power_loss_at(
                cfg.kill_backup_at_ms * 1e6, torn=cfg.torn_kill
            )

    # -- admission ------------------------------------------------------------

    def _admit(self, request: Request) -> None:
        group = self.group
        self.offered += 1
        failing_over = group.state == GROUP_FAILING_OVER
        recovering = group.state == GROUP_RECOVERING
        if failing_over:
            retry_after = max(group.promote_at_ns - self.now_ns, 0.0)
        elif recovering:
            retry_after = max(
                group.primary.recover_at_ns - self.now_ns, 0.0
            )
        else:
            retry_after = self.batcher.batch_wait_ns
        try:
            self.admission.admit(
                request,
                recovering=recovering,
                retry_after_ns=retry_after,
                failing_over=failing_over,
            )
        except RetryableRejection as rejection:
            self.telemetry.emit(
                self.now_ns,
                "serve_reject",
                "serve",
                {"shard": request.shard, "kind": rejection.kind},
            )
            return
        self.admitted += 1
        self.telemetry.record(
            self._queue_depth_metric, self.admission.depth()
        )
        self.telemetry.sample(self._admitted_metric, self.now_ns)

    # -- the shard pump -------------------------------------------------------

    def _pump(self) -> None:
        """Advance the group: rejoins, promotion, recovery, then batching."""
        group = self.group
        self._advance_rejoins(group)
        if group.state == GROUP_FAILING_OVER:
            if self.now_ns + 1e-9 < group.promote_at_ns:
                # Whoever set promote_at_ns armed a wake at that
                # instant; nothing to do (or to schedule) before it.
                return
            self._complete_promotion(group)
            if group.state != GROUP_UP:
                return
        if group.state == GROUP_RECOVERING:
            if self.now_ns + 1e-9 < group.primary.recover_at_ns:
                return  # likewise: the failover armed recover_at_ns
            self._complete_recovery(group)
        primary = group.primary
        if primary.clock_ns > self.now_ns + 1e-9:
            # Busy until its clock: make sure that instant has a wake.
            # Every arrival during a busy period lands here; all but
            # the first find the instant armed and _push drops them.
            self._push(primary.clock_ns, _WAKE)
            return
        queue = self.admission.queue
        if not queue:
            return
        if self.batcher.ready(queue, self.now_ns):
            self._execute_batch(group)
        else:
            self._push(self.batcher.deadline_ns(queue), _WAKE)

    # -- batch execution ------------------------------------------------------

    def _execute_batch(self, group: ReplicationGroup) -> None:
        """One batch: GET loads, then all PUTs committed and shipped."""
        primary = group.primary
        system = primary.system
        batch = self.batcher.take(self.admission.queue)
        start = max(self.now_ns, primary.clock_ns)
        system.clocks[0] = start
        self.telemetry.record(self._batch_size_metric, len(batch))
        puts: List[Request] = []
        try:
            for request in batch:
                if request.op != OP_GET:
                    puts.append(request)
                    continue
                system.load(
                    primary.addr_of(request.key),
                    primary.value_bytes,
                    core=0,
                )
                request.completion_ns = system.clocks[0]
                self._ack(group, request)
            stores = [
                (primary.addr_of(request.key), request.value)
                for request in puts
            ]
            outcome = group.commit_and_ship(stores, core=0)
        except PowerLossError as exc:
            issued = getattr(exc, "issued_stores", [])
            if primary.log_base is not None:
                # The batch tx also carries the replication-log header.
                # All-or-nothing is judged over the *data* words only:
                # header words are rewritten every batch, so their
                # pre-crash baseline is the previous header — which
                # the word-granular verifier (baselining against
                # acked-or-zero) cannot know.  The header is proven
                # separately, by the divergence fingerprints.
                issued = [s for s in issued if s[0] != primary.log_base]
            staged = dict(MemorySystem.redo_words(issued))
            unacked = [r for r in batch if r.completion_ns <= 0.0]
            self._primary_failover(group, staged, unacked)
            return
        if outcome.tx is not None:
            completion = outcome.ack_ns
            for request in puts:
                request.completion_ns = completion
                self.oracle.record_ack(
                    primary.addr_of(request.key), request.value
                )
                self._ack(group, request)
        for backup in outcome.dead_backups:
            self._backup_failover(group, backup)
        self.batches += 1
        self._push(primary.clock_ns, _WAKE)

    def _ack(self, group: ReplicationGroup, request: Request) -> None:
        """Acknowledgement instant: count + per-shard latency histogram."""
        latency = request.latency_ns
        if request.op == OP_GET:
            self.acked_gets += 1
        else:
            self.acked_puts += 1
        group.primary.acked += 1
        if request.completion_ns > self.last_completion_ns:
            self.last_completion_ns = request.completion_ns
        self.telemetry.record(self._latency_metric, latency)

    # -- failover -------------------------------------------------------------

    def _primary_failover(
        self,
        group: ReplicationGroup,
        staged: Dict[int, bytes],
        unacked: List[Request],
    ) -> None:
        """The primary died mid-batch: verify, requeue, promote or hold.

        The dead machine is crashed+recovered immediately and verified
        against every acked word (plus all-or-nothing for the in-flight
        batch — its data words are ``staged``; the folded-in log header
        is not).  With a live backup the group enters FAILING_OVER
        until the lease expires; without one it holds RECOVERING until
        the same machine's recovery horizon, exactly the PR 7 path.
        """
        primary = group.primary
        self.telemetry.emit(
            self.now_ns,
            "shard_kill",
            "serve",
            {"shard": group.shard_id, "staged_words": len(staged)},
        )
        recover_at = group.begin_replica_recovery(
            primary, self.now_ns, floor_ns=self.cfg.recovery_floor_ns
        )
        failure = self.oracle.verify_shard(primary.system, staged)
        if failure:
            self.oracle_failures.append(
                f"shard {group.shard_id} after kill: {failure}"
            )
        fitted = self.admission.requeue_front(unacked)
        self.retried += fitted
        self.shed_on_failover += len(unacked) - fitted
        if group.live_backups():
            group.state = GROUP_FAILING_OVER
            group.promote_at_ns = max(self.now_ns, group.lease_expiry_ns)
            self.telemetry.emit(
                self.now_ns,
                "failover_begin",
                "serve",
                {
                    "shard": group.shard_id,
                    "promote_at_ns": group.promote_at_ns,
                    "requeued": fitted,
                },
            )
            self._push(group.promote_at_ns, _WAKE)
        else:
            group.state = GROUP_RECOVERING
            self.telemetry.emit(
                self.now_ns,
                "shard_recovering",
                "serve",
                {
                    "shard": group.shard_id,
                    "recovery_ns": recover_at - self.now_ns,
                    "requeued": fitted,
                },
            )
            self._push(recover_at, _WAKE)

    def _backup_failover(
        self, group: ReplicationGroup, replica: Replica
    ) -> None:
        """A backup died (mid-ship or mid-rejoin): recover it off-path.

        Serving never stalls — the ack already proceeded with the
        remaining live set.  The dead backup is crashed+recovered and
        held until its recovery horizon, after which it rejoins from
        its own durable prefix; its durable state is verified at rejoin
        (divergence fingerprint) and again in the final sweep.
        """
        self.backup_kills += 1
        self.telemetry.emit(
            self.now_ns,
            "backup_kill",
            "serve",
            {"shard": group.shard_id, "replica": replica.index},
        )
        recover_at = group.begin_replica_recovery(
            replica, self.now_ns, floor_ns=self.cfg.recovery_floor_ns
        )
        self._push(recover_at, _WAKE)

    def _complete_promotion(self, group: ReplicationGroup) -> None:
        """Lease expired: promote the freshest live backup (or hold).

        If every backup died during the failover window the group falls
        back to waiting for its dead primary (RECOVERING).  A power cut
        *during* promotion (an armed deadline on the successor) demotes
        that successor to the dead set and retries immediately with the
        next candidate.  After a successful promotion the divergence
        oracle compares every live replica's durable keyspace, and the
        optional double-kill deadline is armed on the new primary.
        """
        old_primary = group.primary
        successor = group.choose_successor()
        if successor is None:
            group.state = GROUP_RECOVERING
            self._push(old_primary.recover_at_ns, _WAKE)
            return
        try:
            group.promote(self.now_ns)
        except PowerLossError:
            self._backup_failover(group, successor)
            group.state = GROUP_FAILING_OVER
            group.promote_at_ns = self.now_ns
            self._push(self.now_ns, _WAKE)
            return
        self.telemetry.count("serve.promotions")
        self.telemetry.emit(
            self.now_ns,
            "promotion",
            "serve",
            {
                "shard": group.shard_id,
                "replica": successor.index,
                "epoch": group.epoch,
            },
        )
        # A reconcile ship may have tripped an armed cut on another
        # backup; sweep and recover any such casualty.
        for replica in group.backups():
            if (
                replica.state == BACKUP
                and replica.system.device.injector.power_lost
            ):
                self._backup_failover(group, replica)
        # One durable projection per live replica serves both the
        # divergence fingerprints and the successor's oracle check —
        # the projection (clone + crash + recover) is by
        # far the most expensive verification step, so it is never
        # recomputed within one pass.
        projections = group.live_projections()
        self._check_divergence(group, projections, "after promotion")
        failure = self.oracle.verify_replica(
            projections[successor.index], successor.index
        )
        if failure:
            self.oracle_failures.append(
                f"shard {group.shard_id} promoted {failure}"
            )
        if (
            self.cfg.double_kill_at_ms is not None
            and not self._double_kill_armed
        ):
            self._double_kill_armed = True
            successor.system.device.injector.arm_power_loss_at(
                self.cfg.double_kill_at_ms * 1e6, torn=self.cfg.torn_kill
            )
        self._push(max(self.now_ns, old_primary.recover_at_ns), _WAKE)
        self._push(successor.clock_ns, _WAKE)

    def _complete_recovery(self, group: ReplicationGroup) -> None:
        """Recovery horizon reached: the machine serves again (cold caches)."""
        primary = group.primary
        cores = len(primary.system.clocks)
        primary.system.clocks = [primary.recover_at_ns] * cores
        group.resume_solo(primary, primary.recover_at_ns)
        primary.recoveries += 1
        self.telemetry.emit(
            primary.recover_at_ns,
            "shard_recovered",
            "serve",
            {"shard": group.shard_id},
        )

    # -- rejoin ---------------------------------------------------------------

    def _advance_rejoins(self, group: ReplicationGroup) -> None:
        """Move due non-primary replicas through DEAD → REJOINING → BACKUP.

        Runs at the head of every pump, so any wake or arrival after a
        replica's recovery horizon makes progress.  A rejoin needs a
        live primary as its catch-up source: while the group is itself
        failing over or recovering, the step is deferred to the group's
        own resume instant.  ``rejoin_begin`` says which way the rejoin
        starts (:meth:`~repro.serve.replica.ReplicationGroup.delta_for`).
        """
        for replica in group.replicas:
            if replica.index == group.primary_index:
                continue
            if replica.state == DEAD:
                if self.now_ns + 1e-9 < replica.recover_at_ns:
                    continue  # its recovery wake is already queued
                if group.state != GROUP_UP:
                    resume = (
                        group.promote_at_ns
                        if group.state == GROUP_FAILING_OVER
                        else group.primary.recover_at_ns
                    )
                    self._push(max(resume, replica.recover_at_ns), _WAKE)
                    continue
                replica.state = REJOINING
                delta = group.delta_for(replica)
                self.telemetry.emit(
                    self.now_ns,
                    "rejoin_begin",
                    "serve",
                    {
                        "shard": group.shard_id,
                        "replica": replica.index,
                        "mode": "image" if delta is None else "delta",
                        "records": len(delta or ()),
                    },
                )
                self._try_go_live(group, replica)
            elif replica.state == REJOINING and group.state == GROUP_UP:
                self._try_go_live(group, replica)

    def _try_go_live(
        self, group: ReplicationGroup, replica: Replica
    ) -> None:
        """One rejoin step: resync, then live — or a later retry."""
        try:
            retry_at = group.try_go_live(replica, self.now_ns)
        except PowerLossError:
            self._backup_failover(group, replica)
            return
        if retry_at is not None:
            self._push(retry_at, _WAKE)
            return
        self.telemetry.count("serve.rejoins")
        self.telemetry.emit(
            self.now_ns,
            "rejoin_complete",
            "serve",
            {"shard": group.shard_id, "replica": replica.index},
        )
        self._check_divergence(
            group,
            group.live_projections(),
            f"after replica {replica.index} rejoin",
        )

    # -- verification ---------------------------------------------------------

    def _check_divergence(
        self, group: ReplicationGroup, projections: Dict, label: str
    ) -> None:
        """Fingerprint-compare live replicas' already-computed projections."""
        self.divergence_checks += 1
        failure = group.divergence_of(projections)
        if failure:
            self.oracle_failures.append(f"{failure} ({label})")

    def final_verify(self) -> None:
        """End-of-run sweep: every replica's durable state must hold.

        Unreplicated groups take the PR 7 path verbatim (crash+recover
        the one machine, verify once).  Replicated groups are verified
        non-destructively against *one* durable projection per live
        replica — the projection feeds both the divergence fingerprints
        and the acked-write check, instead of being cloned once per
        verification pass as the pre-PR 9 sweep did.  A replica still
        dead or rejoining at drain time is itself a failure (the event
        loop drains every recovery wake, so a straggler means the
        rejoin protocol lost it).
        """
        group = self.group
        shard_id = self.shard_id
        if not group.replication_enabled:
            shard = group.primary
            shard.system.crash()
            shard.system.recover(threads=self.cfg.recovery_threads)
            failure = self.oracle.verify_shard(shard.system)
            if failure:
                self.oracle_failures.append(
                    f"shard {shard_id} final sweep: {failure}"
                )
            return
        projections = group.live_projections()
        self._check_divergence(group, projections, "final sweep")
        for replica in group.replicas:
            if not replica.live:
                self.oracle_failures.append(
                    f"shard {shard_id} replica {replica.index} "
                    f"never rejoined (state {replica.state})"
                )
                continue
            failure = self.oracle.verify_replica(
                projections[replica.index], replica.index
            )
            if failure:
                self.oracle_failures.append(
                    f"shard {shard_id} final sweep {failure}"
                )
