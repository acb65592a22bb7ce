"""Shard-local execution: one replication group's event loop slice.

A :class:`ShardExecutor` owns everything that is *per-shard* — the
replication group, the shard's bounded admission queue, the batch
policy, the acked-write oracle slice, the wake heap, and every
failover/promotion/rejoin state machine — and exposes exactly the
epoch-bounded stepping API the coordinator drives:

* :meth:`ShardExecutor.submit` — hand over a routed arrival (appended
  to the shard's arrival lane, *not* executed yet);
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

A shard has two event sources.  The **arrival lane** is a FIFO of
routed requests: the coordinator submits them in the canonical global
arrival order (:class:`~repro.serve.client.ArrivalStream`), so the lane
is already sorted by arrival instant.  The **wake heap** is a min-heap
of bare wake instants.  :meth:`ShardExecutor.advance_to` merges the two
fronts, and an arrival comes before a wake at the same instant.  That
order is total and epoch-independent: neither source nor the merge rule
depends on when the coordinator handed a request over, so no epoch
quantum changes it.

Wakes are *level-triggered*, like the pump they drive: a wake carries
no payload, and :meth:`ShardExecutor._pump` recomputes everything
(rejoins, promotion, recovery, busy-until, batch readiness) from state,
so a second wake at an instant that already has one pending could only
repeat the first.  The wake heap therefore holds **at most one pending
wake per distinct simulated instant** (exact float equality, no
epsilon), enforced in :meth:`ShardExecutor._wake_at` — the one place
wakes are scheduled.  The instant is forgotten when its wake is popped,
so a pump may re-arm the instant it is running at (a zero-duration
batch, a power cut during promotion).  *Stale* wakes are kept — a batch
deadline whose batch already ran full still fires, pumps, and finds
nothing to do — because every pending instant feeds
:meth:`~ShardExecutor.next_event_ns`, hence the coordinator's horizons
and epoch count; *duplicates* are not, because an edge-queued timer
(one heap entry per caller) makes a saturated shard re-queue a wake per
arrival per batch, and the event count grows with the square of the
time spent saturated.

Every wake pumps; an arrival is admitted and then pumps too, except in
the one state in which the pump could only return: the group is up, no
replica is dead or rejoining, and the primary is busy until an instant
whose wake is already armed.  Each arrival is handled once, whatever the
length of the busy period it lands in.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Dict, List, Set

from repro.common.config import AT_NS, Cut, FaultSchedule
from repro.common.errors import PowerLossError
from repro.serve.admission import AdmissionController
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

# Replica states in which a pump has rejoin work to look at.
_REJOIN_STATES = (DEAD, REJOINING)

# A serving cut's target role: the lease holder when it arms, or replica 1.
PRIMARY_ROLE = "primary"
BACKUP_ROLE = "backup"


def kill_schedule(cfg) -> FaultSchedule:
    """A serving run's power cuts, from its :class:`ServeConfig` kill fields.

    All hit one shard (``kill_shard``, else 0) at simulated instants.
    The first primary cut is ``kill_primary_at_ms`` — else, with
    ``kill_shard`` set, ``kill_at_ms`` or 40 % of the run — and
    ``double_kill_at_ms`` the second.  Nothing after this reads a kill
    field; a negative or non-finite instant raises ``ValueError``.
    """
    shard = cfg.kill_shard if cfg.kill_shard is not None else 0
    primary_ms = cfg.kill_primary_at_ms
    if primary_ms is None and cfg.kill_shard is not None:
        primary_ms = (
            cfg.kill_at_ms
            if cfg.kill_at_ms is not None
            else cfg.duration_ms * 0.4
        )
    kills = (
        (PRIMARY_ROLE, primary_ms),
        (BACKUP_ROLE, cfg.kill_backup_at_ms),
        (PRIMARY_ROLE, cfg.double_kill_at_ms),
    )
    return tuple(
        Cut(AT_NS, at_ms * 1e6, cfg.torn_kill, (shard, role))
        for role, at_ms in kills
        if at_ms is not None
    )


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
        # Routed arrivals not handled yet, in arrival order (see submit).
        self._lane: Deque[Request] = deque()
        # Pending wake instants: a min-heap of floats, and the same
        # instants as a set, which keeps them unique (see _wake_at).
        self._wakes: List[float] = []
        self._wake_instants: Set[float] = set()
        # This shard's cuts not armed yet, in schedule order.
        self._cuts: List[Cut] = [
            cut for cut in kill_schedule(cfg)
            if cut.target[0] == self.shard_id
        ]
        prefix = f"shard{self.shard_id}/"
        self._queue_depth_metric = prefix + "queue_depth"
        self._batch_size_metric = prefix + "batch_size"
        self._latency_metric = prefix + "request_latency_ns"

    # -- event plumbing -------------------------------------------------------

    def _wake_at(self, time_ns: float) -> None:
        """Schedule a wake, unless its instant already has one pending.

        Wakes carry no payload and the pump is a function of state, so
        one pending wake per instant does everything any number would.
        """
        if time_ns not in self._wake_instants:
            self._wake_instants.add(time_ns)
            heapq.heappush(self._wakes, time_ns)

    def submit(self, request: Request) -> None:
        """Append a routed arrival to the shard's arrival lane.

        Submission never executes anything: the request waits in the
        lane until an :meth:`advance_to` horizon covers it.  Requests
        come in the canonical ``(arrival_ns, client_id)`` order, so the
        lane stays sorted and the per-shard processing order never
        depends on when the coordinator handed a request over.
        """
        self._lane.append(request)

    def next_event_ns(self) -> float:
        """This shard's next event clock (``inf`` when drained)."""
        wakes = self._wakes
        if self._lane:
            arrival_ns = self._lane[0].arrival_ns
            if not wakes or arrival_ns <= wakes[0]:
                return arrival_ns
        return wakes[0] if wakes else math.inf

    def advance_to(self, horizon_ns: float) -> None:
        """Run every event at or before ``horizon_ns``, in time order.

        Merges the arrival lane with the wake heap; at one instant the
        arrival goes first.  Wakes scheduled *during* the advance (batch
        deadlines, promotion instants…) that land within the horizon
        are executed in the same pass — the loop drains both fronts,
        not a snapshot of them — so an epoch boundary is never
        observable from inside the shard.  An arrival skips the pump
        when it finds the group up, every replica live, and the
        primary busy until an armed wake: that pump could only return.
        """
        lane = self._lane
        wakes = self._wakes
        instants = self._wake_instants
        group = self.group
        replicas = group.replicas
        # While the group is up, only a backup can be dead or rejoining.
        has_backups = len(replicas) > 1
        while lane or wakes:
            if lane and (not wakes or lane[0].arrival_ns <= wakes[0]):
                request = lane[0]
                if request.arrival_ns > horizon_ns:
                    return
                lane.popleft()
                if request.arrival_ns > self.now_ns:
                    self.now_ns = request.arrival_ns
                self._admit(request)
                busy_until = group.primary.system.clocks[0]
                if (
                    busy_until > self.now_ns + 1e-9
                    and busy_until in instants
                    and group.state == GROUP_UP
                    and not (
                        has_backups
                        and any(r.state in _REJOIN_STATES for r in replicas)
                    )
                ):
                    continue
            else:
                time_ns = wakes[0]
                if time_ns > horizon_ns:
                    return
                heapq.heappop(wakes)
                if time_ns > self.now_ns:
                    self.now_ns = time_ns
                # Forgotten before the pump, which may re-arm this instant.
                instants.discard(time_ns)
            self._pump()

    def arm_kills(self) -> None:
        """Arm this shard's first primary cut and its backup cut.

        The primary cut on the group's primary, the backup cut on
        replica 1.  A second primary cut waits for the first promotion,
        which arms it on the successor.
        """
        self._arm_next(PRIMARY_ROLE, self.group.primary_index)
        self._arm_next(BACKUP_ROLE, 1)

    def _arm_next(self, role: str, index: int) -> None:
        """Arm the shard's next ``role`` cut, if any, on replica ``index``."""
        for cut in self._cuts:
            if cut.target[1] == role:
                self._cuts.remove(cut)
                replica = self.group.replicas[index]
                replica.system.device.injector.arm_power_loss_at(cut)
                return

    # -- admission ------------------------------------------------------------

    def _admit(self, request: Request) -> None:
        group = self.group
        self.offered += 1
        rejected = self.admission.admit(
            request,
            recovering=group.state == GROUP_RECOVERING,
            failing_over=group.state == GROUP_FAILING_OVER,
        )
        if rejected is not None:
            self.telemetry.emit(
                self.now_ns,
                "serve_reject",
                "serve",
                {"shard": request.shard, "kind": rejected},
            )
            return
        self.admitted += 1
        self.telemetry.record(
            self._queue_depth_metric, len(self.admission.queue)
        )

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
            # An arrival skips the pump when it is armed (advance_to).
            self._wake_at(primary.clock_ns)
            return
        queue = self.admission.queue
        if not queue:
            return
        if self.batcher.ready(queue, self.now_ns):
            self._execute_batch(group)
        else:
            self._wake_at(self.batcher.deadline_ns(queue))

    # -- batch execution ------------------------------------------------------

    def _execute_batch(self, group: ReplicationGroup) -> None:
        """One batch: GET loads, then all PUTs committed and shipped.

        An acknowledgement stamps the request's completion instant,
        counts it for the shard, and records one latency sample.  The
        primary's slot map and clocks and the latency sink are bound
        once per batch.
        """
        primary = group.primary
        system = primary.system
        clocks = system.clocks
        load = system.load
        base = primary.base
        slot_of = primary.slot_of
        value_bytes = primary.value_bytes
        record = self.telemetry.record
        latency_metric = self._latency_metric
        batch = self.batcher.take(self.admission.queue)
        clocks[0] = max(self.now_ns, clocks[0])
        record(self._batch_size_metric, len(batch))
        puts: List[Request] = []
        try:
            for request in batch:
                if request.op != OP_GET:
                    puts.append(request)
                    continue
                load(base + slot_of[request.key] * value_bytes, value_bytes, 0)
                completion = request.completion_ns = clocks[0]
                self.acked_gets += 1
                if completion > self.last_completion_ns:
                    self.last_completion_ns = completion
                record(latency_metric, completion - request.arrival_ns)
            stores = [
                (base + slot_of[request.key] * value_bytes, request.value)
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
            record_ack = self.oracle.record_ack
            for request, (addr, value) in zip(puts, stores):
                request.completion_ns = completion
                record_ack(addr, value)
                record(latency_metric, completion - request.arrival_ns)
            self.acked_puts += len(puts)
            if completion > self.last_completion_ns:
                self.last_completion_ns = completion
        for backup in outcome.dead_backups:
            self._backup_failover(group, backup)
        self.batches += 1
        self._wake_at(primary.clock_ns)

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
            self._wake_at(group.promote_at_ns)
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
            self._wake_at(recover_at)

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
        self._wake_at(recover_at)

    def _complete_promotion(self, group: ReplicationGroup) -> None:
        """Lease expired: promote the freshest live backup (or hold).

        If every backup died during the failover window the group falls
        back to waiting for its dead primary (RECOVERING).  A power cut
        *during* promotion (an armed cut on the successor) demotes
        that successor to the dead set and retries immediately with the
        next candidate.  After a successful promotion the divergence
        oracle compares every live replica's durable keyspace, and the
        shard's next primary cut (a double kill) is armed on the new
        primary.
        """
        old_primary = group.primary
        successor = group.choose_successor()
        if successor is None:
            group.state = GROUP_RECOVERING
            self._wake_at(old_primary.recover_at_ns)
            return
        try:
            group.promote(self.now_ns)
        except PowerLossError:
            self._backup_failover(group, successor)
            group.state = GROUP_FAILING_OVER
            group.promote_at_ns = self.now_ns
            self._wake_at(self.now_ns)
            return
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
        self._arm_next(PRIMARY_ROLE, successor.index)
        self._wake_at(max(self.now_ns, old_primary.recover_at_ns))
        self._wake_at(successor.clock_ns)

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
                    self._wake_at(max(resume, replica.recover_at_ns))
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
            self._wake_at(retry_at)
            return
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
