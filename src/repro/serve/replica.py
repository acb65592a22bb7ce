"""Replication groups: synchronous redo shipping, deterministic failover.

A single shard machine (PR 7) still stalls its keyspace while it
recovers from a crash.  This module turns each shard into a
**replication group** — one primary plus R backups, every replica a
full fault-injectable :class:`~repro.txn.system.MemorySystem` — so an
acknowledged write survives even the *destruction* of the machine that
acknowledged it.

The unit of replication is the word-granular redo record HOOP already
materializes at the memory controller: the ``(home address, value)``
write set of one batch transaction (see
:meth:`repro.txn.system.MemorySystem.run_batch` and its
``redo_words``).  A batch commit on the primary synchronously ships
that record to every live backup *before* the acknowledgement:

* the **primary** commits the data stores plus its log header (three
  words: magic, epoch, sequence) in one failure-atomic transaction —
  the scheme's commit (HOOP's out-of-place slices) already is the
  durable redo copy, and nothing would read a second one;
* each **backup** commits what it is shipped the same way — the
  record's data stores plus its own log header, one failure-atomic
  transaction on its own machine — so there is no replication log to
  append to and nothing to apply later or replay at promotion: every
  live backup's scheme holds the committed prefix the primary's does;
* the acknowledgement instant is the **max** over the primary commit
  and every live backup's ship commit — synchronous replication by
  construction.

Failover is lease/epoch based and entirely deterministic in simulated
time: a primary kill starts a promotion at the old primary's lease
expiry; the freshest live backup (highest durably shipped sequence,
ties to the lowest replica index) bumps the group epoch durably in
its log header, reconciles any backup that missed the final records,
and serves.  A recovered replica rejoins from its own durable prefix:
the records it missed are re-shipped (delta), and only one that is off
the primary's lineage or behind its bounded history takes a full image.
The replica lifecycle (``BACKUP`` → ``LEASED`` through the durable
epoch bump; a killed replica goes ``DEAD`` → ``REJOINING`` →
``BACKUP``) is documented for operators in ``docs/serving.md``.

Determinism contract: every method advances only the clocks of the
machines it touches, draws no randomness of its own (fault seeds are
derived per replica via :func:`repro.common.rng.derive`), and is a
pure function of the group's configuration and call sequence — a
replicated serve run replays bit-identically, like everything else in
the simulator.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import rng as rng_util
from repro.common.config import FaultConfig, SystemConfig
from repro.common.errors import PowerLossError, ReproError
# ``clone_state`` is re-exported, not used here: the benchmark's tracer
# resolves ``repro.serve.replica.clone_state`` by name.
from repro.snapshot import clone_state, crash_image  # noqa: F401
from repro.telemetry.hub import Telemetry
from repro.txn.system import MemorySystem

_WORD = 8
# Log header: three u64 words at the head of a reserved cache line
# [magic, epoch, shipped_seq].  It is the whole durable "log".
_HEADER_BYTES = 64
_MAGIC = 0x52504C4F47763101  # "RPLOGv1" + 0x01
# What one record charges the volatile history budget: [seq, epoch,
# nstores] then per store [addr, nbytes] and the value bytes.
_ENTRY_FIXED = 3 * _WORD
_STORE_FIXED = 2 * _WORD
Stores = Tuple[Tuple[int, bytes], ...]  # one batch's frozen (addr, value)s
Record = Tuple[int, int, Stores]  # (seq, epoch, stores)

# Replica lifecycle states (the failover state machine of
# docs/serving.md).
LEASED = "leased"          # primary: holds the serving lease
BACKUP = "backup"          # live backup: receives synchronous ships
REJOINING = "rejoining"    # recovered machine catching up
DEAD = "dead"              # killed; recovery hold not yet elapsed

# Group-level states.
GROUP_UP = "up"
GROUP_FAILING_OVER = "failing_over"
GROUP_RECOVERING = "recovering"

# Chunk size (stores per transaction) for the rejoin image copy: big
# enough to amortize commit cost, small enough to bound one tx.
_CATCHUP_CHUNK = 64


class StaleEpochError(ReproError):
    """A ship from a fenced-out epoch reached a replica.

    Epoch fencing: a replica never accepts a redo record stamped with
    an epoch older than the one durably recorded in its log header.
    The deterministic event loop never produces this by itself — the
    guard exists so any future scheduling bug fails loudly instead of
    silently un-fencing a deposed primary.
    """


def keyspace_fingerprint(system, slot_addrs: Sequence[int], value_bytes: int) -> str:
    """SHA-256 over the durable bytes of every key slot, in key order.

    The divergence oracle's unit of comparison: two replicas whose
    keyspace slots are byte-identical fingerprint equally regardless of
    how their logs, scheme metadata, or wear differ.  Read via raw
    device peeks, so call it on a *durable projection* (post
    crash+recover clone), never on a live machine whose latest commits
    may still sit out-of-place.  Deterministic; advances no clocks.
    """
    digest = hashlib.sha256()
    peek = system.device.peek
    for addr in slot_addrs:
        digest.update(peek(addr, value_bytes))
    return digest.hexdigest()


class Replica:
    """One member of a replication group: a machine plus its log header.

    Replica 0 of a group boots as the primary (state :data:`LEASED`);
    the rest boot as :data:`BACKUP`.  With ``log_bytes == 0`` (an
    unreplicated R=0 group) no header line is allocated and the replica
    is bit-identical to the PR 7 single-machine shard, fault seed
    included.  Otherwise ``log_bytes`` less the header line is the
    budget of the volatile record history (the delta catch-up source).
    All mutating methods advance only this machine's core-0 clock; the
    volatile mirrors (``epoch``, ``shipped_seq``) are updated strictly
    *after* the backing transaction commits and reloaded from the
    durable header when the machine recovers from a power cut.  The
    machine has no telemetry hub: the cluster's hub observes the serving
    layer only, so neither it nor its crash images emit anything.
    """

    def __init__(
        self,
        shard_id: int,
        index: int,
        *,
        scheme: str,
        keys: Sequence[int],
        value_bytes: int,
        seed: int,
        log_bytes: int,
        recovery_threads: int,
    ) -> None:
        if index == 0:
            # Replica 0 keeps the PR 7 shard derivation so R=0 groups
            # are bit-identical to the unreplicated serving layer.
            fault_seed = rng_util.derive(seed, "shard", shard_id, "faults")
        else:
            fault_seed = rng_util.derive(
                seed, "shard", shard_id, "replica", index, "faults"
            )
        config = SystemConfig.small().replace(
            faults=FaultConfig(enabled=True, seed=fault_seed)
        )
        self.system = MemorySystem(config, scheme=scheme)
        self.shard_id = shard_id
        self.index = index
        self.value_bytes = value_bytes
        self.recovery_threads = recovery_threads
        # Key -> index of its value slot in the home region.
        self.slot_of = {key: i for i, key in enumerate(keys)}
        self.base = self.system.allocate(max(1, len(keys)) * value_bytes)
        self.slot_addrs = range(
            self.base, self.base + len(self.slot_of) * value_bytes, value_bytes
        )
        if log_bytes:
            self.log_base: Optional[int] = self.system.allocate(_HEADER_BYTES)
            self.history_limit = log_bytes - _HEADER_BYTES
        else:
            self.log_base = None
            self.history_limit = 0
        self.state = LEASED if index == 0 else BACKUP
        # Volatile mirrors of the durable log header (authoritative
        # copy lives in NVM; these track it transaction by transaction).
        self.epoch = 1
        self.shipped_seq = 0
        # Records committed here since the history last restarted (the
        # delta catch-up source), with the bytes they charge its budget.
        self.entries: List[Record] = []
        self.history_bytes = 0
        self.recover_at_ns = 0.0
        self.kills = 0
        self.recoveries = 0

    def addr_of(self, key: int) -> int:
        """Home-region address of one key's value slot."""
        return self.base + self.slot_of[key] * self.value_bytes

    @property
    def clock_ns(self) -> float:
        """This machine's service clock (core 0 does all the work)."""
        return self.system.clocks[0]

    @property
    def live(self) -> bool:
        """Is this replica serving or shippable (not dead/rejoining)?"""
        return self.state in (LEASED, BACKUP)

    # -- log plumbing ----------------------------------------------------------

    def _header_store(self, epoch: int, seq: int) -> Tuple[int, bytes]:
        return self.log_base, b"".join(
            w.to_bytes(_WORD, "little") for w in (_MAGIC, epoch, seq)
        )

    def _run(
        self, stores: Sequence[Tuple[int, bytes]], start_ns: float
    ) -> float:
        """One transaction no earlier than ``start_ns``; the clock after."""
        self.system.clocks[0] = max(start_ns, self.clock_ns)
        self.system.run_batch(stores, core=0)
        return self.clock_ns

    def _set_horizon(self, epoch: int, seq: int) -> None:
        """Point the volatile mirrors at a horizon with no history."""
        self.epoch = epoch
        self.shipped_seq = seq
        self.entries = []
        self.history_bytes = 0

    def stage_commit(
        self, seq: int, epoch: int, stores: Stores
    ) -> Tuple[Tuple[int, bytes], Callable[[], None]]:
        """One record's commit on this replica, primary or backup alike.

        Returns ``(header_store, commit)``: the header write to run
        *inside* the same batch transaction as the record's data
        stores, and a ``commit`` callback the caller invokes only after
        that transaction returns — a power cut mid-batch leaves the
        volatile mirrors untouched, matching whatever the durable
        header resolved to.  The record is durable in the scheme's own
        commit, so no entry is written anywhere; it joins the volatile
        ``entries`` history, which restarts when the record's framed
        size (what a log entry would take) would outgrow the budget.
        This is the one place a record enters a replica, so it is where
        a store that is not word-aligned is rejected (``ValueError``):
        the acked-write oracle judges a torn commit word by word.
        ``stores`` is kept by reference: the group freezes each batch
        once (:meth:`ReplicationGroup.commit_and_ship`) and every
        replica's history holds that one object.
        """
        size = _ENTRY_FIXED
        for addr, value in stores:
            if addr % _WORD or len(value) % _WORD:
                raise ValueError("redo records must be word-aligned")
            size += _STORE_FIXED + len(value)
        record = (seq, epoch, stores)

        def commit() -> None:
            if self.history_bytes + size > self.history_limit:
                self.entries = []  # over budget: prior history is gone
                self.history_bytes = 0
            self.epoch = epoch
            self.shipped_seq = seq
            self.entries.append(record)
            self.history_bytes += size

        return self._header_store(epoch, seq), commit

    def receive_ship(
        self,
        seq: int,
        epoch: int,
        stores: Stores,
        start_ns: float,
    ) -> float:
        """Backup-side commit of one shipped redo record.

        Runs one failure-atomic transaction (the record's data stores
        plus the header) on this machine starting no earlier than
        ``start_ns`` (the primary's commit instant — redo exists only
        after commit) and returns the ship's commit time, which joins
        the ack max.  Raises :class:`StaleEpochError` for a fenced-out
        epoch and propagates
        :class:`~repro.common.errors.PowerLossError` if this backup
        dies mid-ship (the record is then all-or-nothing, like any
        transaction).
        """
        if epoch < self.epoch:
            raise StaleEpochError(
                f"replica {self.shard_id}/{self.index} at epoch "
                f"{self.epoch} refused ship from epoch {epoch}"
            )
        header, commit = self.stage_commit(seq, epoch, stores)
        end_ns = self._run([*stores, header], start_ns)
        commit()
        return end_ns

    def apply_tail(self, start_ns: float, *, epoch: int) -> float:
        """Durably stamp the header at ``epoch`` and ``shipped_seq``.

        One header-only transaction: the epoch bump of a promotion or a
        solo resume, and the restamp that closes an image catch-up.  The
        name outlived the tail it used to replay in the same commit — a
        backup now commits every record as it is shipped — and stays
        because ``perf/trace.py`` wraps it by name; the rename rides with
        ROADMAP item 2.  Returns this machine's clock after the commit.
        """
        end_ns = self._run(
            [self._header_store(epoch, self.shipped_seq)], start_ns
        )
        self.epoch = epoch
        return end_ns

    def entries_since(self, seq: int) -> Optional[List[Record]]:
        """Redo records with sequence above ``seq``, or None on a gap.

        The delta catch-up source: ``None`` means the bounded history
        no longer holds a needed record (it restarted, or a crash
        emptied it) and the caller must fall back to a full image copy.
        Pure accessor; no clocks.
        """
        if seq >= self.shipped_seq:
            return []
        delta = [e for e in self.entries if e[0] > seq]
        expected = self.shipped_seq - seq
        if len(delta) != expected:
            return None
        return delta

    def refresh_from_durable_log(self) -> None:
        """Rebuild the volatile mirrors from the durable header after a crash.

        Restores ``(epoch, shipped_seq)`` from the recovered header via
        a raw peek and nothing else: every record at or below that
        sequence is already in the scheme's recovered state, and the
        volatile history died with the machine (``entries_since``
        reports a gap for anything older).  A virgin header (no magic)
        resets to the empty-log state.  No-op for unreplicated
        replicas.
        """
        if self.log_base is None:
            return
        raw = self.system.device.peek(self.log_base, 3 * _WORD)
        if int.from_bytes(raw[:_WORD], "little") != _MAGIC:
            self._set_horizon(max(self.epoch, 1), 0)
            return
        self._set_horizon(
            int.from_bytes(raw[_WORD : 2 * _WORD], "little"),
            int.from_bytes(raw[2 * _WORD :], "little"),
        )

    def durable_projection(self):
        """What this replica would serve after a crash, non-destructively.

        Recovers a crash image of the machine (what survives its power
        loss, copy-on-write).  The live machine is untouched: clocks,
        caches, fault state and its recovery memos all stay exactly as
        they were, preserving bit-identical replays.  The image recovers
        through recovery memos of its own, so its fold is freed with it;
        it still decodes through the group's codec memo.  Returns the
        recovered image for peeking.
        """
        image = crash_image(self.system)
        image.scheme.detach_recovery_memos()
        image.recover(threads=self.recovery_threads)
        return image

    def fingerprint(self) -> str:
        """Durable keyspace fingerprint of this replica's projection."""
        return keyspace_fingerprint(
            self.durable_projection(), self.slot_addrs, self.value_bytes
        )


class ShipOutcome:
    """What one replicated batch commit produced.

    ``tx`` is the primary's closed batch transaction (None for an
    all-GET batch), ``ack_ns`` the acknowledgement instant (max of the
    primary commit and every live backup's ship commit), and
    ``dead_backups`` the replicas whose ship transaction died to an
    injected power cut — the cluster drives their crash/recover/rejoin.
    """

    __slots__ = ("tx", "ack_ns", "dead_backups")

    def __init__(self, tx, ack_ns: float, dead_backups: List[Replica]):
        self.tx = tx
        self.ack_ns = ack_ns
        self.dead_backups = dead_backups


class ReplicationGroup:
    """One shard's replica set: primary, backups, epoch, and lease.

    Owns the deterministic failover protocol; the cluster event loop
    calls in at batch execution, promotion wakes, and rejoin wakes.
    With ``replicas == 0`` the group degenerates to the PR 7
    single-machine shard (no log region, no shipping, identical fault
    seeds and clocks).  All simulated-time decisions (lease expiry,
    promotion instant, catch-up convergence) are pure functions of the
    config, the seed, and the call sequence.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        scheme: str,
        keys: Sequence[int],
        value_bytes: int,
        seed: int,
        telemetry: Telemetry,
        replicas: int = 0,
        log_bytes: int = 1 << 20,
        recovery_threads: int = 2,
        lease_ns: float = 250_000.0,
    ) -> None:
        self.shard_id = shard_id
        self.telemetry = telemetry
        self.lease_ns = lease_ns
        log = log_bytes if replicas > 0 else 0
        self.replicas: List[Replica] = [
            Replica(
                shard_id,
                index,
                scheme=scheme,
                keys=keys,
                value_bytes=value_bytes,
                seed=seed,
                log_bytes=log,
                recovery_threads=recovery_threads,
            )
            for index in range(1 + replicas)
        ]
        # One decode memo for the whole group: its replicas run the same
        # batches, so they write byte-identical slices.
        codecs = [
            codec
            for replica in self.replicas
            for codec in replica.system.scheme.slice_codecs()
        ]
        for codec in codecs[1:]:
            codec.adopt_memos(codecs[0])
        self.primary_index = 0
        self.state = GROUP_UP
        self.epoch = 1
        self.next_seq = 1
        self.lease_expiry_ns = lease_ns
        self.promote_at_ns = 0.0
        self.promotions = 0
        self.rejoins = 0
        self.reconciled_records = 0
        # The primary's lineage: (epoch, seq it began at) per promotion
        # or solo resume, which `on_lineage` judges a rejoiner by.
        self._epoch_starts: List[Tuple[int, int]] = []

    # -- accessors -------------------------------------------------------------

    @property
    def primary(self) -> Replica:
        """The replica currently holding the serving lease."""
        return self.replicas[self.primary_index]

    @property
    def replication_enabled(self) -> bool:
        """Does this group ship redo records (R >= 1)?"""
        return len(self.replicas) > 1

    def backups(self) -> List[Replica]:
        """Every non-primary replica, in replica-index order."""
        return [
            r for r in self.replicas if r.index != self.primary_index
        ]

    def live_backups(self) -> List[Replica]:
        """Backups currently shippable (state :data:`BACKUP`)."""
        return [r for r in self.backups() if r.state == BACKUP]

    @property
    def kills(self) -> int:
        """Total injected kills across every replica of the group."""
        return sum(r.kills for r in self.replicas)

    @property
    def recoveries(self) -> int:
        """Total completed recoveries across every replica."""
        return sum(r.recoveries for r in self.replicas)

    # -- the replicated commit path --------------------------------------------

    def commit_and_ship(
        self, stores: Sequence[Tuple[int, bytes]], core: int = 0
    ) -> ShipOutcome:
        """Commit one batch on the primary and ship its redo records.

        The primary's transaction carries the data stores plus its log
        header (one atomic commit); each live backup then commits the
        same stores plus its own header starting at the primary's
        commit instant (ships run in parallel across backups in
        simulated time); the stores are frozen once, into the one record
        every replica's history keeps.  The primary's clock is advanced
        to the ack instant — synchronous replication stalls the next
        batch until every live backup is durable.  A backup that dies mid-ship is
        returned in ``dead_backups`` (its record all-or-nothing); a
        primary power cut propagates as
        :class:`~repro.common.errors.PowerLossError` with
        ``issued_stores`` annotated by ``run_batch``.
        """
        primary = self.primary
        system = primary.system
        if not stores:
            return ShipOutcome(None, system.clocks[core], [])
        if not self.replication_enabled:
            tx = system.run_batch(stores, core=core)
            self.lease_expiry_ns = tx.end_ns + self.lease_ns
            return ShipOutcome(tx, tx.end_ns, [])
        seq = self.next_seq
        stores = tuple((addr, bytes(value)) for addr, value in stores)
        header, commit = primary.stage_commit(seq, self.epoch, stores)
        tx = system.run_batch([*stores, header], core=core)
        commit()
        self.next_seq = seq + 1
        commit_end = tx.end_ns
        ack_ns = commit_end
        dead: List[Replica] = []
        for replica in self.live_backups():
            try:
                end = replica.receive_ship(seq, self.epoch, stores, commit_end)
                ack_ns = max(ack_ns, end)
            except PowerLossError:
                dead.append(replica)
        system.clocks[core] = ack_ns
        self.lease_expiry_ns = ack_ns + self.lease_ns
        return ShipOutcome(tx, ack_ns, dead)

    # -- failover --------------------------------------------------------------

    def begin_replica_recovery(
        self, replica: Replica, now_ns: float, *, floor_ns: float
    ) -> float:
        """Crash+recover a killed replica; start its recovery hold.

        Runs the machine's real crash/recovery path immediately (the
        scheme replays its own logs), reloads the volatile mirrors from
        the recovered header (whatever its role: they died with the
        machine), marks the replica :data:`DEAD`, and returns the
        simulated instant its hold expires — the recovery report's
        elapsed time floored at ``floor_ns``, after which the cluster
        drives the rejoin (or, for an unreplicated group, resumes).
        """
        replica.kills += 1
        system = replica.system
        system.crash()
        report = system.recover(threads=replica.recovery_threads)
        replica.refresh_from_durable_log()
        elapsed = getattr(report, "elapsed_ns", 0.0) or 0.0
        replica.state = DEAD
        replica.recover_at_ns = now_ns + max(elapsed, floor_ns)
        return replica.recover_at_ns

    def choose_successor(self) -> Optional[Replica]:
        """The freshest live backup: highest shipped seq, lowest index.

        Deterministic promotion rule; ``None`` when no backup is live
        (the group must fall back to recovering its dead primary).
        """
        live = self.live_backups()
        if not live:
            return None
        return max(live, key=lambda r: (r.shipped_seq, -r.index))

    def promote(self, now_ns: float) -> Replica:
        """Promote the freshest live backup to primary at a new epoch.

        The successor bumps the epoch durably in one header-only commit
        (it has already committed every record it was shipped, so
        nothing is replayed), then every other live backup is
        reconciled — records the successor holds that they missed are
        re-shipped from its history (delta), or by a full image copy if
        the history no longer reaches back.  The group
        resumes :data:`GROUP_UP` with the successor :data:`LEASED`.
        Raises if no live backup exists; the caller checks
        :meth:`choose_successor` first.
        """
        successor = self.choose_successor()
        if successor is None:
            raise ReproError(
                f"group {self.shard_id}: promotion with no live backup"
            )
        self.epoch += 1
        successor.apply_tail(max(now_ns, successor.clock_ns), epoch=self.epoch)
        self._epoch_starts.append((self.epoch, successor.shipped_seq))
        self.primary_index = successor.index
        for other in self.live_backups():
            try:
                self.reconciled_records += self.resync(other, now_ns)
            except PowerLossError:
                # An armed cut on this backup fired during the reconcile;
                # the cluster sweeps dead backups right after promotion.
                continue
        successor.state = LEASED
        self.state = GROUP_UP
        self.promotions += 1
        self.next_seq = successor.shipped_seq + 1
        self.lease_expiry_ns = (
            max(now_ns, successor.clock_ns) + self.lease_ns
        )
        return successor

    def resume_solo(self, replica: Replica, now_ns: float) -> None:
        """Resume a recovered replica as primary with no failover target.

        The unreplicated path (and the degraded replicated path when
        every backup is dead too): the machine that crashed serves
        again itself at a bumped epoch, from the horizon its recovery
        read back out of the durable header.
        """
        if self.replication_enabled:
            self.epoch += 1
            replica.apply_tail(now_ns, epoch=self.epoch)
            self._epoch_starts.append((self.epoch, replica.shipped_seq))
            self.next_seq = replica.shipped_seq + 1
        replica.state = LEASED
        self.primary_index = replica.index
        self.state = GROUP_UP
        self.lease_expiry_ns = max(now_ns, replica.clock_ns) + self.lease_ns

    # -- rejoin ----------------------------------------------------------------

    def on_lineage(self, replica: Replica) -> bool:
        """Is what this replica durably holds a prefix of the primary's?

        Its header ``(epoch e, seq s)`` names records ``1..s``.  One
        primary per epoch ships in order and backups hold prefixes, so
        they are a prefix of today's history iff no later epoch exists
        or ``s`` is at most the sequence the first epoch after ``e``
        began at (start sequences never decrease).  It fails for a
        deposed primary whose last batch turned durable although its
        commit raised and was never shipped (``lad``'s battery-backed
        drain): ``s`` is one past where its successor took over.
        """
        later = [s for e, s in self._epoch_starts if e > replica.epoch]
        return not later or replica.shipped_seq <= later[0]

    def delta_for(self, replica: Replica) -> Optional[List[Record]]:
        """The records ``replica`` has missed, or None: it needs the image.

        The one place "delta, else image" is decided — for a reconcile
        at promotion, a rejoin step and its announcement alike.  None
        when the replica is off the lineage (:meth:`on_lineage`) or the
        primary's bounded history no longer reaches back to its horizon.
        """
        if not self.on_lineage(replica):
            return None
        return self.primary.entries_since(replica.shipped_seq)

    def resync(self, replica: Replica, now_ns: float) -> int:
        """Bring ``replica`` to the primary's horizon; the records re-shipped.

        Delta first: each missed record is one :meth:`Replica.receive_ship`
        transaction, O(records missed).  Otherwise the O(keyspace) image
        copy (:meth:`catch_up`; 0 records).  A replica that dies on
        either path needs no extra state: its header still names its old
        horizon, image chunks are atomic full-value overwrites and the
        delta re-applies every later record in order, so its next rejoin
        either finds it still off the lineage (image again) or converges.
        """
        delta = self.delta_for(replica)
        if delta is None:
            self.telemetry.count("serve.rejoin_images")
            self.catch_up(replica, now_ns)
            return 0
        for seq, _, record in delta:
            replica.receive_ship(
                seq, self.epoch, record, max(now_ns, replica.clock_ns)
            )
        return len(delta)

    def catch_up(self, replica: Replica, now_ns: float) -> float:
        """Full-image catch-up of a rejoining replica: the fallback.

        :meth:`resync` takes it only when no delta can serve.  Copies
        the primary's durable projection of every key slot into the
        rejoiner in chunked failure-atomic transactions (the
        fuzzy-snapshot transfer runs off the primary's critical path —
        only the rejoiner's clock advances), then durably restamps the
        rejoiner's header at the image horizon: the new epoch and the
        image's sequence, with an empty volatile history.  Returns the
        rejoiner's clock after the copy; :meth:`try_go_live` then closes
        the gap for records shipped since the image was taken.
        """
        image_seq = self.primary.shipped_seq
        projection = self.primary.durable_projection()
        peek = projection.device.peek
        replica.system.clocks[0] = max(now_ns, replica.clock_ns)
        chunk: List[Tuple[int, bytes]] = []
        for addr in replica.slot_addrs:
            chunk.append((addr, peek(addr, replica.value_bytes)))
            if len(chunk) >= _CATCHUP_CHUNK:
                replica.system.run_batch(chunk, core=0)
                chunk = []
        if chunk:
            replica.system.run_batch(chunk, core=0)
        replica._set_horizon(self.epoch, image_seq)
        return replica.apply_tail(replica.clock_ns, epoch=self.epoch)

    def try_go_live(self, replica: Replica, now_ns: float) -> Optional[float]:
        """One rejoin step: :meth:`resync`, then join the live set.

        Re-ships what the primary accepted since the replica's horizon
        (or copies the image when no delta can serve).  When the
        replica's clock has then rejoined the present it becomes a live
        :data:`BACKUP` and the method returns None; otherwise it
        returns the simulated instant to try again (the replica's
        clock) — the cluster schedules a wake there.
        """
        self.resync(replica, now_ns)
        if replica.clock_ns > now_ns + 1e-9:
            return replica.clock_ns
        replica.state = BACKUP
        replica.recoveries += 1
        self.rejoins += 1
        return None

    # -- verification ----------------------------------------------------------

    def live_projections(self) -> Dict[int, object]:
        """One durable projection per live replica, by index.

        The projection (clone + crash + recover, see
        :meth:`Replica.durable_projection`) is the expensive step of
        every verification pass, so callers compute this map *once*
        per pass and feed it to both :meth:`divergence_of` and the
        acked-write oracle — one scratch clone per replica instead of
        one per check.
        """
        return {
            r.index: r.durable_projection() for r in self.replicas if r.live
        }

    def divergence_of(self, projections: Dict[int, object]) -> Optional[str]:
        """Compare already-computed projections; None when identical.

        ``projections`` maps replica index to a durable projection (as
        from :meth:`live_projections`); fingerprints are taken over
        each replica's key slots, so the caller pays for the clones
        once per verification pass, not once per check.
        """
        prints: Dict[int, str] = {}
        for replica in self.replicas:
            projection = projections.get(replica.index)
            if projection is None:
                continue
            prints[replica.index] = keyspace_fingerprint(
                projection, replica.slot_addrs, replica.value_bytes
            )
        if len(set(prints.values())) <= 1:
            return None
        detail = ", ".join(
            f"replica {index}={fp[:12]}" for index, fp in sorted(prints.items())
        )
        return f"shard {self.shard_id} replicas diverged: {detail}"

    def divergence(self) -> Optional[str]:
        """Compare live replicas' durable keyspaces; None when identical.

        The divergence oracle: after every failover (and at the end of
        a run) all live replicas must project bit-identical keyspace
        content — acked or not, a replica chain that disagrees with
        itself is broken even if no promise was violated yet.
        """
        return self.divergence_of(self.live_projections())
