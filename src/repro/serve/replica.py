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

* the **primary** commits the data stores plus its log header in one
  failure-atomic transaction and logs no entry of its own — the
  scheme's commit (HOOP's out-of-place slices) already is the
  primary's durable redo copy, and nothing reads a second one;
* each **backup** appends the record to its own durable *replication
  log* as one failure-atomic transaction on its own machine, and
  applies the logged values to its home-region slots lazily (every
  ``apply_every`` batches) — the acked-visible state (the log) is
  decoupled from the in-place home region, the same split the
  out-of-place schemes make at machine scope;
* the acknowledgement instant is the **max** over the primary commit
  and every live backup's ship commit — synchronous replication by
  construction.

Failover is lease/epoch based and entirely deterministic in simulated
time: a primary kill starts a promotion at the old primary's lease
expiry; the freshest live backup (highest durably shipped sequence,
ties to the lowest replica index) replays its shipped-but-unapplied
tail, bumps the group epoch durably in its log header, reconciles any
backup that missed the final records, and serves.  The old primary
rejoins by catch-up: a full image copy from the new primary's durable
projection, then delta re-ships until its clock rejoins the present.
The replica lifecycle (``LEASED`` → ``PROMOTING`` → ``SERVING``-as-
``LEASED`` → ``REJOINING``) is documented for operators in
``docs/serving.md``.

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
from repro.snapshot import clone_state
from repro.telemetry.hub import Telemetry
from repro.txn.system import MemorySystem

_WORD = 8
# Log header: five u64 words at the head of a reserved cache line
# [magic, epoch, shipped_seq, applied_seq, write_off].
_HEADER_BYTES = 64
_MAGIC = 0x52504C4F47763101  # "RPLOGv1" + 0x01
# Entry framing: [seq, epoch, nstores] then per store [addr, nbytes].
_ENTRY_FIXED = 3 * _WORD
_STORE_FIXED = 2 * _WORD

# Replica lifecycle states (the failover state machine of
# docs/serving.md; SERVING is the steady half of LEASED).
LEASED = "leased"          # primary: holds the serving lease
BACKUP = "backup"          # live backup: receives synchronous ships
PROMOTING = "promoting"    # chosen backup replaying its shipped tail
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


def encode_entry(seq: int, epoch: int, stores: Sequence[Tuple[int, bytes]]) -> bytes:
    """Serialize one redo record as a word-aligned log entry.

    Layout: ``[seq, epoch, nstores]`` then per store ``[addr, nbytes]``
    followed by the value bytes.  Every field is a little-endian u64
    and every value a multiple of 8 bytes (the serve config enforces
    word-aligned slots), so an entry always lands on word boundaries —
    which is what lets the acked-write oracle treat a torn ship as
    ordinary word-granular staged state.  Pure function; no clocks.
    """
    parts = [
        seq.to_bytes(_WORD, "little"),
        epoch.to_bytes(_WORD, "little"),
        len(stores).to_bytes(_WORD, "little"),
    ]
    for addr, value in stores:
        if addr % _WORD or len(value) % _WORD:
            raise ValueError("redo records must be word-aligned")
        parts.append(addr.to_bytes(_WORD, "little"))
        parts.append(len(value).to_bytes(_WORD, "little"))
        parts.append(value)
    return b"".join(parts)


def decode_entries(buf: bytes) -> List[Tuple[int, int, List[Tuple[int, bytes]]]]:
    """Walk a byte range of consecutive entries back into redo records.

    Inverse of :func:`encode_entry` over a concatenation; returns
    ``[(seq, epoch, [(addr, value), ...]), ...]`` in log order.  The
    caller passes exactly ``entries_base .. write_off`` from a durable
    header, so framing is trusted (every entry was written by one
    failure-atomic transaction).  Pure function; no clocks.
    """
    out: List[Tuple[int, int, List[Tuple[int, bytes]]]] = []
    off = 0
    end = len(buf)
    while off + _ENTRY_FIXED <= end:
        seq = int.from_bytes(buf[off : off + _WORD], "little")
        epoch = int.from_bytes(buf[off + _WORD : off + 2 * _WORD], "little")
        nstores = int.from_bytes(
            buf[off + 2 * _WORD : off + 3 * _WORD], "little"
        )
        off += _ENTRY_FIXED
        stores: List[Tuple[int, bytes]] = []
        for _ in range(nstores):
            addr = int.from_bytes(buf[off : off + _WORD], "little")
            nbytes = int.from_bytes(buf[off + _WORD : off + 2 * _WORD], "little")
            off += _STORE_FIXED
            stores.append((addr, buf[off : off + nbytes]))
            off += nbytes
        out.append((seq, epoch, stores))
    return out


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
    """One member of a replication group: a machine plus its redo log.

    Replica 0 of a group boots as the primary (state :data:`LEASED`);
    the rest boot as :data:`BACKUP`.  With ``log_bytes == 0`` (an
    unreplicated R=0 group) no log region is allocated and the replica
    is bit-identical to the PR 7 single-machine shard, fault seed
    included.  All mutating methods advance only this machine's core-0
    clock; the volatile sequence mirrors (``shipped_seq`` etc.) are
    updated strictly *after* the backing transaction commits, so a
    power cut mid-commit leaves them truthful.
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
        telemetry: Telemetry,
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
        self.system = MemorySystem(config, scheme=scheme, telemetry=telemetry)
        self.shard_id = shard_id
        self.index = index
        self.value_bytes = value_bytes
        self.recovery_threads = recovery_threads
        self._slot = {key: i for i, key in enumerate(keys)}
        self.base = self.system.allocate(max(1, len(keys)) * value_bytes)
        self.slot_addrs = [
            self.base + i * value_bytes for i in range(len(self._slot))
        ]
        if log_bytes:
            self.log_base: Optional[int] = self.system.allocate(log_bytes)
            self.entries_base = self.log_base + _HEADER_BYTES
            self.log_limit = self.log_base + log_bytes
        else:
            self.log_base = None
            self.entries_base = 0
            self.log_limit = 0
        self.state = LEASED if index == 0 else BACKUP
        # Volatile mirrors of the durable log header (authoritative
        # copy lives in NVM; these track it transaction by transaction).
        self.epoch = 1
        self.shipped_seq = 0
        self.applied_seq = 0
        self.write_off = self.entries_base
        # Shipped-but-unapplied records, and the full history since the
        # last compaction (the delta catch-up source) with its encoded
        # size: a primary logs no entry, so that size, held to the
        # entry area's capacity, is what bounds its volatile list.
        self.tail: List[Tuple[int, List[Tuple[int, bytes]]]] = []
        self.entries: List[Tuple[int, int, List[Tuple[int, bytes]]]] = []
        self.history_bytes = 0
        self.recover_at_ns = 0.0
        self.kills = 0
        self.recoveries = 0
        self.acked = 0

    def addr_of(self, key: int) -> int:
        """Home-region address of one key's value slot."""
        return self.base + self._slot[key] * self.value_bytes

    @property
    def clock_ns(self) -> float:
        """This machine's service clock (core 0 does all the work)."""
        return self.system.clocks[0]

    @property
    def live(self) -> bool:
        """Is this replica serving or shippable (not dead/rejoining)?"""
        return self.state in (LEASED, BACKUP, PROMOTING)

    # -- log plumbing ----------------------------------------------------------

    def _header_bytes(
        self,
        *,
        epoch: Optional[int] = None,
        shipped: Optional[int] = None,
        applied: Optional[int] = None,
        write_off: Optional[int] = None,
    ) -> bytes:
        words = (
            _MAGIC,
            self.epoch if epoch is None else epoch,
            self.shipped_seq if shipped is None else shipped,
            self.applied_seq if applied is None else applied,
            self.write_off if write_off is None else write_off,
        )
        return b"".join(w.to_bytes(_WORD, "little") for w in words)

    def stage_primary_commit(
        self, seq: int, epoch: int, stores: Sequence[Tuple[int, bytes]]
    ) -> Tuple[Tuple[int, bytes], Callable[[], None]]:
        """Primary-side commit: the header store to fold into the data batch.

        Returns ``(header_store, commit)``: the header write to run
        *inside* the same batch transaction as the data, and a
        ``commit`` callback the caller invokes only after that
        transaction returns — a power cut mid-batch leaves the volatile
        mirrors untouched, matching whatever the durable header
        resolved to.  The primary applies data directly (``applied_seq
        == shipped_seq``) and every log reader acts only on records
        above the applied horizon, so it writes **no entry** and
        ``write_off`` stays put: the record is durable in the scheme's
        own commit and in every live backup's log.  It still joins the
        volatile ``entries`` history, emptied when its encoded size
        would outgrow the entry area (what the log wrap used to do).
        """
        header = self._header_bytes(epoch=epoch, shipped=seq, applied=seq)
        record = (seq, epoch, [(a, bytes(v)) for a, v in stores])
        # What encode_entry would produce, without encoding it.
        size = _ENTRY_FIXED + sum(_STORE_FIXED + len(v) for _, v in stores)

        def commit() -> None:
            if self.history_bytes + size > self.log_limit - self.entries_base:
                self.entries = []  # over budget: prior history is gone
                self.history_bytes = 0
            self.epoch = epoch
            self.shipped_seq = seq
            self.applied_seq = seq
            self.entries.append(record)
            self.history_bytes += size

        return (self.log_base, header), commit

    def receive_ship(
        self,
        seq: int,
        epoch: int,
        stores: Sequence[Tuple[int, bytes]],
        start_ns: float,
    ) -> float:
        """Backup-side append: durably log one shipped redo record.

        Runs one failure-atomic transaction (entry + header) on this
        machine starting no earlier than ``start_ns`` (the primary's
        commit instant — redo exists only after commit) and returns the
        ship's commit time, which joins the ack max.  The record lands
        in the volatile ``tail`` for a later :meth:`apply_tail`.
        Raises :class:`StaleEpochError` for a fenced-out epoch and
        propagates :class:`~repro.common.errors.PowerLossError` if this
        backup dies mid-ship (the entry is then all-or-nothing, like
        any transaction).
        """
        if epoch < self.epoch:
            raise StaleEpochError(
                f"replica {self.shard_id}/{self.index} at epoch "
                f"{self.epoch} refused ship from epoch {epoch}"
            )
        entry = encode_entry(seq, epoch, stores)
        if self.write_off + len(entry) > self.log_limit:
            self.apply_tail(start_ns, reset=True)
            start_ns = max(start_ns, self.clock_ns)
        at = self.write_off
        header = self._header_bytes(
            epoch=epoch, shipped=seq, write_off=at + len(entry)
        )
        self.system.clocks[0] = max(start_ns, self.clock_ns)
        self.system.run_batch([(at, entry), (self.log_base, header)], core=0)
        self.epoch = epoch
        self.shipped_seq = seq
        self.write_off = at + len(entry)
        record = [(a, bytes(v)) for a, v in stores]
        self.tail.append((seq, record))
        self.entries.append((seq, epoch, record))
        self.history_bytes += len(entry)
        return self.clock_ns

    def apply_tail(
        self,
        start_ns: float,
        *,
        epoch: Optional[int] = None,
        reset: bool = False,
    ) -> float:
        """Replay shipped-but-unapplied records into the home region.

        One failure-atomic transaction writes every tail record's words
        to their home slots and advances ``applied_seq`` to
        ``shipped_seq`` in the header — so a crash mid-apply leaves
        either the old tail (to be replayed again, idempotently) or the
        new applied horizon, never a half-applied mix.  ``epoch`` bumps
        the durable epoch in the same commit (promotion), ``reset``
        additionally wraps the write offset (compaction, discarding the
        volatile entry history).  Returns this machine's clock after
        the commit; a no-op tail without an epoch bump costs nothing.
        """
        if epoch is None and not self.tail and not reset:
            return self.clock_ns
        stores: List[Tuple[int, bytes]] = []
        for _, record in self.tail:
            stores.extend(record)
        write_off = self.entries_base if reset else None
        header = self._header_bytes(
            epoch=epoch, applied=self.shipped_seq, write_off=write_off
        )
        stores.append((self.log_base, header))
        self.system.clocks[0] = max(start_ns, self.clock_ns)
        self.system.run_batch(stores, core=0)
        if epoch is not None:
            self.epoch = epoch
        self.applied_seq = self.shipped_seq
        self.tail = []
        if reset:
            self.write_off = self.entries_base
            self.entries = []
            self.history_bytes = 0
        return self.clock_ns

    def entries_since(
        self, seq: int
    ) -> Optional[List[Tuple[int, int, List[Tuple[int, bytes]]]]]:
        """Redo records with sequence above ``seq``, or None on a gap.

        The delta catch-up source: ``None`` means compaction discarded
        a needed record and the caller must fall back to a full image
        copy.  Pure accessor; no clocks.
        """
        if seq >= self.shipped_seq:
            return []
        delta = [e for e in self.entries if e[0] > seq]
        expected = self.shipped_seq - seq
        if len(delta) != expected:
            return None
        return delta

    def reset_log(self, *, epoch: int, seq: int, start_ns: float) -> float:
        """Durably restamp the log after a full-image catch-up.

        One header transaction records the caught-up horizon: new
        epoch, ``shipped == applied == seq`` (the image already
        contains everything up to ``seq``), empty entry area.  Clears
        the volatile tail/history mirrors to match.  Returns the clock
        after the commit.
        """
        self.epoch = epoch
        self.shipped_seq = seq
        self.applied_seq = seq
        self.write_off = self.entries_base
        self.tail = []
        self.entries = []
        self.history_bytes = 0
        header = self._header_bytes()
        self.system.clocks[0] = max(start_ns, self.clock_ns)
        self.system.run_batch([(self.log_base, header)], core=0)
        return self.clock_ns

    def refresh_from_durable_log(self) -> None:
        """Rebuild the volatile mirrors from the durable log after a crash.

        Reads the recovered header and entry area via raw peeks (the
        recovery hold already charges the simulated cost of a log scan)
        and reconstructs ``tail`` as every logged record above the
        durable applied horizon — exactly what a promoted or resuming
        replica must replay.  A virgin header (no magic) resets to the
        empty-log state.  No-op for unreplicated replicas.
        """
        if self.log_base is None:
            return
        peek = self.system.device.peek
        raw = peek(self.log_base, _HEADER_BYTES)
        magic = int.from_bytes(raw[:_WORD], "little")
        if magic != _MAGIC:
            self.epoch = max(self.epoch, 1)
            self.shipped_seq = 0
            self.applied_seq = 0
            self.write_off = self.entries_base
            self.tail = []
            self.entries = []
            self.history_bytes = 0
            return
        self.epoch = int.from_bytes(raw[_WORD : 2 * _WORD], "little")
        self.shipped_seq = int.from_bytes(raw[2 * _WORD : 3 * _WORD], "little")
        self.applied_seq = int.from_bytes(raw[3 * _WORD : 4 * _WORD], "little")
        self.write_off = int.from_bytes(raw[4 * _WORD : 5 * _WORD], "little")
        span = (
            peek(self.entries_base, self.write_off - self.entries_base)
            if self.write_off > self.entries_base
            else b""
        )
        self.entries = decode_entries(span)
        self.history_bytes = len(span)
        self.tail = [
            (seq, record)
            for seq, _, record in self.entries
            if seq > self.applied_seq
        ]

    def durable_projection(self):
        """What this replica would serve after a crash, non-destructively.

        Clones the whole machine (copy-on-write snapshot engine),
        crashes and recovers the *clone*, replays the clone's durable
        shipped-but-unapplied tail through a real transaction, then
        crashes and recovers once more so the replayed words are
        in-place durable — a simulated promotion on a throwaway copy.
        The live machine is untouched: clocks, caches, and fault state
        all stay exactly as they were, preserving bit-identical
        replays.  Returns the projected clone for peeking.
        """
        clone = clone_state(self.system)
        clone.crash()
        clone.recover(threads=self.recovery_threads)
        if self.log_base is not None:
            peek = clone.device.peek
            raw = peek(self.log_base, _HEADER_BYTES)
            if int.from_bytes(raw[:_WORD], "little") == _MAGIC:
                applied = int.from_bytes(raw[3 * _WORD : 4 * _WORD], "little")
                write_off = int.from_bytes(
                    raw[4 * _WORD : 5 * _WORD], "little"
                )
                span = (
                    peek(self.entries_base, write_off - self.entries_base)
                    if write_off > self.entries_base
                    else b""
                )
                stores: List[Tuple[int, bytes]] = []
                for seq, _, record in decode_entries(span):
                    if seq > applied:
                        stores.extend(record)
                if stores:
                    clone.run_batch(stores, core=0)
                    clone.crash()
                    clone.recover(threads=self.recovery_threads)
        return clone

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
        apply_every: int = 4,
    ) -> None:
        self.shard_id = shard_id
        self.telemetry = telemetry
        self.apply_every = apply_every
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
                telemetry=telemetry,
                log_bytes=log,
                recovery_threads=recovery_threads,
            )
            for index in range(1 + replicas)
        ]
        self.primary_index = 0
        self.state = GROUP_UP
        self.epoch = 1
        self.next_seq = 1
        self.lease_expiry_ns = lease_ns
        self.promote_at_ns = 0.0
        self.promotions = 0
        self.rejoins = 0
        self.reconciled_records = 0

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

    @property
    def acked(self) -> int:
        """Requests acknowledged by this group (any primary)."""
        return sum(r.acked for r in self.replicas)

    def replication_lag(self) -> int:
        """Records shipped but not yet applied by the laggiest live backup."""
        live = self.live_backups()
        if not live:
            return 0
        return max(
            self.primary.shipped_seq - r.applied_seq for r in live
        )

    # -- the replicated commit path --------------------------------------------

    def commit_and_ship(
        self, stores: Sequence[Tuple[int, bytes]], core: int = 0
    ) -> ShipOutcome:
        """Commit one batch on the primary and ship its redo records.

        The primary's transaction carries the data stores plus its log
        header (one atomic commit, no entry of its own); each live
        backup then appends the record starting at the primary's commit
        instant (ships run in parallel across backups in simulated
        time).  The primary's clock is advanced to the ack instant —
        synchronous replication stalls the next batch until every live
        backup is durable.  A backup that dies mid-ship is returned in
        ``dead_backups`` (its entry all-or-nothing); a primary power
        cut propagates as :class:`~repro.common.errors.PowerLossError`
        with ``issued_stores`` annotated by ``run_batch``.  Backups
        whose tail reached ``apply_every`` apply it off the ack path.
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
        header, commit = primary.stage_primary_commit(seq, self.epoch, stores)
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
                if len(replica.tail) >= self.apply_every:
                    replica.apply_tail(replica.clock_ns)
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
        scheme replays its own logs), marks the replica :data:`DEAD`,
        and returns the simulated instant its hold expires — the
        recovery report's elapsed time floored at ``floor_ns``, after
        which the cluster drives the rejoin (or, for an unreplicated
        group, resumes serving).
        """
        replica.kills += 1
        system = replica.system
        system.crash()
        report = system.recover(threads=replica.recovery_threads)
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

        The successor replays its shipped-but-unapplied tail and bumps
        the epoch durably in the same commit (:data:`PROMOTING`), then
        every other live backup is reconciled — records the successor
        holds that they missed are re-shipped from its log (delta), or
        by a full image copy if compaction discarded them.  The group
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
        successor.state = PROMOTING
        successor.apply_tail(max(now_ns, successor.clock_ns), epoch=self.epoch)
        for other in self.live_backups():
            delta = successor.entries_since(other.shipped_seq)
            if delta is None:
                self.catch_up(other, now_ns, source=successor)
                continue
            for seq, _, record in delta:
                try:
                    other.receive_ship(
                        seq, self.epoch, record, max(now_ns, other.clock_ns)
                    )
                    self.reconciled_records += 1
                except PowerLossError:
                    # An armed cut on this backup fires during the
                    # reconcile ship; the cluster sweeps dead backups
                    # right after promotion.
                    break
        self.primary_index = successor.index
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
        again itself at a bumped epoch, its volatile log mirrors
        refreshed from the durable log it just recovered.
        """
        replica.refresh_from_durable_log()
        if self.replication_enabled:
            self.epoch += 1
            replica.apply_tail(now_ns, epoch=self.epoch)
            self.next_seq = replica.shipped_seq + 1
        replica.state = LEASED
        self.primary_index = replica.index
        self.state = GROUP_UP
        self.lease_expiry_ns = max(now_ns, replica.clock_ns) + self.lease_ns

    # -- rejoin ----------------------------------------------------------------

    def catch_up(
        self,
        replica: Replica,
        now_ns: float,
        *,
        source: Optional[Replica] = None,
    ) -> float:
        """Full-image catch-up of a rejoining replica from the primary.

        Copies the primary's durable projection of every key slot into
        the rejoiner in chunked failure-atomic transactions (the
        fuzzy-snapshot transfer runs off the primary's critical path —
        only the rejoiner's clock advances), then durably restamps the
        rejoiner's log at the image horizon.  Returns the rejoiner's
        clock after the copy; :meth:`try_go_live` then closes the gap
        for records shipped since the image was taken.
        """
        src = source if source is not None else self.primary
        image_seq = src.shipped_seq
        projection = src.durable_projection()
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
        return replica.reset_log(
            epoch=self.epoch, seq=image_seq, start_ns=replica.clock_ns
        )

    def try_go_live(self, replica: Replica, now_ns: float) -> Optional[float]:
        """Finish a rejoin: delta re-ship, then join the live set.

        Re-ships any records the primary accepted since the replica's
        horizon (``None`` gap falls back to another image copy).  When
        the replica is fully caught up *and* its clock has rejoined the
        present it becomes a live :data:`BACKUP` and the method returns
        None; otherwise it returns the simulated instant to try again
        (the replica's clock) — the cluster schedules a wake there.
        """
        delta = self.primary.entries_since(replica.shipped_seq)
        if delta is None:
            self.catch_up(replica, now_ns)
            return replica.clock_ns
        for seq, _, record in delta:
            replica.receive_ship(
                seq, self.epoch, record, max(now_ns, replica.clock_ns)
            )
        if replica.clock_ns > now_ns + 1e-9:
            return replica.clock_ns
        replica.state = BACKUP
        replica.recoveries += 1
        self.rejoins += 1
        return None

    # -- verification ----------------------------------------------------------

    def live_projections(self) -> Dict[int, object]:
        """One durable projection per live replica, by index.

        The projection (clone + crash + recover + tail replay, see
        :meth:`Replica.durable_projection`) is the expensive step of
        every verification pass, so callers compute this map *once*
        per pass and feed it to both :meth:`divergence_of` and the
        acked-write oracle — one scratch clone per replica instead of
        one per check.
        """
        return {
            r.index: r.durable_projection() for r in self.replicas if r.live
        }

    def live_fingerprints(self) -> Dict[int, str]:
        """Durable keyspace fingerprint of every live replica, by index."""
        return {
            r.index: r.fingerprint() for r in self.replicas if r.live
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
