"""Replication groups: redo shipping, promotion, rejoin, divergence."""

import functools
import json
import random
import sys
from unittest import mock

import pytest

from repro.common.errors import ConfigError, PowerLossError
from repro.serve import SERVABLE_SCHEMES, ServeConfig, run_serve
from repro.serve import cluster as cluster_module
from repro.serve.__main__ import build_parser
from repro.serve.cluster import ServeCluster
from repro.serve.oracle import AckOracle
from repro.serve.replica import (
    BACKUP,
    LEASED,
    Replica,
    ReplicationGroup,
    StaleEpochError,
    keyspace_fingerprint,
)
from repro.snapshot import clone_state
from repro.telemetry.hub import Telemetry
from repro.txn.system import MemorySystem


def tiny_cfg(**overrides):
    base = dict(
        shards=2,
        clients=3,
        rate_per_s=30_000.0,
        duration_ms=4.0,
        keyspace=512,
        seed=13,
    )
    base.update(overrides)
    return ServeConfig(**base)


# The r1-write-heavy-failover golden shape, with the deposed primary held
# down 0.7 ms: it comes back after the promotion, 29 records behind.
WRITE_HEAVY_LATE_REJOIN = ServeConfig(
    shards=4, replicas=1, read_fraction=0.1, rate_per_s=1.6e6,
    duration_ms=1.5, lease_us=500.0, queue_depth=256, kill_shard=1,
    kill_primary_at_ms=0.5, torn_kill=True, recovery_floor_ns=700_000.0,
)


def late_rejoin_cluster(hub, log_bytes):
    """That shape on groups whose record history is ``log_bytes`` deep."""
    with mock.patch.object(
        cluster_module,
        "ReplicationGroup",
        functools.partial(ReplicationGroup, log_bytes=log_bytes),
    ):
        return ServeCluster(WRITE_HEAVY_LATE_REJOIN, telemetry=hub)


def make_group(replicas=1, **overrides):
    kwargs = dict(
        scheme="hoop",
        keys=list(range(16)),
        value_bytes=64,
        seed=21,
        telemetry=Telemetry(),
        replicas=replicas,
    )
    kwargs.update(overrides)
    return ReplicationGroup(0, **kwargs)


def rejoin(group, replica):
    """Drive one recovered replica back to BACKUP; which way it started."""
    mode = "image" if group.delta_for(replica) is None else "delta"
    now = max(r.clock_ns for r in group.replicas)
    while (retry := group.try_go_live(replica, now)) is not None:
        now = retry
    assert replica.state == BACKUP
    return mode


def header_of(replica):
    """(epoch, seq) as the durable header reads after a crash + recovery.

    A machine that has just recovered is peeked as it is; a running one
    (hoop keeps its latest commits out of place) through its projection.
    """
    machine = replica.durable_projection() if replica.live else replica.system
    raw = machine.device.peek(replica.log_base, 24)
    magic, epoch, seq = (
        int.from_bytes(raw[i : i + 8], "little") for i in (0, 8, 16)
    )
    assert magic == 0x52504C4F47763101
    return epoch, seq


def assert_projections_equal(group, model):
    """Every slot of every live replica's projection equals the model."""
    live = [r for r in group.replicas if r.live]
    assert live
    for replica in live:
        peek = replica.durable_projection().device.peek
        size = replica.value_bytes
        for addr in replica.slot_addrs:
            assert peek(addr, size) == model.get(addr, bytes(size)), (
                replica.index, addr
            )


class Driver:
    """Random batches through a group, folded into a model and an oracle.

    The model is ``{addr: value}`` over every record ``commit_and_ship``
    *returned* — stricter than the acked-write oracle, because
    :func:`assert_projections_equal` holds every slot of every live
    replica to it, acked or never written.
    """

    def __init__(self, group, seed=5):
        self.group = group
        self.rng = random.Random(seed)
        self.model = {}
        self.oracle = AckOracle()
        self.keys = len(group.primary.slot_addrs)

    def drive(self, batches):
        rng = self.rng
        for _ in range(batches):
            primary = self.group.primary
            keys = rng.sample(range(self.keys), rng.randint(1, 8))
            stores = [
                (primary.addr_of(key), bytes([rng.randrange(1, 256)]) * 64)
                for key in keys
            ]
            self.group.commit_and_ship(stores)
            self.model.update(stores)
            for addr, value in stores:
                self.oracle.record_ack(addr, value)

    def failures(self):
        """Divergence plus acked-write failures over the live replicas."""
        group = self.group
        projections = group.live_projections()
        found = [group.divergence_of(projections)] + [
            self.oracle.verify_replica(projection, index)
            for index, projection in projections.items()
        ]
        return [failure for failure in found if failure]


class TestLogCodec:
    def test_rejects_unaligned_records(self):
        # The check lives where a record enters a replica, so it runs
        # on the primary's commit and on a backup's ship alike, before
        # either machine is touched.
        group = make_group(replicas=1)
        primary, backup = group.replicas
        addr = primary.addr_of(0)
        for stores in ([(addr + 1, b"x" * 8)], [(addr, b"x" * 7)]):
            with pytest.raises(ValueError, match="word-aligned"):
                group.commit_and_ship(stores)
            with pytest.raises(ValueError, match="word-aligned"):
                backup.receive_ship(1, 1, stores, 0.0)
        assert [r.system.committed_transactions for r in group.replicas] == [
            0, 0
        ]
        assert group.next_seq == 1


class TestReplicationGroup:
    def test_synchronous_ship_reaches_every_backup(self):
        group = make_group(replicas=2)
        addr = group.primary.addr_of(3)
        outcome = group.commit_and_ship([(addr, b"\x5a" * 64)])
        assert outcome.tx is not None
        assert not outcome.dead_backups
        # The ack waited for every backup's durable ship commit.
        assert outcome.ack_ns >= outcome.tx.end_ns
        for backup in group.backups():
            assert backup.shipped_seq == 1
            # Committed at ship time: durable there with nothing pending.
            assert backup.system.committed_transactions == 1
            assert backup.durable_projection().device.peek(addr, 64) == (
                b"\x5a" * 64
            )

    def test_ack_is_max_of_primary_and_ship_commits(self):
        group = make_group(replicas=1)
        addr = group.primary.addr_of(0)
        outcome = group.commit_and_ship([(addr, b"\x01" * 64)])
        backup = group.backups()[0]
        assert outcome.ack_ns == max(outcome.tx.end_ns, backup.clock_ns)
        # Synchronous replication: the primary stalls to the ack.
        assert group.primary.clock_ns == outcome.ack_ns

    def test_stale_epoch_ship_is_fenced(self):
        group = make_group(replicas=1)
        backup = group.backups()[0]
        addr = group.primary.addr_of(0)
        group.commit_and_ship([(addr, b"\x01" * 64)])
        backup.epoch = 5
        with pytest.raises(StaleEpochError):
            backup.receive_ship(9, 4, [(addr, b"\x02" * 64)], 0.0)

    def test_projection_fingerprints_match_across_replicas(self):
        group = make_group(replicas=2)
        for key in range(8):
            addr = group.primary.addr_of(key)
            group.commit_and_ship([(addr, bytes([key + 1]) * 64)])
        prints = group.live_fingerprints()
        assert len(set(prints.values())) == 1
        assert group.divergence() is None

    def test_divergence_detects_a_rogue_record(self):
        group = make_group(replicas=1)
        addr = group.primary.addr_of(0)
        group.commit_and_ship([(addr, b"\x07" * 64)])
        backup = group.backups()[0]
        # Durably commit a record the primary never shipped: the
        # backup's projected keyspace now disagrees with the primary's.
        backup.receive_ship(
            2, group.epoch, [(addr, b"\xff" * 64)], backup.clock_ns
        )
        failure = group.divergence()
        assert failure is not None and "diverged" in failure

    def test_log_compaction_keeps_shipping(self):
        # A budget that holds only a few records restarts the volatile
        # history mid-stream on both replicas; shipping must survive
        # and replicas must stay bit-identical.
        group = make_group(replicas=1, log_bytes=4096)
        for i in range(24):
            addr = group.primary.addr_of(i % 16)
            outcome = group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
            assert not outcome.dead_backups
        assert group.divergence() is None

    def test_promotion_is_one_header_only_transaction(self):
        group = make_group(replicas=1)
        values = {}
        for key in range(8):
            addr = group.primary.addr_of(key)
            value = bytes([0x40 + key]) * 64
            values[addr] = value
            group.commit_and_ship([(addr, value)])
        backup = group.backups()[0]
        for gone in ("tail", "applied_seq", "write_off"):
            assert not hasattr(backup, gone)
        old_epoch = group.epoch
        committed = backup.system.committed_transactions
        with mock.patch.object(
            MemorySystem, "run_batch", autospec=True,
            side_effect=MemorySystem.run_batch,
        ) as run_batch:
            promoted = group.promote(group.primary.clock_ns)
        assert promoted is backup
        assert promoted.state == LEASED
        assert group.epoch == promoted.epoch == old_epoch + 1
        # Nothing to replay: the one commit is the epoch bump.
        assert backup.system.committed_transactions == committed + 1
        ((system, stores), _), = run_batch.call_args_list
        assert system is backup.system
        assert [addr for addr, _ in stores] == [backup.log_base]
        # Every acked value is durable on the new primary (hoop keeps
        # commits out-of-place, so judge via the crash+recover
        # projection, not a raw home-region peek).
        projection = promoted.durable_projection()
        for addr, value in values.items():
            assert projection.device.peek(addr, 64) == value

    def test_freshest_backup_wins_ties_to_lowest_index(self):
        group = make_group(replicas=2)
        addr = group.primary.addr_of(0)
        group.commit_and_ship([(addr, b"\x01" * 64)])
        a, b = group.backups()
        assert group.choose_successor() is a  # tie -> lowest index
        b.shipped_seq += 1  # b is fresher now
        assert group.choose_successor() is b

    def test_rejoin_catch_up_is_bit_identical(self):
        group = make_group(replicas=2)
        for key in range(12):
            addr = group.primary.addr_of(key)
            group.commit_and_ship([(addr, bytes([key + 1]) * 64)])
        victim = group.replicas[1]
        never_crashed = group.replicas[2]
        group.begin_replica_recovery(
            victim, group.primary.clock_ns, floor_ns=0.0
        )
        # More traffic lands while the victim is dead.
        for key in range(12, 16):
            addr = group.primary.addr_of(key)
            group.commit_and_ship([(addr, bytes([key + 1]) * 64)])
        group.catch_up(victim, victim.recover_at_ns)
        retry = group.try_go_live(victim, max(victim.clock_ns, 1e12))
        assert retry is None
        assert victim.state == BACKUP
        assert victim.fingerprint() == never_crashed.fingerprint()
        assert group.divergence() is None

    def test_primary_logs_no_entry_and_refreshes_to_its_header(self):
        # The durable log is the header line and nothing else: 24 live
        # bytes, however many batches went through it.
        group = make_group(replicas=1, log_bytes=4096)
        primary = group.primary
        for i in range(24):
            addr = primary.addr_of(i % 16)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        assert (primary.epoch, primary.shipped_seq) == (1, 24)
        primary.system.crash()
        primary.system.recover(threads=primary.recovery_threads)
        primary.refresh_from_durable_log()
        assert (primary.epoch, primary.shipped_seq) == (1, 24)
        assert primary.entries == [] and primary.history_bytes == 0
        assert primary.system.device.peek(primary.log_base + 24, 40) == bytes(
            40
        )

    def test_backup_refreshes_to_its_header_with_no_history(self):
        group = make_group(replicas=1)
        backup = group.backups()[0]
        for i in range(5):
            addr = group.primary.addr_of(i)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        assert [seq for seq, _, _ in backup.entries] == [1, 2, 3, 4, 5]
        survivor_print = group.primary.fingerprint()
        backup.system.crash()
        backup.system.recover(threads=backup.recovery_threads)
        backup.epoch = backup.shipped_seq = -1  # must come from the header
        backup.refresh_from_durable_log()
        assert (backup.epoch, backup.shipped_seq) == (1, 5)
        assert backup.entries == [] and backup.history_bytes == 0
        assert backup.entries_since(3) is None  # the history died with it
        assert backup.entries_since(5) == []
        assert backup.fingerprint() == survivor_print

    def test_promoted_backup_refreshes_without_replaying_twice(self):
        # Backup-era and primary-era batches write the same keys, so a
        # backup-era record replayed after the crash would show up as a
        # stale value in the fingerprint.
        group = make_group(replicas=2)
        for i in range(7):
            addr = group.primary.addr_of(i % 4)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        group.begin_replica_recovery(
            group.primary, group.primary.clock_ns, floor_ns=0.0
        )
        promoted = group.promote(group.replicas[1].clock_ns)
        survivor = group.replicas[2]
        assert promoted.index == 1
        for i in range(7, 12):
            addr = promoted.addr_of(i % 4)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        promoted.system.crash()
        promoted.system.recover(threads=promoted.recovery_threads)
        promoted.refresh_from_durable_log()
        assert (promoted.epoch, promoted.shipped_seq) == (2, 12)
        assert promoted.entries == []
        assert promoted.fingerprint() == survivor.fingerprint()

    def test_primary_history_is_bounded_and_a_gap_forces_an_image_copy(self):
        # 4096-byte budget less the header line: 4032 bytes, 104 per
        # one-store record, so the volatile history restarts every 38
        # batches — the batch counts at which an on-NVM log wrapped.
        group = make_group(replicas=1, log_bytes=4096)
        primary, victim = group.replicas
        group.commit_and_ship([(primary.addr_of(0), b"\x01" * 64)])
        group.begin_replica_recovery(victim, primary.clock_ns, floor_ns=0.0)
        longest = 0
        for i in range(1, 100):
            addr = primary.addr_of(i % 16)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
            longest = max(longest, len(primary.entries))
            assert primary.history_bytes == 104 * len(primary.entries)
        assert longest == 38
        assert [seq for seq, _, _ in primary.entries][0] == 77
        assert primary.entries_since(victim.shipped_seq) is None
        # On the lineage, but the history no longer reaches back: image.
        assert group.on_lineage(victim) and group.delta_for(victim) is None
        with mock.patch.object(
            group, "catch_up", wraps=group.catch_up
        ) as catch_up:
            retry = group.try_go_live(victim, max(victim.clock_ns, 1e12))
            assert catch_up.call_count == 1
            assert retry == victim.clock_ns  # image copied; go live next
            assert group.try_go_live(victim, victim.clock_ns) is None
        assert victim.state == BACKUP
        assert group.divergence() is None


    def test_backup_history_is_bounded_the_same_way(self):
        # A backup's history is built by receive_ship; once promoted it
        # is the delta source, and a rejoiner below its restart point
        # has to take the image.
        group = make_group(replicas=2, log_bytes=4096)
        old_primary, successor, victim = group.replicas
        group.commit_and_ship([(old_primary.addr_of(0), b"\x01" * 64)])
        group.begin_replica_recovery(
            victim, old_primary.clock_ns, floor_ns=0.0
        )
        for i in range(1, 100):
            addr = old_primary.addr_of(i % 16)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
            assert successor.history_bytes == 104 * len(successor.entries)
            assert len(successor.entries) <= 38
        assert [seq for seq, _, _ in successor.entries][0] == 77
        group.begin_replica_recovery(
            old_primary, old_primary.clock_ns, floor_ns=0.0
        )
        assert group.promote(successor.clock_ns) is successor
        assert successor.entries_since(victim.shipped_seq) is None
        assert group.on_lineage(victim) and group.delta_for(victim) is None
        with mock.patch.object(
            group, "catch_up", wraps=group.catch_up
        ) as catch_up:
            retry = group.try_go_live(victim, max(victim.clock_ns, 1e12))
            assert catch_up.call_count == 1
            assert retry == victim.clock_ns
            assert group.try_go_live(victim, victim.clock_ns) is None
        assert victim.state == BACKUP
        assert group.divergence() is None

    @pytest.mark.parametrize("torn", [False, True])
    @pytest.mark.parametrize("after_writes", [0, 2, 4])
    def test_backup_cut_mid_ship_is_all_or_nothing_and_rejoins(
        self, after_writes, torn
    ):
        group = make_group(replicas=1)
        primary, backup = group.replicas
        addrs = [primary.addr_of(key) for key in range(4)]
        group.commit_and_ship([(addr, b"\x01" * 64) for addr in addrs])
        backup.system.device.injector.arm_power_loss(
            after_writes=after_writes, torn=torn
        )
        outcome = group.commit_and_ship(
            [(addr, b"\x02" * 64) for addr in addrs]
        )
        assert outcome.dead_backups == [backup]
        assert outcome.ack_ns == outcome.tx.end_ns  # nobody left to wait for
        assert backup.shipped_seq == 1  # mirrors untouched by the cut
        group.begin_replica_recovery(backup, primary.clock_ns, floor_ns=0.0)
        peek = backup.system.device.peek
        seen = {peek(addr, 64) for addr in addrs}
        assert seen in ({b"\x01" * 64}, {b"\x02" * 64})
        assert backup.shipped_seq == (2 if seen == {b"\x02" * 64} else 1)
        group.commit_and_ship([(addrs[0], b"\x03" * 64)])
        # It keeps its own prefix and is re-shipped only what it missed.
        assert len(group.delta_for(backup)) == 3 - backup.shipped_seq
        assert rejoin(group, backup) == "delta"
        assert group.divergence() is None

    def test_every_slot_equals_the_model_across_two_failovers(self):
        # Stricter than the acked-write oracle: the model is every
        # record commit_and_ship returned, and the whole keyspace of
        # every live replica has to equal it, acked or never written.
        group = make_group(replicas=2)
        driver = Driver(group, seed=1234)
        drive, model = driver.drive, driver.model

        def cut_primary_mid_batch():
            primary = group.primary
            primary.system.device.injector.arm_power_loss(
                after_writes=1, torn=True
            )
            with pytest.raises(PowerLossError):
                group.commit_and_ship(
                    [(primary.addr_of(k), b"\xee" * 64) for k in range(6)]
                )
            group.begin_replica_recovery(
                primary, primary.clock_ns, floor_ns=0.0
            )
            return primary

        drive(20)
        assert_projections_equal(group, model)
        deposed = cut_primary_mid_batch()
        promoted = group.promote(deposed.clock_ns)
        assert promoted.index == 1
        assert_projections_equal(group, model)
        drive(10)
        assert rejoin(group, deposed) == "delta"
        assert [r.live for r in group.replicas] == [True, True, True]
        assert_projections_equal(group, model)
        drive(10)
        assert cut_primary_mid_batch() is promoted
        group.promote(promoted.clock_ns)
        assert (group.epoch, group.promotions) == (3, 2)
        assert [r.live for r in group.replicas] == [True, False, True]
        drive(10)
        assert_projections_equal(group, model)
        assert group.divergence() is None


def cut_primary_at_every_boundary(scheme, torn):
    """Kill the primary at each timed write of one replicated batch.

    Yields ``(driver, deposed, durable)`` per boundary, after the
    promotion and a few batches the deposed primary then misses;
    ``durable`` says whether the cut batch — which raised, so it was
    never shipped nor acked — reached the deposed primary's header.
    Stops at the first budget the batch survives.
    """
    boundary = 0
    while True:
        group = make_group(replicas=1, scheme=scheme)
        driver = Driver(group)
        driver.drive(6)
        deposed = group.primary
        deposed.system.device.injector.arm_power_loss(
            after_writes=boundary, torn=torn
        )
        try:
            group.commit_and_ship(
                [(deposed.addr_of(key), b"\xee" * 64) for key in range(6)]
            )
        except PowerLossError:
            pass
        else:
            return
        group.begin_replica_recovery(deposed, deposed.clock_ns, floor_ns=0.0)
        assert (deposed.epoch, deposed.shipped_seq) == header_of(deposed)
        durable = deposed.shipped_seq == 7
        assert durable or deposed.shipped_seq == 6
        group.promote(deposed.clock_ns)
        driver.drive(3)
        yield driver, deposed, durable
        boundary += 1


class TestRejoinPaths:
    """Delta first; the image only off the lineage or behind the history."""

    @pytest.mark.parametrize("scheme", ["hoop", "lad"])
    @pytest.mark.parametrize("torn", [False, True])
    def test_mirrors_follow_the_durable_header_from_recovery(
        self, scheme, torn
    ):
        # A backup cut at every timed write of one ship: what it
        # recovers is what its header names, and its volatile history
        # died with it — whatever the mirrors said when the ship raised.
        turned_durable = 0
        for boundary in range(64):
            group = make_group(replicas=1, scheme=scheme)
            primary, backup = group.replicas
            addrs = [primary.addr_of(key) for key in range(4)]
            group.commit_and_ship([(addr, b"\x01" * 64) for addr in addrs])
            backup.system.device.injector.arm_power_loss(
                after_writes=boundary, torn=torn
            )
            outcome = group.commit_and_ship(
                [(addr, b"\x02" * 64) for addr in addrs]
            )
            if not outcome.dead_backups:
                break
            assert (backup.shipped_seq, len(backup.entries)) == (1, 1)
            group.begin_replica_recovery(
                backup, primary.clock_ns, floor_ns=0.0
            )
            assert (backup.epoch, backup.shipped_seq) == header_of(backup)
            assert backup.entries == [] and backup.history_bytes == 0
            turned_durable += backup.shipped_seq == 2
            assert rejoin(group, backup) == "delta"
            assert group.divergence() is None
        assert boundary > 0
        if scheme == "lad":
            # The battery drains the ship although it raised: the
            # header reads seq 2 under a mirror that said 1.
            assert turned_durable

    @pytest.mark.parametrize("scheme", ["hoop", "lad", "opt-redo"])
    @pytest.mark.parametrize("torn", [False, True])
    def test_primary_cut_at_every_boundary_of_a_batch(self, scheme, torn):
        modes = set()
        for driver, deposed, durable in cut_primary_at_every_boundary(
            scheme, torn
        ):
            group = driver.group
            # Off the lineage exactly when the unshipped batch is durable.
            assert group.on_lineage(deposed) == (not durable)
            mode = rejoin(group, deposed)
            assert mode == ("image" if durable else "delta")
            modes.add(mode)
            assert driver.failures() == []
            assert_projections_equal(group, driver.model)
            driver.drive(2)
            assert_projections_equal(group, driver.model)
        # Both paths are taken: lad's battery-backed drain makes the cut
        # batch durable, the others lose it at (nearly) every boundary.
        assert ("image" if scheme == "lad" else "delta") in modes

    @pytest.mark.parametrize("torn", [False, True])
    def test_always_on_lineage_mutant_is_caught(self, torn):
        # The seeded mutant (cf. repro.check.mutant): skip the image
        # whenever the history reaches back.  The deposed lad primary
        # then keeps a batch no other replica ever saw, and both the
        # divergence fingerprints and the acked-write oracle say so.
        caught = 0
        with mock.patch.object(
            ReplicationGroup, "on_lineage", lambda self, replica: True
        ):
            for driver, deposed, durable in cut_primary_at_every_boundary(
                "lad", torn
            ):
                assert rejoin(driver.group, deposed) == "delta"
                failures = driver.failures()
                assert bool(failures) == durable
                caught += any("diverged" in f for f in failures)
        assert caught

    @pytest.mark.parametrize("mode", ["delta", "image"])
    def test_rejoiner_killed_at_every_boundary_of_its_rejoin(self, mode):
        # 160 slots: an image is three chunked transactions and the
        # restamp, so a cut can leave part of it behind.  A 4 KB budget
        # restarts the history while the victim is down (image); the
        # default one keeps all 12 missed records (delta).
        second_modes = set()
        for boundary in range(0, 400, 3):
            group = make_group(
                replicas=1,
                keys=list(range(160)),
                log_bytes=4096 if mode == "image" else 1 << 20,
            )
            driver = Driver(group)
            driver.drive(10)
            victim = group.backups()[0]
            group.begin_replica_recovery(
                victim, group.primary.clock_ns, floor_ns=0.0
            )
            driver.drive(12)
            before = header_of(victim)
            victim.system.device.injector.arm_power_loss(
                after_writes=boundary, torn=bool(boundary % 2)
            )
            try:
                assert rejoin(group, victim) == mode
            except PowerLossError:
                pass
            else:
                break
            group.begin_replica_recovery(
                victim, group.primary.clock_ns, floor_ns=0.0
            )
            # No extra state: the header names the old horizon, a
            # horizon part of the way through the delta, or the image's.
            assert before[1] <= victim.shipped_seq <= 22
            driver.drive(2)
            second_modes.add(rejoin(group, victim))
            assert driver.failures() == []
            assert_projections_equal(group, driver.model)
        assert boundary > 0
        # A delta killed part-way resumes as a delta; an image killed
        # anywhere before its restamp commits is taken again.
        assert second_modes == {mode}

    def test_backup_down_across_two_promotions_rejoins_by_delta(self):
        group = make_group(replicas=2)
        driver = Driver(group)
        driver.drive(5)
        first, second, sleeper = group.replicas
        group.begin_replica_recovery(sleeper, first.clock_ns, floor_ns=0.0)
        driver.drive(4)
        group.begin_replica_recovery(first, first.clock_ns, floor_ns=0.0)
        assert group.promote(first.clock_ns) is second
        driver.drive(3)
        # The sleeper's header still reads epoch 1; epoch 2 began at 9.
        assert header_of(sleeper) == (1, 5)
        assert group._epoch_starts == [(2, 9)]
        assert len(group.delta_for(sleeper)) == 7
        assert rejoin(group, sleeper) == "delta"
        assert header_of(sleeper) == (2, 12)
        driver.drive(2)
        group.begin_replica_recovery(second, second.clock_ns, floor_ns=0.0)
        assert group.promote(second.clock_ns) is sleeper
        assert group._epoch_starts == [(2, 9), (3, 14)]
        driver.drive(3)
        # Two epochs behind, both deposed primaries are still prefixes.
        assert header_of(first) == (1, 9) and header_of(second) == (2, 14)
        for deposed in (first, second):
            assert rejoin(group, deposed) == "delta"
        assert driver.failures() == []
        assert_projections_equal(group, driver.model)

    def test_off_lineage_survives_a_later_promotion(self):
        # Judged against the first epoch after its own, not the latest:
        # a lad primary deposed at epoch 1 with an unshipped batch is
        # still off the lineage after epoch 3 has begun well past it.
        driver, deposed, durable = next(
            cut_primary_at_every_boundary("lad", False)
        )
        assert durable
        group = driver.group
        promoted = group.primary
        group.begin_replica_recovery(promoted, promoted.clock_ns, floor_ns=0.0)
        group.resume_solo(promoted, promoted.clock_ns)
        assert group._epoch_starts == [(2, 6), (3, 9)]
        assert deposed.shipped_seq == 7 and not group.on_lineage(deposed)
        assert rejoin(group, deposed) == "image"
        assert driver.failures() == []
        assert_projections_equal(group, driver.model)

    @pytest.mark.parametrize("mode", ["delta", "image"])
    def test_shard_recovers_a_rejoiner_cut_mid_rejoin(self, mode):
        # The serving loop's side of the same schedule: the deposed
        # primary comes back 0.7 ms later, 29 records behind, and is cut
        # ten timed writes into its rejoin.
        class CutOnFirstRejoin(Telemetry):
            cluster = None

            def emit(self, ts_ns, kind, track="sim", payload=None):
                super().emit(ts_ns, kind, track, payload)
                if kind == "rejoin_begin" and self.cluster is not None:
                    group = self.cluster.groups[payload["shard"]]
                    rejoiner = group.replicas[payload["replica"]]
                    rejoiner.system.device.injector.arm_power_loss(
                        after_writes=10, torn=True
                    )
                    self.cluster = None

        hub = CutOnFirstRejoin()
        cluster = late_rejoin_cluster(
            hub, 4096 if mode == "image" else 1 << 20
        )
        hub.cluster = cluster
        cluster.run()
        marks = [
            (kind, payload.get("mode"))
            for _, kind, _, payload in hub.events
            if kind in ("rejoin_begin", "backup_kill", "rejoin_complete")
        ]
        assert marks[0] == ("rejoin_begin", mode)
        assert marks[1] == ("backup_kill", None)
        assert [kind for kind, _ in marks[2:]] == [
            "rejoin_begin", "rejoin_complete"
        ]
        assert cluster.oracle_failures == []
        assert all(r.live for g in cluster.groups.values() for r in g.replicas)

    def test_image_fallback_keeps_on_demand_gc_covered(self):
        # The image copy was the only thing that fired on-demand GC in a
        # replicated run, and a failover no longer takes it.  Force it —
        # a 4 KB history behind a 0.7 ms outage — on the write-heavy
        # golden shape, and pin the simulated counts of the path: GC
        # migration, slice flush and the batched home writes.
        hub = Telemetry()
        cluster = late_rejoin_cluster(hub, 4096)
        cluster.run()
        assert cluster.oracle_failures == []
        (begin,) = (
            payload for _, kind, _, payload in hub.events
            if kind == "rejoin_begin"
        )
        assert (begin["mode"], begin["records"]) == ("image", 0)
        assert hub.counters["serve.rejoin_images"] == 1
        rejoiner = cluster.groups[1].replicas[0]
        assert rejoiner.live and cluster.groups[1].primary_index == 1
        gc = rejoiner.system.scheme.controller.gc.stats
        assert (gc.on_demand_passes, gc.words_migrated) == (2, 7168)
        assert rejoiner.system.device.stats.bytes_written == 212_368
        assert sum(
            r.system.scheme.controller.gc.stats.on_demand_passes
            for g in cluster.groups.values() for r in g.replicas
        ) == 2
        assert cluster.acked_puts == 2164

    def test_benchmark_config_repeats_byte_for_byte(self):
        # perf/workloads.py::ServeReplicated, seed 7.
        cfg = ServeConfig(
            shards=4, replicas=1, read_fraction=0.1, rate_per_s=1.6e6,
            duration_ms=3.0, lease_us=500.0, queue_depth=256, kill_shard=1,
            kill_primary_at_ms=1.2, torn_kill=True, seed=7,
        )
        first, second = (
            json.dumps(run_serve(cfg).to_dict(), sort_keys=True)
            for _ in range(2)
        )
        assert first == second
        report = json.loads(first)
        assert report["oracle_failures"] == []
        assert (report["promotions"], report["rejoins"]) == (1, 1)


class TestReplicatedServeConfig:
    def test_backup_kill_requires_replicas(self):
        with pytest.raises(ConfigError):
            tiny_cfg(kill_backup_at_ms=1.0)

    def test_double_kill_requires_first_kill(self):
        with pytest.raises(ConfigError):
            tiny_cfg(replicas=1, double_kill_at_ms=2.0)

    def test_replica_count_is_bounded(self):
        with pytest.raises(ConfigError):
            tiny_cfg(replicas=5)
        with pytest.raises(ConfigError):
            tiny_cfg(replicas=-1)

    def test_apply_every_is_gone(self, capsys):
        with pytest.raises(TypeError, match="apply_every"):
            tiny_cfg(replicas=1, apply_every=4)
        with pytest.raises(TypeError, match="apply_every"):
            make_group(replicas=1, apply_every=4)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--apply-every", "4"])
        err = capsys.readouterr().err
        assert "unrecognized arguments: --apply-every" in err


class TestReplicatedEndToEnd:
    def test_replicated_run_is_deterministic(self):
        cfg = tiny_cfg(replicas=1, kill_primary_at_ms=1.5)
        assert run_serve(cfg).to_dict() == run_serve(cfg).to_dict()

    def test_clean_replicated_run_ships_everything(self):
        report = run_serve(tiny_cfg(replicas=1))
        assert report.clean
        assert report.replicas == 1
        assert report.replication["records_shipped"] > 0
        assert report.promotions == 0
        # Final sweep: one divergence check per shard, plus every
        # replica's projection verified against the full ack history.
        assert report.divergence_checks == 2
        assert report.oracle_verifications == 4

    @pytest.mark.parametrize("scheme", SERVABLE_SCHEMES)
    @pytest.mark.parametrize("torn", [False, True])
    def test_kill_primary_promotes_and_loses_nothing(self, scheme, torn):
        report = run_serve(
            tiny_cfg(
                scheme=scheme,
                replicas=1,
                kill_primary_at_ms=1.5,
                torn_kill=torn,
            )
        )
        assert report.clean, report.oracle_failures
        assert report.kills == 1
        assert report.promotions == 1
        assert report.rejoins == 1
        assert report.per_shard["0"]["epoch"] == 2
        assert report.per_shard["0"]["primary"] == 1

    def test_kill_backup_never_stalls_serving(self):
        report = run_serve(
            tiny_cfg(replicas=1, kill_backup_at_ms=1.5, torn_kill=True)
        )
        assert report.clean, report.oracle_failures
        assert report.backup_kills == 1
        assert report.promotions == 0  # the primary never lost its lease
        assert report.rejoins == 1
        assert report.acked_puts + report.acked_gets == report.admitted

    def test_double_kill_promotes_twice(self):
        report = run_serve(
            tiny_cfg(
                replicas=2,
                kill_primary_at_ms=1.0,
                double_kill_at_ms=2.0,
            )
        )
        assert report.clean, report.oracle_failures
        assert report.kills == 2
        assert report.promotions == 2
        assert report.rejoins == 2

    @pytest.mark.parametrize("torn", [False, True])
    def test_power_cut_during_promotion_retries_at_the_same_instant(
        self, torn
    ):
        # The successor's armed cut lands inside the lease window, where
        # nothing writes to it: its first timed write is the epoch bump
        # inside group.promote, which raises.  The 256-deep queue holds
        # a backlog while the lease runs out: with one wake queued per
        # caller this run pushed 13 499 124 heap events, not 3 991.
        hub = Telemetry()
        cluster = ServeCluster(
            ServeConfig(
                shards=2, replicas=2, rate_per_s=1.6e6, duration_ms=2.0,
                queue_depth=256, kill_primary_at_ms=0.6,
                kill_backup_at_ms=0.7, torn_kill=torn, seed=7,
            ),
            telemetry=hub,
        )
        cluster.run()
        marks = [
            (ts, kind, payload["replica"])
            for ts, kind, _, payload in hub.events
            if kind in ("backup_kill", "promotion", "rejoin_complete")
        ]
        assert all(
            sorted(payload) == ["epoch", "replica", "shard"]
            for _, kind, _, payload in hub.events
            if kind == "promotion"
        )  # no "replayed" count: a promotion replays nothing
        (promote_at,) = (
            payload["promote_at_ns"]
            for _, kind, _, payload in hub.events
            if kind == "failover_begin"
        )
        assert 0.7e6 < promote_at  # the cut was armed before the lease ran out
        # Replica 1 (freshest, lowest index) is chosen and dies in promote;
        # the retry promotes replica 2 at that same instant, exactly once.
        assert marks[:2] == [
            (promote_at, "backup_kill", 1),
            (promote_at, "promotion", 2),
        ]
        assert sorted(m[1:] for m in marks[2:]) == [
            ("rejoin_complete", 0),
            ("rejoin_complete", 1),
        ]
        group = cluster.groups[0]
        assert (group.promotions, group.primary_index) == (1, 2)
        assert all(replica.live for replica in group.replicas)
        assert cluster.oracle_failures == []  # acked loss *and* divergence
        assert cluster.divergence_checks >= 3  # promotion + two rejoins
        assert cluster.acked_puts + cluster.acked_gets == cluster.admitted

    def test_replication_cost_is_visible(self):
        base = run_serve(tiny_cfg(read_fraction=0.0))
        replicated = run_serve(tiny_cfg(read_fraction=0.0, replicas=2))
        # Synchronous shipping can only slow acks down, never speed
        # them up: same acked work over a longer (or equal) makespan.
        acked = base.acked_puts + base.acked_gets
        assert replicated.acked_puts + replicated.acked_gets == acked
        assert replicated.makespan_ns >= base.makespan_ns
        assert replicated.latency["max"] >= base.latency["max"]

    @pytest.mark.parametrize("torn", [False, True])
    @pytest.mark.parametrize(
        "primary_after_ms, first", [(0.002, "shard_kill"), (0.02, "backup_kill")]
    )
    def test_both_replicas_cut_resumes_solo_and_loses_nothing(
        self, primary_after_ms, first, torn
    ):
        # +2 us: the primary's cut fires first and the backup dies as
        # it promotes; +20 us: the backup dies mid-ship, then the
        # primary with no successor.  Either way the shard waits for
        # its own primary (resume_solo).  The backup that died promoting
        # holds everything the old epoch shipped and is re-shipped what
        # the resumed primary accepted since; the one that died mid-ship
        # is behind a history that died with the primary: image.
        hub = Telemetry()
        cluster = ServeCluster(
            ServeConfig(
                shards=2, replicas=1, rate_per_s=1.6e6, duration_ms=2.0,
                queue_depth=256, kill_backup_at_ms=0.6,
                kill_primary_at_ms=0.6 + primary_after_ms, torn_kill=torn,
                seed=7,
            ),
            telemetry=hub,
        )
        cluster.run()
        kinds = [
            kind
            for _, kind, _, _ in hub.events
            if kind in (
                "shard_kill", "backup_kill", "promotion",
                "shard_recovered", "rejoin_complete",
            )
        ]
        second = "backup_kill" if first == "shard_kill" else "shard_kill"
        assert kinds == [first, second, "shard_recovered", "rejoin_complete"]
        (mode,) = (
            payload["mode"]
            for _, kind, _, payload in hub.events
            if kind == "rejoin_begin"
        )
        assert mode == ("delta" if first == "shard_kill" else "image")
        group = cluster.groups[0]
        assert (group.promotions, group.primary_index) == (0, 0)
        assert all(replica.live for replica in group.replicas)
        assert cluster.oracle_failures == []
        assert cluster.divergence_checks >= 3
        assert cluster.acked_puts + cluster.acked_gets == cluster.admitted

    def test_primary_and_backup_commit_data_plus_header_alike(self):
        # A dimensional guard on the write volume, not a timing one: a
        # record costs its stores plus one header store on the primary
        # and on the backup alike — nothing else ever commits on either
        # machine — so the two devices write the same bytes.
        batches = {}  # shard -> stores per committed batch
        committed = {}  # id(system) -> write-set size per transaction
        commit_and_ship = ReplicationGroup.commit_and_ship
        run_batch = MemorySystem.run_batch

        def spy_commit(group, stores, core=0):
            outcome = commit_and_ship(group, stores, core)
            if outcome.tx is not None:
                batches.setdefault(group.shard_id, []).append(len(stores))
            return outcome

        def spy_batch(system, stores, core=0):
            tx = run_batch(system, stores, core=core)
            committed.setdefault(id(system), []).append(len(tx.write_set))
            return tx

        cluster = ServeCluster(
            ServeConfig(
                shards=2, replicas=1, rate_per_s=1.6e6, duration_ms=1.0,
                read_fraction=0.1, seed=7,
            ),
            telemetry=Telemetry(),
        )
        with mock.patch.object(
            ReplicationGroup, "commit_and_ship", spy_commit
        ), mock.patch.object(MemorySystem, "run_batch", spy_batch):
            cluster.run()
        for shard_id, group in cluster.groups.items():
            expected = [n + 1 for n in batches[shard_id]]
            assert expected
            for replica in group.replicas:
                assert committed[id(replica.system)] == expected
        primary, backup = cluster.groups[0].replicas
        written = [
            r.system.device.stats.bytes_written for r in (primary, backup)
        ]
        assert written[0] > 0
        assert abs(written[1] - written[0]) <= 0.1 * written[0]


class TestKeyspaceFingerprint:
    def test_fingerprint_covers_only_the_slots(self):
        group = make_group(replicas=0)
        primary = group.primary
        addr = primary.addr_of(5)
        group.commit_and_ship([(addr, b"\x33" * 64)])
        before = keyspace_fingerprint(
            primary.durable_projection(), primary.slot_addrs, 64
        )
        # Scribbling outside the keyspace must not change it.
        scratch = primary.system.allocate(64)
        primary.system.device.poke(scratch, b"\x99" * 64)
        after = keyspace_fingerprint(
            primary.durable_projection(), primary.slot_addrs, 64
        )
        assert before == after


# -- the projection is a crash image ---------------------------------------------


def _live_state(system):
    """What a projection must leave as it was: clocks, caches, faults."""
    h = system.hierarchy
    injector = system.device.injector
    return (
        list(system.clocks),
        {line: bytes(data) for line, data in h._data.items()},
        {line: (f.dirty, f.persistent, f.tx_id) for line, f in h._flags.items()},
        [
            {index: list(bucket) for index, bucket in level._sets.items()}
            for level in (*h._private_levels, h._llc)
        ],
        dict(vars(injector.stats)),
        {k: v for k, v in vars(injector).items() if k not in ("stats", "config")},
        system.device.content_fingerprint(),
        system.device.stats.writes,
    )


def test_projection_image_equals_clone_crash_recover(monkeypatch):
    """Every projection of the replicated failover run, taken through the
    crash image, matches clone -> crash -> recover of the same machine."""
    image_projection = Replica.durable_projection
    where = []

    def checked(replica):
        caller = sys._getframe(1)
        while caller and not caller.f_code.co_filename.endswith("shard.py"):
            caller = caller.f_back
        where.append(caller.f_code.co_name if caller else "?")
        before = _live_state(replica.system)
        reference = clone_state(replica.system)
        reference.crash()
        reference.recover(threads=replica.recovery_threads)
        projection = image_projection(replica)
        assert _live_state(replica.system) == before
        assert keyspace_fingerprint(
            projection, replica.slot_addrs, replica.value_bytes
        ) == keyspace_fingerprint(
            reference, replica.slot_addrs, replica.value_bytes
        )
        assert (
            projection.device.content_fingerprint()
            == reference.device.content_fingerprint()
        )
        return projection

    monkeypatch.setattr(Replica, "durable_projection", checked)
    # The serve-replicated benchmark's shape: four write-heavy hoop
    # shards with one backup each, shard 1's primary torn-killed at 1.2 ms.
    report = run_serve(
        ServeConfig(
            shards=4, scheme="hoop", replicas=1, read_fraction=0.1,
            rate_per_s=1.6e6, duration_ms=3.0, lease_us=500.0,
            queue_depth=256, kill_shard=1, kill_primary_at_ms=1.2,
            torn_kill=True, verify_final=True, seed=7,
        )
    )
    assert report.oracle_failures == []
    assert report.divergence_checks >= 2
    assert "final_verify" in where
    assert {"_complete_promotion", "_try_go_live"} & set(where)
