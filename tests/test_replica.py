"""Replication groups: redo shipping, promotion, rejoin, divergence."""

from unittest import mock

import pytest

from repro.common.errors import ConfigError
from repro.serve import SERVABLE_SCHEMES, ServeConfig, run_serve
from repro.serve.cluster import ServeCluster
from repro.serve.replica import (
    BACKUP,
    LEASED,
    ReplicationGroup,
    StaleEpochError,
    decode_entries,
    encode_entry,
    keyspace_fingerprint,
)
from repro.telemetry.hub import Telemetry


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


class TestLogCodec:
    def test_entry_round_trips(self):
        stores = [(4096, b"\x11" * 64), (8192, b"\x22" * 8)]
        buf = encode_entry(7, 3, stores)
        assert len(buf) % 8 == 0
        decoded = decode_entries(buf)
        assert decoded == [(7, 3, stores)]

    def test_consecutive_entries_decode_in_order(self):
        a = encode_entry(1, 1, [(4096, b"a" * 8)])
        b = encode_entry(2, 1, [(4160, b"b" * 16)])
        decoded = decode_entries(a + b)
        assert [seq for seq, _, _ in decoded] == [1, 2]

    def test_rejects_unaligned_records(self):
        with pytest.raises(ValueError):
            encode_entry(1, 1, [(4097, b"x" * 8)])
        with pytest.raises(ValueError):
            encode_entry(1, 1, [(4096, b"x" * 7)])


class TestReplicationGroup:
    def test_synchronous_ship_reaches_every_backup(self):
        group = make_group(replicas=2)
        addr = group.primary.addr_of(3)
        outcome = group.commit_and_ship([(addr, b"\x5a" * 64)])
        assert outcome.tx is not None
        assert not outcome.dead_backups
        # The ack waited for every backup's durable log append.
        assert outcome.ack_ns >= outcome.tx.end_ns
        for backup in group.backups():
            assert backup.shipped_seq == 1
            assert backup.tail  # shipped but not yet applied

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
        # Durably append a record the primary never shipped: the
        # backup's projected keyspace now disagrees with the primary's.
        backup.receive_ship(
            2, group.epoch, [(addr, b"\xff" * 64)], backup.clock_ns
        )
        failure = group.divergence()
        assert failure is not None and "diverged" in failure

    def test_log_compaction_keeps_shipping(self):
        # A log big enough for the header plus only a few entries
        # forces apply+reset wraps mid-stream; shipping must survive
        # and replicas must stay bit-identical.
        group = make_group(replicas=1, log_bytes=4096)
        for i in range(24):
            addr = group.primary.addr_of(i % 16)
            outcome = group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
            assert not outcome.dead_backups
        assert group.divergence() is None

    def test_promotion_replays_unapplied_tail(self):
        # apply_every huge: the backup never applies on its own, so the
        # promotion path must replay the whole shipped tail.
        group = make_group(replicas=1, apply_every=10_000)
        values = {}
        for key in range(8):
            addr = group.primary.addr_of(key)
            value = bytes([0x40 + key]) * 64
            values[addr] = value
            group.commit_and_ship([(addr, value)])
        backup = group.backups()[0]
        assert len(backup.tail) == 8
        old_epoch = group.epoch
        promoted = group.promote(group.primary.clock_ns)
        assert promoted is backup
        assert promoted.state == LEASED
        assert group.epoch == old_epoch + 1
        assert not promoted.tail
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
        # A log this small wrapped several times when the primary still
        # wrote its own entries; now its entry area is never written.
        group = make_group(replicas=1, log_bytes=4096)
        primary = group.primary
        for i in range(24):
            addr = primary.addr_of(i % 16)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        before = (primary.epoch, primary.shipped_seq, primary.applied_seq)
        assert before == (1, 24, 24)
        primary.system.crash()
        primary.system.recover(threads=primary.recovery_threads)
        primary.refresh_from_durable_log()
        assert (
            primary.epoch, primary.shipped_seq, primary.applied_seq
        ) == before
        assert primary.tail == [] and primary.entries == []
        assert primary.write_off == primary.entries_base
        area = primary.log_limit - primary.entries_base
        assert primary.system.device.peek(primary.entries_base, area) == bytes(
            area
        )

    def test_promoted_backup_refreshes_without_replaying_twice(self):
        # Backup-era and primary-era batches write the same keys, so a
        # backup-era record replayed after the crash would show up as a
        # stale value in the fingerprint.
        group = make_group(replicas=2, apply_every=3)
        for i in range(7):
            addr = group.primary.addr_of(i % 4)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        group.begin_replica_recovery(
            group.primary, group.primary.clock_ns, floor_ns=0.0
        )
        promoted = group.promote(group.replicas[1].clock_ns)
        survivor = group.replicas[2]
        backup_era_end = promoted.write_off
        assert promoted.index == 1 and backup_era_end > promoted.entries_base
        for i in range(7, 12):
            addr = promoted.addr_of(i % 4)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        assert promoted.write_off == backup_era_end  # no primary-era entry
        promoted.system.crash()
        promoted.system.recover(threads=promoted.recovery_threads)
        promoted.refresh_from_durable_log()
        assert (promoted.epoch, promoted.shipped_seq) == (2, 12)
        assert promoted.applied_seq == 12
        assert [seq for seq, _, _ in promoted.entries] == list(range(1, 8))
        assert promoted.tail == []
        assert promoted.write_off == backup_era_end
        assert promoted.fingerprint() == survivor.fingerprint()

    def test_primary_history_is_bounded_and_a_gap_forces_an_image_copy(self):
        # 4096-byte log: 4032 bytes of entry area, 104 per one-store
        # record, so the volatile history restarts every 38 batches —
        # the batch counts at which the primary's on-NVM log wrapped.
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
        with mock.patch.object(
            group, "catch_up", wraps=group.catch_up
        ) as catch_up:
            retry = group.try_go_live(victim, max(victim.clock_ns, 1e12))
            assert catch_up.call_count == 1
            assert retry == victim.clock_ns  # image copied; go live next
            assert group.try_go_live(victim, victim.clock_ns) is None
        assert victim.state == BACKUP
        assert group.divergence() is None


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

    def test_apply_every_must_be_positive(self):
        with pytest.raises(ConfigError):
            tiny_cfg(replicas=1, apply_every=0)


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
        # nothing writes to it: its first timed write is the tail replay
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

    def test_promotion_with_unapplied_tail_end_to_end(self):
        # apply_every huge: the backup promotes with its entire shipped
        # history unapplied and must replay it before serving.
        report = run_serve(
            tiny_cfg(
                replicas=1,
                apply_every=10_000,
                kill_primary_at_ms=1.5,
                torn_kill=True,
            )
        )
        assert report.clean, report.oracle_failures
        assert report.promotions == 1

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
        # its own primary (resume_solo) and the backup rejoins by image.
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
        group = cluster.groups[0]
        assert (group.promotions, group.primary_index) == (0, 0)
        assert all(replica.live for replica in group.replicas)
        assert cluster.oracle_failures == []
        assert cluster.divergence_checks >= 3
        assert cluster.acked_puts + cluster.acked_gets == cluster.admitted

    def test_primary_commit_is_data_plus_header_and_half_a_backup(self):
        # A dimensional guard on the write volume, not a timing one: the
        # primary's batch transaction is its stores plus one header
        # store, so its device writes well under half of what its
        # backup (log, then apply) does.
        seen = []
        commit_and_ship = ReplicationGroup.commit_and_ship

        def spy(group, stores, core=0):
            outcome = commit_and_ship(group, stores, core)
            seen.append((len(stores), outcome.tx))
            return outcome

        cluster = ServeCluster(
            ServeConfig(
                shards=2, replicas=1, rate_per_s=1.6e6, duration_ms=1.0,
                read_fraction=0.1, seed=7,
            ),
            telemetry=Telemetry(),
        )
        with mock.patch.object(ReplicationGroup, "commit_and_ship", spy):
            cluster.run()
        committed = [(n, tx) for n, tx in seen if tx is not None]
        assert committed
        assert all(len(tx.write_set) == n + 1 for n, tx in committed)
        primary, backup = cluster.groups[0].replicas
        written = [
            r.system.device.stats.bytes_written for r in (primary, backup)
        ]
        assert 0 < written[0] < written[1] / 2


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
