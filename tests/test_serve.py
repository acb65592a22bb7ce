"""The serving layer: routing, admission, batching, failover, oracle."""

import bisect
import dataclasses
import hashlib
import heapq
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import rng as rng_util
from repro.common.errors import ConfigError
from repro.serve import (
    SERVABLE_SCHEMES,
    ServeConfig,
    ServeReport,
    engine,
    run_serve,
)
from repro.serve.__main__ import main as serve_main
from repro.serve.admission import AdmissionController
from repro.serve.batcher import BatchScheduler
from repro.serve.client import OP_PUT, OpenLoopClient, make_clients
from repro.serve.cluster import ServeCluster
from repro.serve.router import ConsistentHashRouter, stable_hash
from repro.serve.shard import ShardExecutor

# Report hashes recorded at the parent of the level-triggered-wake change
# (PR 12): a host-only serve change must reproduce every one of them.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "serve_golden.json").read_text()
)


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


class TestRouter:
    def test_stable_hash_is_process_stable(self):
        # A fixed expectation pins the function across runs/processes —
        # Python's salted hash() would fail this (that is the point).
        assert stable_hash(0, "shard", 1, 2) == stable_hash(0, "shard", 1, 2)
        a = ConsistentHashRouter([0, 1, 2], seed=5)
        b = ConsistentHashRouter([0, 1, 2], seed=5)
        assert [a.shard_for(k) for k in range(500)] == [
            b.shard_for(k) for k in range(500)
        ]

    def test_reasonable_balance(self):
        router = ConsistentHashRouter(list(range(4)), seed=1)
        counts = {s: 0 for s in range(4)}
        for key in range(8000):
            counts[router.shard_for(key)] += 1
        for count in counts.values():
            assert 0.5 * 2000 < count < 2.0 * 2000

    def test_minimal_remap_on_shard_add(self):
        before = ConsistentHashRouter(list(range(4)), seed=2)
        after = ConsistentHashRouter(list(range(5)), seed=2)
        keys = range(4000)
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        # Consistent hashing moves ~1/5 of keys to the new shard; a
        # modulo router would move ~4/5.
        assert moved / 4000 < 0.40

    def test_partition_covers_keyspace_exactly(self):
        router = ConsistentHashRouter([0, 1, 2], seed=3)
        partition = router.partition(300)
        seen = sorted(k for keys in partition.values() for k in keys)
        assert seen == list(range(300))
        for shard, keys in partition.items():
            assert all(router.shard_for(k) == shard for k in keys)

    @pytest.mark.parametrize("seed", [3, 29])
    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_owner_table_routes_like_the_hashed_ring(self, shards, seed):
        # Reference: the ring written out from stable_hash alone.
        ring = sorted(
            (stable_hash(seed, "shard", shard, replica), shard)
            for shard in range(shards)
            for replica in range(64)
        )
        points = [point for point, _ in ring]

        def ring_owner(key):
            index = bisect.bisect_right(points, stable_hash(seed, "key", key))
            return ring[index % len(ring)][1]

        keyspace = 300
        router = ConsistentHashRouter(list(range(shards)), seed=seed)
        assert router.partition(keyspace) == {
            shard: [k for k in range(keyspace) if ring_owner(k) == shard]
            for shard in range(shards)
        }
        keys = [*range(-3, keyspace + 40), 2**64, -(2**64)]
        assert [router.shard_for(k) for k in keys] == [
            ring_owner(k) for k in keys
        ]

    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_cluster_build_hashes_each_key_once(self, shards):
        cfg = tiny_cfg(shards=shards, keyspace=300)
        with mock.patch(
            "repro.serve.router.stable_hash", wraps=stable_hash
        ) as counted:
            cluster = ServeCluster(cfg)
        assert counted.call_count == shards * cluster.router.vnodes + 300


class TestAdmission:
    def _request(self, shard, seq=0):
        from repro.serve.client import Request

        return Request(
            key=seq, op=OP_PUT, value=b"x" * 8, client=0, seq=seq,
            arrival_ns=float(seq), shard=shard,
        )

    def test_bounded_queue_and_typed_rejections(self):
        ctl = AdmissionController(queue_depth=2)
        assert ctl.admit(self._request(0, 0), recovering=False) is None
        assert ctl.admit(self._request(0, 1), recovering=False) is None
        assert ctl.admit(self._request(0, 2), recovering=False) == "queue_full"
        assert (
            ctl.admit(self._request(0, 3), recovering=True)
            == "shard_recovering"
        )
        assert ctl.rejections == {"queue_full": 1, "shard_recovering": 1}
        assert [r.seq for r in ctl.queue] == [0, 1]
        assert ctl.depth() == 2

    def test_failing_over_rejection_is_typed_and_wins(self):
        ctl = AdmissionController(queue_depth=1)
        assert ctl.admit(self._request(0, 0), recovering=False) is None
        kind = ctl.admit(
            self._request(0, 1), recovering=True, failing_over=True
        )
        assert kind == "failing_over"
        assert ctl.rejections == {"failing_over": 1}
        assert ctl.depth() == 1

    def test_recovering_shard_still_queues_when_room(self):
        ctl = AdmissionController(queue_depth=4)
        assert ctl.admit(self._request(0), recovering=True) is None
        assert (
            ctl.admit(self._request(0, 1), recovering=True, failing_over=True)
            is None
        )
        assert ctl.rejections == {}
        assert ctl.depth() == 2

    def test_requeue_front_restores_fifo_order(self):
        ctl = AdmissionController(queue_depth=8)
        batch = [self._request(0, i) for i in range(3)]
        ctl.admit(self._request(0, 9), recovering=False)
        fitted = ctl.requeue_front(batch)
        assert fitted == 3
        assert [r.seq for r in ctl.queue] == [0, 1, 2, 9]

    def test_requeue_front_never_overflows(self):
        ctl = AdmissionController(queue_depth=2)
        ctl.admit(self._request(0, 9), recovering=False)
        fitted = ctl.requeue_front([self._request(0, i) for i in range(3)])
        assert fitted == 1
        assert ctl.depth() == 2


class TestBatcher:
    def _queue(self, arrivals):
        from collections import deque

        from repro.serve.client import Request

        return deque(
            Request(key=i, op=OP_PUT, value=b"x" * 8, client=0, seq=i,
                    arrival_ns=t, shard=0)
            for i, t in enumerate(arrivals)
        )

    def test_full_batch_fires_immediately(self):
        sched = BatchScheduler(batch_size=3, batch_wait_ns=1e6)
        queue = self._queue([10.0, 11.0, 12.0])
        assert sched.ready(queue, now_ns=12.0)

    def test_partial_batch_waits_for_head_deadline(self):
        sched = BatchScheduler(batch_size=8, batch_wait_ns=100.0)
        queue = self._queue([10.0, 50.0])
        assert not sched.ready(queue, now_ns=90.0)
        assert sched.deadline_ns(queue) == 110.0
        assert sched.ready(queue, now_ns=110.0)

    def test_take_is_fifo_and_bounded(self):
        sched = BatchScheduler(batch_size=2, batch_wait_ns=0.0)
        queue = self._queue([1.0, 2.0, 3.0])
        batch = sched.take(queue)
        assert [r.seq for r in batch] == [0, 1]
        assert len(queue) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(batch_size=0, batch_wait_ns=1.0)
        with pytest.raises(ValueError):
            BatchScheduler(batch_size=1, batch_wait_ns=-1.0)


class TestClients:
    def test_replay_is_bit_identical(self):
        def trace():
            client = OpenLoopClient(
                3, rate_per_s=50_000, duration_ns=2e6, keyspace=256,
                value_bytes=16, read_fraction=0.3, seed=21,
            )
            return [
                (r.key, r.op, r.value, r.arrival_ns) for r in client
            ]

        assert trace() == trace()

    def test_clients_draw_independent_streams(self):
        clients = make_clients(
            4, aggregate_rate_per_s=80_000, duration_ns=2e6,
            keyspace=256, value_bytes=16, read_fraction=0.0,
            zipf_theta=0.9, seed=5,
        )
        traces = {
            cid: tuple(r.arrival_ns for r in client)
            for cid, client in clients.items()
        }
        # No two clients share an arrival timeline (per-client derived
        # seeds), yet each is reproducible from (seed, client_id) alone.
        values = list(traces.values())
        assert len(set(values)) == len(values)
        solo = OpenLoopClient(
            2, rate_per_s=20_000, duration_ns=2e6, keyspace=256,
            value_bytes=16, seed=5,
        )
        assert tuple(r.arrival_ns for r in solo) == traces[2]

    def test_arrivals_monotone_and_bounded(self):
        client = OpenLoopClient(
            0, rate_per_s=100_000, duration_ns=1e6, keyspace=64,
            value_bytes=8, seed=1,
        )
        times = [r.arrival_ns for r in client]
        assert times == sorted(times)
        assert all(0 < t <= 1e6 for t in times)
        assert client.next_request() is None  # stays exhausted

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoopClient(0, rate_per_s=0, duration_ns=1e6,
                           keyspace=8, value_bytes=8)
        with pytest.raises(ValueError):
            make_clients(0, aggregate_rate_per_s=1e3, duration_ns=1e6,
                         keyspace=8, value_bytes=8, read_fraction=0.0,
                         zipf_theta=0.9, seed=0)


class TestConfig:
    def test_rejects_native(self):
        with pytest.raises(ConfigError):
            tiny_cfg(scheme="native")

    def test_rejects_unaligned_values(self):
        with pytest.raises(ConfigError):
            tiny_cfg(value_bytes=12)

    def test_rejects_out_of_range_kill_shard(self):
        with pytest.raises(ConfigError):
            tiny_cfg(kill_shard=2)

    def test_replace_revalidates(self):
        cfg = tiny_cfg()
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, shards=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"clients": 0},
            {"rate_per_s": 0.0},
            {"duration_ms": 0.0},
            {"kill_at_ms": 0.5},  # an instant, but no kill_shard
            # Kill instants a cut cannot fire at.
            {"kill_shard": 0, "kill_at_ms": -1.0},
            {"kill_backup_at_ms": -0.5, "replicas": 1},
            {"kill_primary_at_ms": float("nan"), "replicas": 1},
            # Knobs the admission queue, batcher, key generator and
            # recovery would otherwise refuse mid-run.
            {"queue_depth": 0},
            {"batch_size": 0},
            {"batch_wait_us": -1.0},
            {"zipf_theta": 1.0},
            {"zipf_theta": 0.0},
            {"recovery_threads": 0, "kill_shard": 1},
        ],
        ids=lambda overrides: next(iter(overrides)),
    )
    def test_rejects_a_run_that_cannot_happen(self, overrides):
        with pytest.raises(ConfigError):
            tiny_cfg(**overrides)


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv",
        [
            # The worker pool's flags are gone, not deprecated.
            ["--workers", "2"],
            ["--epoch-us", "500"],
            ["--checkpoint-every", "4"],
            ["--kill-worker-at", "1:5"],
            # A ConfigError is a usage error, not a traceback.
            ["--rate", "0"],
            ["--kill-shard", "5", "--shards", "2"],
            ["--kill-backup-at-ms", "1"],
            ["--kill-at-ms", "0.5"],
            ["--kill-shard", "0", "--kill-at-ms", "-1"],
            ["--replicas", "1", "--kill-backup-at-ms", "-0.5"],
            ["--replicas", "1", "--kill-primary-at-ms", "nan"],
            # Exit 1 is reserved for acked-write loss.
            ["--queue-depth", "0"],
            ["--batch-size", "0"],
            ["--batch-wait-us", "-1"],
            ["--zipf-theta", "1.0"],
            ["--recovery-threads", "0", "--kill-shard", "1"],
        ],
        ids=" ".join,
    )
    def test_bad_arguments_exit_2_with_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            serve_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(
            "python -m repro.serve: error: "
        )


class TestEndToEnd:
    def test_run_is_deterministic(self):
        cfg = tiny_cfg()
        a = run_serve(cfg).to_dict()
        b = run_serve(cfg).to_dict()
        assert a == b
        json.dumps(a)  # report must be JSON-serializable

    def test_clean_run_acks_everything_offered(self):
        report = run_serve(tiny_cfg(read_fraction=0.2))
        assert report.offered > 0
        assert report.admitted == report.offered  # modest load, no kills
        assert report.acked_puts + report.acked_gets == report.admitted
        assert report.clean
        assert report.oracle_verifications == 2  # final sweep per shard
        assert report.latency["count"] == report.admitted
        assert report.makespan_ns > 0
        assert report.requests_per_s > 0

    def test_batching_amortizes_commits(self):
        report = run_serve(tiny_cfg(read_fraction=0.0, batch_size=8))
        assert report.batches < report.acked_puts
        assert report.committed_transactions == report.batches

    @pytest.mark.parametrize("scheme", sorted(SERVABLE_SCHEMES))
    def test_failover_loses_no_acked_write(self, scheme):
        report = run_serve(
            tiny_cfg(scheme=scheme, kill_shard=1, kill_at_ms=1.5)
        )
        assert report.kills == 1
        assert report.recoveries == 1
        assert report.clean, report.oracle_failures
        assert report.per_shard["1"]["kills"] == 1

    def test_torn_failover_loses_no_acked_write(self):
        report = run_serve(
            tiny_cfg(kill_shard=0, kill_at_ms=1.5, torn_kill=True)
        )
        assert report.kills == 1
        assert report.clean, report.oracle_failures

    def test_failed_batch_is_retried_or_shed_never_acked_twice(self):
        report = run_serve(tiny_cfg(kill_shard=1, kill_at_ms=1.5))
        # The in-flight batch was requeued (or shed if no room), and
        # every admitted request is accounted for exactly once.
        accounted = (
            report.acked_puts + report.acked_gets + report.shed_on_failover
        )
        assert accounted == report.admitted
        assert report.retried >= 0

    def test_overload_triggers_backpressure(self):
        report = run_serve(
            tiny_cfg(
                shards=1, clients=2, rate_per_s=2_000_000.0,
                duration_ms=1.0, queue_depth=4, batch_size=2,
            )
        )
        assert report.rejected.get("queue_full", 0) > 0
        assert report.admitted < report.offered
        assert report.clean  # backpressure never breaks the ack promise

    def test_rejections_during_failover_are_typed(self):
        # A long lease holds the group FAILING_OVER; the tiny queue
        # overflows while the promotion is pending.
        report = run_serve(
            tiny_cfg(
                replicas=1, kill_primary_at_ms=1.0, lease_us=3000.0,
                queue_depth=2, rate_per_s=120_000.0,
            )
        )
        assert report.promotions == 1
        assert report.rejected.get("failing_over", 0) > 0
        assert report.clean

    def test_rejections_during_recovery_are_typed(self):
        report = run_serve(
            tiny_cfg(
                kill_shard=1, kill_at_ms=1.0, queue_depth=2,
                rate_per_s=120_000.0,
            )
        )
        assert report.kills == 1
        # The recovering shard's tiny queue overflows while it is down.
        assert report.rejected.get("shard_recovering", 0) > 0
        assert report.clean

    def test_report_round_trips_to_dict(self):
        report = run_serve(tiny_cfg())
        payload = report.to_dict()
        clone = ServeReport(**payload)
        assert clone.to_dict() == payload


def overloaded_cluster():
    """The benchmark's 16 M req/s step: one read-mostly shard, saturated."""
    return ServeCluster(
        ServeConfig(
            shards=1, read_fraction=0.9, rate_per_s=16e6,
            duration_ms=0.3, seed=7,
        )
    )


class TestEventLoop:
    def test_heap_events_are_linear_in_work(self):
        # A batch arms one busy-until wake and a batch head at most one
        # deadline.  An edge-queued timer (a heap entry per caller)
        # pushed 1 238 914 wakes here while every arrival pumped, and
        # 3 506 with arrivals admitted without a pump.
        cluster = overloaded_cluster()
        executor = cluster.executors[0]
        wakes = executor._wakes
        heappush = heapq.heappush
        pushed = 0

        def counted(heap, item):
            nonlocal pushed
            if heap is wakes:
                pushed += 1
            heappush(heap, item)

        with mock.patch.object(heapq, "heappush", counted):
            cluster.run()
        assert cluster.rejections.get("queue_full", 0) > 0  # saturated
        assert 0 < pushed <= 2 * executor.batches + 16

    def test_a_busy_shard_admits_without_pumping(self):
        # An arrival that finds the primary busy until an armed wake
        # admits and returns.  A loop that pumps after every event
        # pumps 5 226 times for these 502 batches.
        cluster = overloaded_cluster()
        executor = cluster.executors[0]
        pump = ShardExecutor._pump
        pumps = 0

        def counted(shard):
            nonlocal pumps
            pumps += 1
            pump(shard)

        with mock.patch.object(ShardExecutor, "_pump", counted):
            cluster.run()
        assert cluster.rejections.get("queue_full", 0) > 0  # saturated
        assert pumps <= executor.batches + 16

    @settings(max_examples=25, deadline=None)
    @given(
        rate=st.sampled_from([2e5, 2e6, 8e6, 2e7]),
        batch_size=st.integers(1, 16),
        queue_depth=st.integers(1, 64),
        batch_wait_us=st.sampled_from([0.0, 0.5, 5.0, 50.0]),
        epoch_us=st.sampled_from([0.25, 2.0, 20.0]),
    )
    def test_one_pending_wake_per_instant(
        self, rate, batch_size, queue_depth, batch_wait_us, epoch_us
    ):
        advance_to = ShardExecutor.advance_to
        advances = []

        def checked_advance(executor, horizon_ns):
            advance_to(executor, horizon_ns)
            wakes = executor._wakes
            assert len(wakes) == len(set(wakes))
            # The armed set mirrors the heap: a leaked instant would
            # swallow a wake the pump needs, a missing one admits a twin.
            assert executor._wake_instants == set(wakes)
            # Every arrival submitted for this horizon was handled.
            assert not executor._lane
            advances.append(horizon_ns)

        cfg = ServeConfig(
            shards=1, clients=4, keyspace=256, rate_per_s=rate,
            duration_ms=0.05, batch_size=batch_size,
            queue_depth=queue_depth, batch_wait_us=batch_wait_us, seed=3,
        )
        with mock.patch.object(
            ShardExecutor, "advance_to", checked_advance
        ), mock.patch.object(engine, "EPOCH_QUANTUM_NS", epoch_us * 1e3):
            report = run_serve(cfg)
        assert advances
        assert report.clean
        assert report.acked_puts + report.acked_gets == report.admitted


class TestGoldenReports:
    @pytest.mark.parametrize(
        "case", GOLDEN["reports"], ids=lambda case: case["name"]
    )
    def test_report_bytes_match_the_pinned_parent(self, case, tmp_path):
        out = tmp_path / "report.json"
        assert serve_main(case["argv"].split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"]


class TestRunBatchSurface:
    def test_run_batch_commits_atomically(self):
        from repro import MemorySystem, SystemConfig

        system = MemorySystem(SystemConfig.small(), scheme="hoop")
        base = system.allocate(64)
        stores = [(base + 8 * i, bytes([i]) * 8) for i in range(4)]
        tx = system.run_batch(stores)
        assert tx.stores == 4
        assert tx.end_ns > tx.begin_ns
        assert system.committed_transactions == 1
        for addr, data in stores:
            assert system.load(addr, 8) == data

    def test_run_batch_annotates_power_loss_with_issued_prefix(self):
        from repro.common.config import WRITES, Cut, FaultConfig, SystemConfig
        from repro.common.errors import PowerLossError
        from repro.txn.system import MemorySystem

        config = SystemConfig.small().replace(
            faults=FaultConfig(enabled=True, seed=3)
        )
        # opt-undo persists a log entry per touched line, so
        # line-apart stores under a small write budget die mid-batch
        # (hoop would buffer until tx_end and the prefix would
        # legitimately be the whole batch).
        system = MemorySystem(config, scheme="opt-undo")
        base = system.allocate(64 * 32)
        stores = [(base + 64 * i, bytes([i + 1]) * 8) for i in range(32)]
        system.device.injector.arm_power_loss_at(Cut(WRITES, 4))
        with pytest.raises(PowerLossError) as info:
            system.run_batch(stores)
        issued = info.value.issued_stores
        assert 0 < len(issued) < len(stores)
        assert issued == stores[: len(issued)]

    def test_run_batch_exports_its_write_set_and_redo_words(self):
        from repro import MemorySystem, SystemConfig

        system = MemorySystem(SystemConfig.small(), scheme="hoop")
        base = system.allocate(64)
        stores = [(base, b"\xab" * 16), (base + 16, b"\xcd" * 8)]
        system.run_batch(stores)
        words = MemorySystem.redo_words(stores)
        assert words == [
            (base, b"\xab" * 8),
            (base + 8, b"\xab" * 8),
            (base + 16, b"\xcd" * 8),
        ]
        with pytest.raises(ValueError):
            MemorySystem.redo_words([(base + 1, b"x" * 8)])


class TestSeedDiscipline:
    def test_shard_fault_seeds_are_derived_not_shared(self):
        seeds = {
            rng_util.derive(7, "shard", shard, "faults")
            for shard in range(8)
        }
        assert len(seeds) == 8
