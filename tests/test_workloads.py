"""Workload generators: Table III characteristics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemorySystem, SystemConfig
from repro.workloads import WorkloadDriver, ZipfianGenerator, make_workload
from repro.workloads.nstore import Table


def run_some(workload_name, transactions=60, **kwargs):
    system = MemorySystem(SystemConfig.small(), scheme="native")
    workload = make_workload(workload_name, system, seed=5, **kwargs)
    workload.setup(core=0)
    system.reset_measurement()
    rng = random.Random(5)
    start_tx = system.committed_transactions
    for _ in range(transactions):
        workload.do_transaction(0, rng)
    executed = system.committed_transactions - start_tx
    stores = system.scheme.stats.tx_stores
    return system, workload, executed, stores


class TestStoreCounts:
    """Per-transaction store counts must match Table III's ranges."""

    def test_vector(self):
        _, _, txs, stores = run_some("vector", capacity=512)
        assert 7 <= stores / txs <= 10  # 8 item words (+ length on insert)

    def test_hashmap(self):
        _, _, txs, stores = run_some(
            "hashmap", keyspace=512, buckets=128
        )
        assert 7 <= stores / txs <= 12

    def test_queue(self):
        _, _, txs, stores = run_some("queue")
        assert 3 <= stores / txs <= 6

    def test_rbtree(self):
        _, _, txs, stores = run_some("rbtree", keyspace=2048)
        assert 2 <= stores / txs <= 11

    def test_btree(self):
        _, _, txs, stores = run_some("btree", keyspace=2048)
        assert 2 <= stores / txs <= 14

    def test_tpcc(self):
        _, _, txs, stores = run_some(
            "tpcc", items=256, customers_per_district=8
        )
        assert 10 <= stores / txs <= 35


class TestYCSB:
    def test_mix_is_80_20(self):
        system, workload, txs, _ = run_some(
            "ycsb", transactions=300, records=256
        )
        total = workload.update_txs + workload.read_txs
        assert total == 300
        assert 0.7 <= workload.update_txs / total <= 0.9

    def test_update_store_range(self):
        system, workload, _, _ = run_some(
            "ycsb", transactions=100, records=256
        )
        stores = system.scheme.stats.tx_stores
        updates = workload.update_txs
        if updates:
            assert 8 <= stores / updates <= 40

    def test_values_readable(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        workload = make_workload("ycsb", system, seed=1, records=64)
        workload.setup(core=0)
        with system.transaction() as tx:
            data = workload.table.read(tx, 0)
        assert len(data) == workload.value_bytes

    def test_bad_params_rejected(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        with pytest.raises(ValueError):
            make_workload(
                "ycsb", system, records=16, update_fraction=1.5
            )


class TestZipfian:
    def test_range(self):
        zipf = ZipfianGenerator(100, rng=random.Random(1))
        draws = [zipf.next() for _ in range(2000)]
        assert all(0 <= d < 100 for d in draws)

    def test_skew(self):
        zipf = ZipfianGenerator(1000, theta=0.99, rng=random.Random(2))
        draws = [zipf.next() for _ in range(5000)]
        top_hits = sum(1 for d in draws if d < 10)
        assert top_hits / len(draws) > 0.3  # heavy head

    def test_scrambled_spreads_hot_keys(self):
        zipf = ZipfianGenerator(1000, rng=random.Random(3))
        draws = {zipf.next_scrambled() for _ in range(500)}
        assert max(draws) > 500  # not clustered at the low ranks

    def test_expected_top_fraction(self):
        zipf = ZipfianGenerator(1000, theta=0.99)
        assert 0 < zipf.expected_top_fraction(10) < 1
        assert zipf.expected_top_fraction(1000) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)


class TestNStore:
    def test_crud(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        table = Table(system, "t", 32)
        with system.transaction() as tx:
            table.insert(tx, 1, b"a" * 32)
            assert table.read(tx, 1) == b"a" * 32
            table.update_slice(tx, 1, 0, b"b" * 32)
            table.update_u64(tx, 1, 8, 777)
            assert table.read_u64(tx, 1, 8) == 777
            assert table.read(tx, 1)[:8] == b"b" * 8

    def test_duplicate_insert_rejected(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        table = Table(system, "t", 32)
        with system.transaction() as tx:
            table.insert(tx, 1, b"a" * 32)
            with pytest.raises(Exception):
                table.insert(tx, 1, b"b" * 32)

    def test_missing_key_raises(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        table = Table(system, "t", 32)
        with system.transaction() as tx:
            with pytest.raises(KeyError):
                table.read(tx, 9)

    def test_slice_bounds_checked(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        table = Table(system, "t", 32)
        with system.transaction() as tx:
            table.insert(tx, 1, b"a" * 32)
            with pytest.raises(ValueError):
                table.update_slice(tx, 1, 30, b"123456")


class TestDriver:
    def test_min_clock_spreads_threads(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        workload = make_workload("queue", system, seed=2)
        driver = WorkloadDriver(system, threads=4, seed=2)
        result = driver.run(workload, 80, warmup=0)
        assert result.transactions == 80
        active = [c for c in system.clocks[:4] if c > 0]
        assert len(active) == 4  # every thread did work

    def test_result_math(self):
        system = MemorySystem(SystemConfig.small(), scheme="hoop")
        workload = make_workload("queue", system, seed=2)
        driver = WorkloadDriver(system, threads=2, seed=2)
        result = driver.run(workload, 50, warmup=5)
        assert result.throughput_tx_per_ms > 0
        assert result.bytes_per_tx > 0
        assert result.mean_latency_ns > 0
        assert result.scheme == "hoop"
        assert result.workload == "queue"

    def test_thread_bounds_checked(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        with pytest.raises(ValueError):
            WorkloadDriver(system, threads=99)

    def test_unknown_workload_rejected(self):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        with pytest.raises(KeyError):
            make_workload("nope", system)

    def test_determinism(self):
        def one_run():
            system = MemorySystem(SystemConfig.small(), scheme="hoop")
            workload = make_workload("hashmap", system, seed=9,
                                     keyspace=256, buckets=64)
            driver = WorkloadDriver(system, threads=2, seed=9)
            result = driver.run(workload, 60, warmup=0)
            return (
                result.bytes_written,
                result.mean_latency_ns,
                result.makespan_ns,
            )

        assert one_run() == one_run()


class TestZipfianEdges:
    """Skew extremes and degenerate keyspaces stay well-defined."""

    def test_theta_near_zero_is_nearly_uniform(self):
        zipf = ZipfianGenerator(100, theta=1e-4, rng=random.Random(4))
        draws = [zipf.next() for _ in range(8000)]
        assert all(0 <= d < 100 for d in draws)
        top_hits = sum(1 for d in draws if d < 10)
        # ~10% of mass on the top decile when skew vanishes.
        assert 0.05 < top_hits / len(draws) < 0.20
        assert zipf.expected_top_fraction(10) == pytest.approx(
            0.1, abs=0.02
        )

    def test_theta_near_one_is_extremely_skewed(self):
        zipf = ZipfianGenerator(1000, theta=0.9999, rng=random.Random(5))
        draws = [zipf.next() for _ in range(5000)]
        assert all(0 <= d < 1000 for d in draws)
        top_hits = sum(1 for d in draws if d < 10)
        # zeta(10)/zeta(1000) ~ 0.39 at theta -> 1: the head carries
        # vastly more than its 1% uniform share.
        assert top_hits / len(draws) > 0.3
        assert zipf.expected_top_fraction(1) > 0.1
        assert zipf.expected_top_fraction(10) == pytest.approx(
            top_hits / len(draws), abs=0.05
        )

    def test_single_key_keyspace_always_rank_zero(self):
        zipf = ZipfianGenerator(1, theta=0.5, rng=random.Random(6))
        assert all(zipf.next() == 0 for _ in range(200))
        assert all(zipf.next_scrambled() == 0 for _ in range(200))
        assert zipf.expected_top_fraction(1) == pytest.approx(1.0)
        assert zipf.expected_top_fraction(99) == pytest.approx(1.0)

    def test_scrambled_stays_in_range_at_extremes(self):
        for n, theta in ((1, 0.9), (2, 1e-4), (7, 0.9999)):
            zipf = ZipfianGenerator(n, theta=theta, rng=random.Random(7))
            assert all(0 <= zipf.next_scrambled() < n for _ in range(300))


class TestMinClockProperty:
    """The driver always runs the thread whose clock is furthest behind."""

    @settings(max_examples=15, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=4),
        transactions=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_driver_selects_min_clock_thread(self, threads, transactions,
                                             seed):
        system = MemorySystem(SystemConfig.small(), scheme="native")
        workload = make_workload("queue", system, seed=seed)
        driver = WorkloadDriver(system, threads=threads, seed=seed)
        selections = []
        original = workload.do_transaction

        def spying(thread, rng):
            clocks = system.clocks[:threads]
            # Invariant: the scheduled thread is (one of) the minimum.
            assert clocks[thread] == min(clocks)
            selections.append(clocks[thread])
            return original(thread, rng)

        workload.do_transaction = spying
        result = driver.run(workload, transactions, warmup=0)
        assert result.transactions == transactions
        assert len(selections) == transactions
        # Min-clock scheduling implies selection times never go backwards.
        assert selections == sorted(selections)
