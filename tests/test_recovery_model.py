"""Recovery: functional replay details and the Fig. 11 time model."""

import random
from unittest import mock

import pytest

from repro import MemorySystem, SystemConfig
from repro.core.recovery import BlockReader, RecoveryManager, RecoveryReport
from repro.core.slices import SLICE_BYTES


def populate(transactions=150, seed=7, max_words=5):
    rng = random.Random(seed)
    system = MemorySystem(SystemConfig.small(), scheme="hoop")
    addrs = [system.allocate(64) for _ in range(16)]
    oracle = {}
    for _ in range(transactions):
        with system.transaction(rng.randrange(4)) as tx:
            for _ in range(rng.randint(1, max_words)):
                addr = rng.choice(addrs) + 8 * rng.randrange(8)
                value = rng.getrandbits(64).to_bytes(8, "little")
                tx.store(addr, value)
                oracle[addr] = value
    return system, oracle


class TestFunctional:
    def test_report_counts(self):
        system, oracle = populate()
        system.crash()
        report = system.recover(threads=2)
        assert report.committed_transactions == 150
        assert report.words_recovered == len(oracle)
        assert report.bytes_written == 8 * len(oracle)
        assert report.bytes_scanned > 0
        assert report.slices_walked >= 150

    def test_round_robin_distribution(self):
        system, _ = populate()
        system.crash()
        report = system.recover(threads=4)
        assert len(report.per_thread_txs) == 4
        assert sum(report.per_thread_txs) == 150
        assert max(report.per_thread_txs) - min(report.per_thread_txs) <= 1

    def test_replay_order_by_txid(self):
        system = MemorySystem(SystemConfig.small(), scheme="hoop")
        addr = system.allocate(8)
        for value in (1, 2, 3):
            with system.transaction() as tx:
                tx.store_u64(addr, value)
        system.crash()
        system.recover()
        assert int.from_bytes(system.durable_state(addr, 8), "little") == 3

    def test_region_cleared_after_recovery(self):
        system, _ = populate(transactions=60)
        controller = system.scheme.controller
        system.crash()
        system.recover()
        assert controller.commit_log.live_count == 0
        assert controller.region.free_block_count() == (
            controller.region.num_blocks
        )

    def test_invalid_thread_count(self):
        system, _ = populate(transactions=5)
        system.crash()
        with pytest.raises(ValueError):
            system.recover(threads=0)


class TestTimeModel:
    def _times(self, threads_list, bandwidth):
        system, _ = populate(transactions=200)
        times = []
        for threads in threads_list:
            system.crash()
            report = system.scheme.controller.recovery.recover(
                threads=threads,
                bandwidth_gb_per_s=bandwidth,
                clear_region=False,
            )
            times.append(report.elapsed_ns)
        return times

    def test_more_threads_never_slower(self):
        times = self._times([1, 2, 4, 8, 16], bandwidth=25.0)
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_thread_scaling_saturates_at_low_bandwidth(self):
        low = self._times([1, 16], bandwidth=2.0)
        high = self._times([1, 16], bandwidth=50.0)
        low_speedup = low[0] / low[1]
        high_speedup = high[0] / high[1]
        assert high_speedup > low_speedup

    def test_more_bandwidth_never_slower(self):
        system, _ = populate(transactions=200)
        times = []
        for bandwidth in (5.0, 10.0, 20.0, 40.0):
            system.crash()
            report = system.scheme.controller.recovery.recover(
                threads=8,
                bandwidth_gb_per_s=bandwidth,
                clear_region=False,
            )
            times.append(report.elapsed_ns)
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_elapsed_is_sum_of_phases(self):
        system, _ = populate(transactions=50)
        system.crash()
        report = system.recover(threads=2)
        assert report.elapsed_ns == pytest.approx(
            report.scan_time_ns
            + report.merge_time_ns
            + report.write_time_ns
        )


class TestMergeReference:
    """Steps 2-5 against the per-word ``(seq, value)`` fold they replaced."""

    @staticmethod
    def _reference_replay(manager, scan, threads):
        """The deleted fold: each thread keeps, per word, the value of the
        newest commit sequence it saw; the master keeps the newest over
        all threads and counts one step per local entry."""
        committed = sorted(scan.logged + scan.unlogged, key=lambda t: t.tx_id)
        report = RecoveryReport(
            threads=threads,
            bandwidth_gb_per_s=manager.config.nvm.bandwidth_gb_per_s,
            bytes_scanned=scan.bytes_scanned,
            committed_transactions=len(committed),
            per_thread_txs=[0] * threads,
        )
        shards = [{} for _ in range(threads)]
        for seq, tx in enumerate(committed):
            worker = seq % threads
            report.per_thread_txs[worker] += 1
            words, scanned = manager.walk_tx(BlockReader(manager.region), tx)
            report.slices_walked += scanned
            report.bytes_scanned += scanned * SLICE_BYTES
            local = shards[worker]
            for addr, value in words:
                current = local.get(addr)
                if current is None or current[0] <= seq:
                    local[addr] = (seq, value)
        merged = {}
        merge_ops = 0
        for local in shards:
            for addr, (seq, value) in local.items():
                merge_ops += 1
                current = merged.get(addr)
                if current is None or current[0] < seq:
                    merged[addr] = (seq, value)
        pokes = [(addr, merged[addr][1]) for addr in sorted(merged)]
        report.words_recovered = len(merged)
        report.bytes_written = 8 * len(merged)
        manager._apply_time_model(report, merge_ops)
        return pokes, merge_ops, report

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_words", [5, 20])
    def test_dict_update_fold_equals_the_seq_fold(self, threads, max_words):
        system, _ = populate(transactions=150, max_words=max_words)
        system.crash()
        manager = system.scheme.controller.recovery
        want = self._reference_replay(manager, manager.scan(), threads)
        with mock.patch.object(
            type(system.device), "poke_batch", autospec=True,
            side_effect=type(system.device).poke_batch,
        ) as poke_batch, mock.patch.object(
            RecoveryManager, "_apply_time_model", autospec=True,
            side_effect=RecoveryManager._apply_time_model,
        ) as time_model:
            report = manager.replay(
                manager.scan(), threads=threads, clear_region=False
            )
        (call,) = poke_batch.call_args_list
        (timed,) = time_model.call_args_list
        assert (call.args[1], timed.args[2], report) == want
