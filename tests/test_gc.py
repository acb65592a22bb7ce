"""Garbage collection: coalescing, commit-order prefix, reclamation."""

import pytest

from repro.common.config import SystemConfig
from repro.common.units import MB
from repro.core.controller import HoopController
from repro.core.oop_region import BlockState
from repro.nvm.device import NVMDevice


@pytest.fixture
def ctrl():
    config = SystemConfig.small(nvm_capacity=16 * MB)
    device = NVMDevice(config.nvm)
    return HoopController(config, device), config


def commit_tx(ctrl, tx_id, writes, core=0):
    ctrl.tx_begin(core, tx_id, 0.0)
    for addr, value in writes:
        line_addr = addr & ~63
        line = bytearray(ctrl.port.device.peek(line_addr, 64))
        line[addr - line_addr : addr - line_addr + 8] = value
        ctrl.tx_store(core, tx_id, addr, 8, line_addr, bytes(line), 0.0)
    return ctrl.tx_end(core, tx_id, 0.0)


def word(i):
    return i.to_bytes(8, "little")


class TestCoalescing:
    def test_single_tx_migrates_home(self, ctrl):
        controller, _ = ctrl
        commit_tx(controller, 1, [(0x1000, word(1)), (0x1008, word(2))])
        report = controller.gc.run(0.0, on_demand=True)
        assert report.transactions_migrated == 1
        assert report.words_migrated == 2
        assert controller.port.device.peek(0x1000, 8) == word(1)

    def test_overwrites_coalesce(self, ctrl):
        controller, _ = ctrl
        for tx_id in range(1, 11):
            commit_tx(controller, tx_id, [(0x1000, word(tx_id))])
        report = controller.gc.run(0.0, on_demand=True)
        assert report.words_scanned == 10
        assert report.words_migrated == 1
        assert report.data_reduction_ratio == pytest.approx(0.9)
        assert controller.port.device.peek(0x1000, 8) == word(10)

    def test_latest_version_wins(self, ctrl):
        controller, _ = ctrl
        commit_tx(controller, 1, [(0x2000, word(111))])
        commit_tx(controller, 2, [(0x2000, word(222))])
        controller.gc.run(0.0, on_demand=True)
        assert controller.port.device.peek(0x2000, 8) == word(222)

    def test_within_tx_latest_wins(self, ctrl):
        controller, _ = ctrl
        commit_tx(
            controller, 1, [(0x3000, word(1)), (0x3000, word(2))]
        )
        controller.gc.run(0.0, on_demand=True)
        assert controller.port.device.peek(0x3000, 8) == word(2)

    def test_mapping_entries_pruned(self, ctrl):
        controller, _ = ctrl
        commit_tx(controller, 1, [(0x1000, word(5))])
        assert controller.mapping.entries > 0
        controller.gc.run(0.0, on_demand=True)
        assert controller.mapping.entries == 0

    def test_eviction_buffer_receives_lines(self, ctrl):
        controller, _ = ctrl
        commit_tx(controller, 1, [(0x1000, word(5))])
        controller.gc.run(0.0, on_demand=True)
        staged = controller.eviction_buffer.lookup(0x1000)
        assert staged is not None
        assert staged[:8] == word(5)


class TestLifecycle:
    def test_retired_txs_not_collected_twice(self, ctrl):
        controller, _ = ctrl
        commit_tx(controller, 1, [(0x1000, word(1))])
        first = controller.gc.run(0.0, on_demand=True)
        second = controller.gc.run(0.0, on_demand=True)
        assert first.transactions_migrated == 1
        assert second.transactions_migrated == 0

    def test_blocks_reclaimed_and_reused(self, ctrl):
        controller, config = ctrl
        region = controller.region
        # Fill more than one block with committed transactions.
        per_slice_txs = region.slots_per_block + 5
        for tx_id in range(1, per_slice_txs + 1):
            commit_tx(controller, tx_id, [(0x1000 + 8 * tx_id, word(tx_id))])
        report = controller.gc.run(0.0, on_demand=True)
        assert report.blocks_collected >= 1
        assert controller.region.stats.blocks_reclaimed >= 1

    def test_open_tx_blocks_not_reclaimed(self, ctrl):
        controller, _ = ctrl
        # An open transaction with flushed slices pins its block.
        controller.tx_begin(0, 99, 0.0)
        for i in range(12):  # forces at least one slice flush
            addr = 0x4000 + i * 8
            line = bytes(64)
            controller.tx_store(0, 99, addr, 8, addr & ~63, line, 0.0)
        commit_tx(controller, 100, [(0x5000, word(1))], core=1)
        controller.gc.run(0.0, on_demand=True)
        open_blocks = controller.refs.blocks_of(99)
        assert open_blocks
        for block in open_blocks:
            assert controller.region.state_of(block) != BlockState.UNUSED

    def test_commit_order_prefix_respected(self, ctrl):
        controller, _ = ctrl
        # tx 1 commits, tx 2 stays open with slices, tx 3 commits. The
        # migration prefix must stop before tx 3 only if tx 2 committed
        # before it... here tx 2 is open, and txs 1,3 are committed; the
        # prefix includes both committed ones because the open tx has no
        # commit entry.
        commit_tx(controller, 1, [(0x1000, word(1))])
        controller.tx_begin(1, 2, 0.0)
        line = bytes(64)
        controller.tx_store(1, 2, 0x2000, 8, 0x2000, line, 0.0)
        commit_tx(controller, 3, [(0x3000, word(3))], core=2)
        report = controller.gc.run(0.0, on_demand=True)
        assert report.transactions_migrated == 2

    def test_watermark_advances(self, ctrl):
        controller, _ = ctrl
        from repro.core.gc import RETIRE_WATERMARK_ADDR

        commit_tx(controller, 1, [(0x1000, word(1))])
        controller.gc.run(0.0, on_demand=True)
        watermark = int.from_bytes(
            controller.port.device.peek(RETIRE_WATERMARK_ADDR, 8), "little"
        )
        assert watermark >= 1

    def test_periodic_trigger(self, ctrl):
        controller, config = ctrl
        period = config.hoop.gc.period_ns
        assert controller.gc.maybe_run(period / 2) is None
        commit_tx(controller, 1, [(0x1000, word(1))])
        report = controller.gc.maybe_run(period * 1.5)
        assert report is not None

    def test_empty_pass_is_cheap(self, ctrl):
        controller, _ = ctrl
        report = controller.gc.run(0.0, on_demand=True)
        assert report.blocks_collected == 0
        assert report.words_migrated == 0
        assert report.data_reduction_ratio == 0.0

    def test_stats_accumulate(self, ctrl):
        controller, _ = ctrl
        commit_tx(controller, 1, [(0x1000, word(1))])
        controller.gc.run(0.0, on_demand=True)
        stats = controller.gc.stats
        assert stats.passes == 1
        assert stats.on_demand_passes == 1
        assert stats.words_migrated == 1
        controller.gc.run(0.0, on_demand=False)
        assert stats.passes == 2
        assert stats.on_demand_passes == 1
