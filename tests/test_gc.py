"""Garbage collection: coalescing, commit-order prefix, reclamation."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import snapshot
from repro.common.config import SystemConfig
from repro.common.units import MB
from repro.core.controller import HoopController
from repro.core.oop_region import BlockState
from repro.core.slices import SLICE_BYTES
from repro.harness.experiments import build_cell, get_scale
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


# -- the codec's decode memo across reclaims ------------------------------------

_SMOKE = get_scale("smoke")


class _Disturbed:
    """A workload that runs ``actions[i]`` after its ``i``-th transaction."""

    def __init__(self, workload, actions):
        self.workload = workload
        self.name = workload.name
        self.actions = actions
        self.done = 0

    def setup(self, core=0):
        self.workload.setup(core)

    def do_transaction(self, core, rng):
        self.workload.do_transaction(core, rng)
        action = self.actions.get(self.done)
        if action is not None:
            action()
        self.done += 1


def _smoke_hoop_run(actions_for=lambda system: {}):
    """A smoke-scale hoop hashmap run; ``(system, RunResult)``."""
    system, workload, driver = build_cell(_SMOKE, "hoop", "hashmap", 7)
    workload = _Disturbed(workload, actions_for(system))
    result = driver.run(
        workload, _SMOKE.transactions, warmup=_SMOKE.warmup
    )
    return system, result


def _outcome(system, result) -> str:
    """Everything a memo disturbance must leave byte-identical."""
    ctrl = system.scheme.controller
    return repr((
        result,
        ctrl.gc.stats,
        ctrl.buffer.stats,
        ctrl.mapping.stats,
        system.device.content_fingerprint(),
    ))


def _fork_collects(system, reclaimed):
    """Fork ``system`` and let the fork run an on-demand GC pass."""

    def action():
        fork = snapshot.clone_state(system)
        fork_ctrl = fork.scheme.controller
        assert fork_ctrl.codec is system.scheme.controller.codec
        report = fork_ctrl.gc.run(fork.now_ns, on_demand=True)
        reclaimed.append(report.blocks_collected)

    return action


def test_reclaimed_blocks_leave_no_decode_in_the_memo():
    system, _ = _smoke_hoop_run()
    ctrl = system.scheme.controller
    region = ctrl.region
    memo = ctrl.codec._decode_cache
    assert ctrl.gc.stats.passes > 1
    assert region.stats.blocks_reclaimed > 1
    stale = 0
    for block in range(region.num_blocks):
        if region.state_of(block) != BlockState.UNUSED:
            continue
        raw = system.device.peek(region.block_base(block), region.block_bytes)
        for slot in range(1, region.slots_per_block + 1):
            offset = slot * SLICE_BYTES
            stale += raw[offset : offset + SLICE_BYTES] in memo
    assert stale == 0


@functools.lru_cache(maxsize=None)
def _undisturbed() -> str:
    return _outcome(*_smoke_hoop_run())


def test_a_fork_reclaiming_blocks_leaves_the_original_run_unchanged():
    reclaimed = []

    def actions_for(system):
        fork = _fork_collects(system, reclaimed)
        return {i: fork for i in range(5, 220, 30)}

    assert _outcome(*_smoke_hoop_run(actions_for)) == _undisturbed()
    assert sum(reclaimed) > 0


_TX_INDEX = st.integers(0, _SMOKE.warmup + _SMOKE.transactions - 1)
_DISTURBANCE = st.one_of(
    st.tuples(st.just("evict"), st.sampled_from(["data", "addr"]),
              st.floats(0.0, 1.0), st.integers(0, 2**32)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("fork")),
)


@settings(max_examples=8, deadline=None)
@given(st.dictionaries(_TX_INDEX, _DISTURBANCE, min_size=1, max_size=12))
def test_the_decode_memo_is_a_pure_cache(schedule):
    """Evicting, clearing or sharing the memo changes no output."""

    def actions_for(system):
        codec = system.scheme.controller.codec

        def evict(which, share, seed):
            memo = codec._decode_cache if which == "data" else codec._addr_cache
            keys = list(memo)
            for key in random.Random(seed).sample(keys, int(len(keys) * share)):
                del memo[key]

        actions = {}
        for index, (kind, *args) in schedule.items():
            if kind == "evict":
                actions[index] = functools.partial(evict, *args)
            elif kind == "clear":
                actions[index] = codec._decode_cache.clear
            else:
                actions[index] = _fork_collects(system, [])
        return actions

    assert _outcome(*_smoke_hoop_run(actions_for)) == _undisturbed()
