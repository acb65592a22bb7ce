"""The forward cursor against the cold run, and what a fork copies.

A crash sweep runs its workload forward once on one live machine and
forks that machine at every boundary (``snapshot/replay.py``).  Three
things keep that honest, each checked here against a reference kept in
this file:

(a) every cursor case equals the cold ``run_case`` of the same fault
    plan — for every sweep scheme, including a boundary that equals a
    transaction's starting write count — and no fork re-runs a
    transaction;
(b) a fork clones only what can still change: the per-transaction
    bookkeeping of committed transactions and the immutable commit-log
    pages are shared, so restore cost grows with neither;
(c) the two structures that made that possible answer as before —
    ``CommitLog.retire`` against the deleted ``_tx_pages`` index,
    ``BlockRefs`` against a plain dict-of-sets model.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import FaultConfig, crashtest, snapshot
from repro.common.config import WRITES, Cut, SystemConfig
from repro.common.units import MB
from repro.core.block_refs import BlockRefs
from repro.core.commit_log import CommitLog
from repro.core.oop_region import OOPRegion
from repro.core.slices import SliceCodec
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice
from repro.schemes import PERSISTENT_SCHEME_NAMES
from repro.snapshot import clone_state
from repro.snapshot.replay import ForwardCursor
from repro.trace import run_txns
from repro.txn.system import MemorySystem

from tests.test_fork_isolation import _reachable

ALL_SCHEMES = sorted(PERSISTENT_SCHEME_NAMES)


def _machine(scheme, transactions, seed=7, addresses=12):
    """A fault-free machine after ``transactions`` committed transactions.

    Built on the fault device with nothing armed, like a cursor's.
    """
    system, txns = crashtest.build_workload(
        scheme, FaultConfig(enabled=True, seed=seed), seed=seed,
        transactions=transactions, addresses=addresses,
    )
    _, _, power_lost = run_txns(system, txns)
    assert not power_lost
    return system


def _tx_starts(scheme, **kwargs):
    """Timed writes before each transaction of the workload, run cold."""
    system, txns = crashtest.build_workload(
        scheme, FaultConfig(enabled=True, seed=kwargs["seed"]), **kwargs
    )
    starts = []
    for txn in txns:
        starts.append(system.device.stats.writes)
        run_txns(system, (txn,))
    return starts


def _plan(seed, boundary, torn):
    return FaultConfig(
        enabled=True,
        seed=seed ^ (boundary << 8),
        schedule=(Cut(WRITES, boundary, torn),),
    )


# -- (a) cursor cases == cold cases --------------------------------------------


class TestCursorMatchesCold:
    @settings(max_examples=24, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        seed=st.integers(0, 2**16),
        transactions=st.integers(2, 16),
        torn_mode=st.sampled_from(["never", "always", "alternate"]),
        data=st.data(),
    )
    def test_every_case_equals_run_case(
        self, scheme, seed, transactions, torn_mode, data
    ):
        kwargs = dict(seed=seed, transactions=transactions, addresses=6)
        cursor = crashtest.forward_cursor(
            partial(crashtest.build_workload, scheme, **kwargs), seed
        )
        total = cursor.total_writes
        assert total == _machine(scheme, **kwargs).device.stats.writes
        # A boundary equal to a transaction's starting count forks inside
        # that transaction's first write.
        starts = sorted({w for w in _tx_starts(scheme, **kwargs) if w >= 1})
        assume(starts)
        boundaries = data.draw(st.sets(st.integers(1, total), max_size=5))
        boundaries |= {1, total, data.draw(st.sampled_from(starts))}
        # Past the last write too: the finished machine, no power loss.
        boundaries = sorted(boundaries | {total + 3})
        cursor.expect(boundaries)
        for boundary in boundaries:
            faults = _plan(
                seed, boundary, crashtest._torn_for(boundary, torn_mode)
            )
            system, outcome = cursor.crash_at(faults)
            system.crash()
            got = crashtest._finish_case(system, faults, outcome, 2)
            want = crashtest.run_case(scheme, faults, **kwargs)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)

    def test_descending_boundary_raises(self):
        cursor = crashtest.forward_cursor(
            partial(
                crashtest.build_workload, "hoop", seed=3, transactions=6,
                addresses=4,
            ),
            3,
        )
        cursor.expect([9, 9])  # equal is fine: one fork each
        with pytest.raises(ValueError, match="ascend"):
            cursor.expect([8])
        clean = cursor.crash_at(_plan(3, 9, False))
        torn = cursor.crash_at(_plan(3, 9, True))
        assert clean[0] is not torn[0]
        with pytest.raises(ValueError, match="ascend"):
            cursor.crash_at(_plan(3, 8, False))
        with pytest.raises(ValueError, match="not announced"):
            cursor.crash_at(_plan(3, 10, False))

    def test_a_machine_that_already_wrote_is_refused(self):
        # A machine that issued timed writes before its first
        # transaction: boundary 1 would precede anything a fork can cut.
        system = crashtest._build_system(
            "hoop", FaultConfig(enabled=True, seed=3)
        )
        addr = system.allocate(64)
        for index in range(2):
            system.device.write(1 << 20 | 64 * index, b"\x01" * 64)
        with pytest.raises(ValueError, match="before txns"):
            ForwardCursor(system, [(0, [(addr, b"\x02" * 8)])])

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_forks_run_no_transaction_and_carry_no_hook(self, scheme):
        kwargs = dict(seed=5, transactions=10, addresses=6)
        cursor = crashtest.forward_cursor(
            partial(crashtest.build_workload, scheme, **kwargs), 5
        )
        boundaries = list(range(1, cursor.total_writes + 2))
        cursor.expect(boundaries)
        real_begin = MemorySystem._begin
        begun = []

        def begin(self, tx):
            begun.append(self)
            return real_begin(self, tx)

        with mock.patch.object(MemorySystem, "_begin", begin):
            forks = []
            for boundary in boundaries:
                fork, outcome = cursor.crash_at(
                    _plan(5, boundary, boundary % 2 == 1)
                )
                assert outcome.power_lost == (boundary < cursor.total_writes)
                injector = fork.device.injector
                assert injector.fork_at is None and injector.fork_hook is None
                forks.append(fork)
        # Only the live machine ran transactions, each exactly once.
        assert begun and all(system is cursor._system for system in begun)
        assert len(begun) == kwargs["transactions"]
        live = cursor._system.device.injector
        assert live.fork_at is None and live.fork_hook is None


# -- (b) what a fork copies -----------------------------------------------------


def _objects_copied(system) -> int:
    """Distinct objects a fork (a power-cut image) holds that ``system``
    does not share with it."""
    live = _reachable(system)
    return sum(key not in live for key in _reachable(snapshot.power_cut(system)))


def _commit_logs(system):
    controllers = getattr(system.scheme, "controllers", None) or [
        system.scheme.controller
    ]
    return [c.commit_log for c in controllers]


@pytest.mark.parametrize("scheme", ["hoop", "hoop-mc"])
def test_fork_cost_grows_with_neither_log_pages_nor_transactions(scheme):
    n = 114
    small, large = _machine(scheme, n), _machine(scheme, 2 * n)
    for system, committed in ((small, n), (large, 2 * n)):
        # Nothing retired yet: every transaction is still bookkept (on
        # hoop-mc, once per controller it touched).
        logs = _commit_logs(system)
        assert not any(log.retired for log in logs)
        assert sum(log.live_count for log in logs) >= committed
    extra_pages = sum(len(log._pages) for log in _commit_logs(large)) - sum(
        len(log._pages) for log in _commit_logs(small)
    )
    assert extra_pages > 0
    copied_small, copied_large = _objects_copied(small), _objects_copied(large)
    # Commit-log pages are immutable and shared, so a fork copies the
    # same objects however many pages (or transactions) there are.
    assert 0 < copied_large <= copied_small
    if scheme == "hoop":
        # 611 with a set and a list per tx; +3 per page with mutable pages.
        assert copied_large <= 120


# -- (c) retire() against the deleted tx -> pages index ---------------------------


class _IndexedCommitLog(CommitLog):
    """The implementation this repo deleted: ``_tx_pages`` kept in step.

    Pages are immutable, so the index names them by slice index and a
    retire replaces each page it changes.
    """

    def __init__(self, region, codec):
        super().__init__(region, codec)
        self._tx_pages = {}

    def append_entry(self, tx_id, tail_slice, committed, now_ns):
        done = super().append_entry(tx_id, tail_slice, committed, now_ns)
        self._tx_pages.setdefault(tx_id, []).append(self._pages[-1].slice_index)
        return done

    def _position(self, slice_index):
        for position, page in enumerate(self._pages):
            if page.slice_index == slice_index:
                return position
        raise KeyError(slice_index)

    def retire(self, tx_ids, now_ns):
        ids = set(tx_ids)
        dirty = []
        for tx_id in ids:
            for slice_index in self._tx_pages.get(tx_id, []):
                position = self._position(slice_index)
                page = self._pages[position]
                entries = [
                    dataclasses.replace(entry, retired=True)
                    if entry.tx_id == tx_id and not entry.retired
                    else entry
                    for entry in page.entries
                ]
                changed = sum(
                    a is not b for a, b in zip(entries, page.entries)
                )
                self.retired += changed
                if changed:
                    self._pages[position] = dataclasses.replace(
                        page, entries=tuple(entries)
                    )
                    if slice_index not in dirty:
                        dirty.append(slice_index)
        completion = now_ns
        for slice_index in dirty:
            completion = self._flush_page(
                self._pages[self._position(slice_index)], now_ns, sync=True
            )
        return completion

    def drop_pages(self, slice_indexes):
        doomed = set(slice_indexes)
        dropped = [p for p in self._pages if p.slice_index in doomed]
        super().drop_pages(doomed)
        for page in dropped:
            for entry in page.entries:
                pages = self._tx_pages.get(entry.tx_id)
                if pages is not None:
                    pages[:] = [p for p in pages if p != page.slice_index]
                    if not pages:
                        del self._tx_pages[entry.tx_id]

    def rebuild(self, pages):
        super().rebuild(pages)
        self._tx_pages = {}
        for page in self._pages:
            for entry in page.entries:
                self._tx_pages.setdefault(entry.tx_id, []).append(
                    page.slice_index
                )


def _log_rig(cls):
    """A commit log of class ``cls`` plus the slice writes it issues."""
    config = SystemConfig.small(nvm_capacity=16 * MB)
    region = OOPRegion(config, MemoryPort(NVMDevice(config.nvm)))
    writes = []
    real = region.write_slice

    def recording(slice_index, raw, now_ns, *, sync):
        done = real(slice_index, raw, now_ns, sync=sync)
        writes.append((slice_index, raw, now_ns, sync, done))
        return done

    region.write_slice = recording
    codec = SliceCodec(config.hoop.home_addr_bits)
    # Three-entry pages: a short op sequence already spans many pages.
    codec.entries_per_addr_slice = 3
    return cls(region, codec), writes


# Scattered ids, so a set of them does not iterate in ascending order;
# few enough that a transaction's entries often span two pages.
_TX_IDS = st.sampled_from([(i * 7919) % 1000 + 1 for i in range(10)])
_APPEND = st.tuples(st.just("append"), _TX_IDS, st.booleans())
_LOG_OPS = st.one_of(
    _APPEND,
    _APPEND,
    _APPEND,
    _APPEND,
    st.tuples(st.just("flush")),
    st.tuples(st.just("retire"), st.sets(_TX_IDS, max_size=6)),
    st.tuples(st.just("drop")),
    st.tuples(st.just("rebuild")),
)


def _run_log_ops(log, ops):
    results = []
    for step, op in enumerate(ops):
        now = 250.0 * step
        if op[0] == "append":
            results.append(log.append_entry(op[1], step, op[2], now))
        elif op[0] == "flush":
            results.append(log.flush_dirty(now))
        elif op[0] == "retire":
            results.append(log.retire(op[1], now))
        elif op[0] == "drop":
            doomed = log.fully_retired_pages()
            log.drop_pages(doomed)
            results.append(doomed)
        else:  # crash, then recover the pages that were durable
            log.flush_dirty(now)
            pages = [
                (p.slice_index, p.entries, p.sequence)
                for p in reversed(log._pages)
            ]
            log.crash()
            log.rebuild(pages)
    return results


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_LOG_OPS, min_size=25, max_size=120))
def test_retire_matches_the_indexed_reference(ops):
    log, writes = _log_rig(CommitLog)
    reference, reference_writes = _log_rig(_IndexedCommitLog)
    assert _run_log_ops(log, ops) == _run_log_ops(reference, ops)
    # Same pages, same order, same bytes, same instants, same completions.
    assert writes == reference_writes
    assert log._pages == reference._pages
    assert (log.retired, log.commits, log.segments) == (
        reference.retired,
        reference.commits,
        reference.segments,
    )


# -- (c) BlockRefs against a dict-of-sets model -------------------------------------


class _RefsModel:
    def __init__(self):
        self.block_txs = {}
        self.tx_blocks = {}

    def apply(self, op):
        kind, tx_id, block = op
        if kind == "written":
            self.block_txs.setdefault(block, set()).add(tx_id)
            self.tx_blocks.setdefault(tx_id, set()).add(block)
        elif kind == "retired":
            for b in self.tx_blocks.pop(tx_id, set()):
                self.block_txs[b].discard(tx_id)

    def copy(self):
        twin = _RefsModel()
        twin.block_txs = {b: set(t) for b, t in self.block_txs.items()}
        twin.tx_blocks = {t: set(b) for t, b in self.tx_blocks.items()}
        return twin


_REF_TXS = range(1, 9)
_REF_BLOCKS = range(6)
_REF_OPS = st.tuples(
    st.sampled_from(["begin", "written", "written", "commit", "retired"]),
    st.sampled_from(_REF_TXS),
    st.sampled_from(_REF_BLOCKS),
)


def _apply_ref_op(refs, op):
    kind, tx_id, block = op
    if kind == "begin":
        refs.on_tx_begin(tx_id)
    elif kind == "written":
        refs.on_slice_written(tx_id, block)
    elif kind == "commit":
        refs.on_tx_commit(tx_id)
    else:
        refs.on_tx_retired(tx_id)


def _assert_refs_answer_like(refs, model):
    for tx_id in _REF_TXS:
        assert refs.blocks_of(tx_id) == model.tx_blocks.get(tx_id, set())
    for block in _REF_BLOCKS:
        live = model.block_txs.get(block, set())
        assert refs.live_txs_in(block) == live
        assert refs.is_reclaimable(block) == (not live)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_REF_OPS, min_size=10, max_size=60), data=st.data())
def test_block_refs_answer_like_a_dict_of_sets(ops, data):
    fork_at = data.draw(st.integers(0, len(ops)))
    refs, model = BlockRefs(), _RefsModel()
    for op in ops[:fork_at]:
        _apply_ref_op(refs, op)
        model.apply(op)
        _assert_refs_answer_like(refs, model)
    # A clone taken here and run first must not disturb the original
    # (the frozen per-transaction sets are shared between the two).
    clone, clone_model = clone_state(refs), model.copy()
    for op in ops[fork_at:]:
        _apply_ref_op(clone, op)
        clone_model.apply(op)
        _assert_refs_answer_like(clone, clone_model)
    _assert_refs_answer_like(refs, model)
    for op in ops[fork_at:]:
        _apply_ref_op(refs, op)
        model.apply(op)
        _assert_refs_answer_like(refs, model)
    assert refs.open_transactions() == clone.open_transactions()
