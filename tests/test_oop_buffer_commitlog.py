"""OOP data buffer (packing) and commit log (lazy pages, retire)."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import TransactionError
from repro.common.units import MB
from repro.core.commit_log import CommitLog
from repro.core.mapping_table import MappingTable
from repro.core.oop_buffer import OOPDataBuffer
from repro.core.oop_region import OOPRegion
from repro.core.slices import STATE_LAST, SliceCodec
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice


@pytest.fixture
def rig():
    config = SystemConfig.small(nvm_capacity=16 * MB)
    device = NVMDevice(config.nvm)
    port = MemoryPort(device)
    region = OOPRegion(config, port)
    codec = SliceCodec(config.hoop.home_addr_bits)
    mapping = MappingTable(config.hoop.mapping_table_entries)
    buffer = OOPDataBuffer(config, region, codec, mapping)
    log = CommitLog(region, codec)
    return config, region, codec, mapping, buffer, log


def word(i):
    return i.to_bytes(8, "little")


def add_one(buffer, core, word_addr, value):
    """Stage one word as a run of one."""
    buffer.add_words(core, word_addr, 8, word_addr, value, 0.0)


class TestOOPDataBuffer:
    def test_words_stay_buffered_until_overflow(self, rig):
        _, region, codec, mapping, buffer, _ = rig
        buffer.begin(0, tx_id=1)
        for i in range(codec.words_per_slice):
            add_one(buffer, 0, i * 8, word(i))
        assert buffer.stats.slices_written == 0
        assert buffer.pending_count(0) == codec.words_per_slice

    def test_overflow_packs_one_slice(self, rig):
        _, region, codec, _, buffer, _ = rig
        buffer.begin(0, tx_id=1)
        for i in range(codec.words_per_slice + 1):
            add_one(buffer, 0, i * 8, word(i))
        assert buffer.stats.slices_written == 1
        assert buffer.pending_count(0) == 1

    def test_same_word_dedupes(self, rig):
        _, _, _, mapping, buffer, _ = rig
        buffer.begin(0, tx_id=1)
        add_one(buffer, 0, 0, word(1))
        add_one(buffer, 0, 0, word(2))
        assert buffer.pending_count(0) == 1
        assert buffer.stats.words_deduped == 1
        assert buffer.buffered_word(0, 0) == word(2)
        assert mapping.lookup_word(0) == (True, 0, 0)  # core 0's marker

    def test_mapping_points_into_buffer_then_slice(self, rig):
        _, region, codec, mapping, buffer, _ = rig
        buffer.begin(0, tx_id=1)
        add_one(buffer, 0, 0, word(7))
        assert mapping.lookup_word(0).in_buffer
        tails, _ = buffer.tx_end(0, 0.0)
        entry = mapping.lookup_word(0)
        assert not entry.in_buffer
        assert entry.slice_index == tails[-1]

    def test_tx_end_writes_last_slice(self, rig):
        _, region, codec, _, buffer, _ = rig
        buffer.begin(0, tx_id=5)
        for i in range(3):
            add_one(buffer, 0, i * 8, word(i))
        tails, completion = buffer.tx_end(0, 10.0)
        assert len(tails) == 1
        assert completion > 10.0
        raw, _ = region.read_slice(tails[0], 0.0)
        ds = codec.decode_data(raw)
        assert ds.state == STATE_LAST
        assert ds.tx_id == 5
        assert len(ds.words) == 3

    def test_chain_links_backwards(self, rig):
        _, region, codec, _, buffer, _ = rig
        buffer.begin(0, tx_id=2)
        for i in range(codec.words_per_slice + 2):
            add_one(buffer, 0, i * 8, word(i))
        tails, _ = buffer.tx_end(0, 0.0)
        raw, _ = region.read_slice(tails[-1], 0.0)
        last = codec.decode_data(raw)
        assert last.prev_delta is not None
        prev_index = tails[-1] - last.prev_delta
        raw, _ = region.read_slice(prev_index, 0.0)
        first = codec.decode_data(raw)
        assert first.is_start and first.prev_delta is None

    def test_empty_tx_returns_no_segments(self, rig):
        _, _, _, _, buffer, _ = rig
        buffer.begin(0, tx_id=3)
        tails, completion = buffer.tx_end(0, 4.0)
        assert tails == []
        assert completion == 4.0

    def test_double_begin_rejected(self, rig):
        _, _, _, _, buffer, _ = rig
        buffer.begin(0, tx_id=1)
        with pytest.raises(TransactionError):
            buffer.begin(0, tx_id=2)

    def test_store_without_tx_rejected(self, rig):
        _, _, _, _, buffer, _ = rig
        with pytest.raises(TransactionError):
            add_one(buffer, 0, 0, word(0))

    def test_per_core_isolation(self, rig):
        _, _, _, _, buffer, _ = rig
        buffer.begin(0, tx_id=1)
        buffer.begin(1, tx_id=2)
        add_one(buffer, 0, 0, word(1))
        add_one(buffer, 1, 8, word(2))
        assert buffer.buffered_word(0, 0) == word(1)
        assert buffer.buffered_word(1, 0) is None
        assert buffer.open_tx(0) == 1
        assert buffer.open_tx(1) == 2

    def test_crash_drops_pending(self, rig):
        _, _, _, _, buffer, _ = rig
        buffer.begin(0, tx_id=1)
        add_one(buffer, 0, 0, word(1))
        buffer.crash()
        assert buffer.open_tx(0) is None
        assert buffer.buffered_word(0, 0) is None


class TestCommitLog:
    def test_committed_entry_is_lazy(self, rig):
        _, region, _, _, _, log = rig
        writes_before = region.port.stats.sync_writes
        log.append_entry(1, 10, committed=True, now_ns=0.0)
        assert region.port.stats.sync_writes == writes_before
        assert log.commits == 1

    def test_segment_entry_is_eager(self, rig):
        _, region, _, _, _, log = rig
        writes_before = region.port.stats.sync_writes
        log.append_entry(1, 10, committed=False, now_ns=0.0)
        assert region.port.stats.sync_writes == writes_before + 1

    def test_page_flush_when_full(self, rig):
        _, region, codec, _, _, log = rig
        async_before = region.port.stats.async_writes
        for i in range(codec.entries_per_addr_slice):
            log.append_entry(i + 1, i, committed=True, now_ns=0.0)
        assert region.port.stats.async_writes > async_before

    def test_committed_transactions_grouping(self, rig):
        _, _, _, _, _, log = rig
        log.append_entry(1, 10, committed=False, now_ns=0.0)
        log.append_entry(1, 20, committed=True, now_ns=0.0)
        log.append_entry(2, 30, committed=True, now_ns=0.0)
        txs = {tx.tx_id: tx for tx in log.analyse().logged()}
        assert txs[1].segment_tails == (10, 20)
        assert txs[2].segment_tails == (30,)

    def test_retire_excludes_from_committed(self, rig):
        _, _, _, _, _, log = rig
        log.append_entry(1, 10, committed=True, now_ns=0.0)
        log.append_entry(2, 20, committed=True, now_ns=0.0)
        log.retire([1], now_ns=0.0)
        remaining = [tx.tx_id for tx in log.analyse().logged()]
        assert remaining == [2]
        assert log.retired == 1

    def test_retire_is_durable(self, rig):
        _, region, codec, _, _, log = rig
        sync_before = region.port.stats.sync_writes
        log.append_entry(1, 10, committed=True, now_ns=0.0)
        log.retire([1], now_ns=0.0)
        assert region.port.stats.sync_writes > sync_before

    def test_fully_retired_pages(self, rig):
        _, _, codec, _, _, log = rig
        per_page = codec.entries_per_addr_slice
        for i in range(per_page + 1):  # spills into a second page
            log.append_entry(i + 1, i, committed=True, now_ns=0.0)
        log.retire(range(1, per_page + 1), now_ns=0.0)
        pages = log.fully_retired_pages()
        assert len(pages) == 1
        log.drop_pages(pages)
        assert log.fully_retired_pages() == []

    def test_known_and_open_segments(self, rig):
        _, _, _, _, _, log = rig
        log.append_entry(5, 100, committed=False, now_ns=0.0)
        analysis = log.analyse()
        assert 5 in analysis.known
        assert analysis.open_segments == {5: (100,)}
        assert analysis.logged() == []

    def test_crash_and_rebuild_via_flush(self, rig):
        _, region, codec, _, _, log = rig
        log.append_entry(1, 10, committed=True, now_ns=0.0)
        log.flush_dirty(0.0)
        pages = [(p.slice_index, p.entries, p.sequence) for p in log._pages]
        log.crash()
        assert log.analyse().logged() == []
        log.rebuild(pages)
        assert [tx.tx_id for tx in log.analyse().logged()] == [1]

    def test_live_count(self, rig):
        _, _, _, _, _, log = rig
        log.append_entry(1, 10, committed=True, now_ns=0.0)
        log.append_entry(2, 20, committed=True, now_ns=0.0)
        assert log.live_count == 2
        log.retire([1], now_ns=0.0)
        assert log.live_count == 1
