"""Mapping table and eviction buffer."""

import pytest

from repro.common.addr import CACHE_LINE_BYTES
from repro.core.eviction_buffer import EvictionBuffer
from repro.core.mapping_table import MappingTable, OOPLocation


def loc(slice_index=0, slot=0, in_buffer=False):
    return OOPLocation(
        in_buffer=in_buffer, slice_index=slice_index, word_slot=slot
    )


# The buffer markers of cores 0 and 1: every word a core has buffered
# maps to its marker.
CORE0 = loc(slice_index=0, in_buffer=True)
CORE1 = loc(slice_index=1, in_buffer=True)


class TestMappingTable:
    def test_record_and_lookup(self):
        table = MappingTable(16)
        table.record(0x1000, loc(slice_index=3))
        assert table.lookup_word(0x1000) == loc(slice_index=3)
        assert table.entries == 1

    def test_line_grouping(self):
        table = MappingTable(16)
        table.record(0x1000, loc(slot=1))
        table.record(0x1008, loc(slot=2))
        table.record(0x2000, loc(slot=3))
        line = table.lookup_line(0x1000)
        assert set(line) == {0x1000, 0x1008}

    def test_lookup_miss(self):
        table = MappingTable(16)
        assert table.lookup_line(0x9000) is None
        assert table.stats.line_misses == 1

    def test_update_replaces_in_place(self):
        table = MappingTable(16)
        table.record(0x1000, loc(slice_index=1))
        table.record(0x1000, loc(slice_index=2))
        assert table.entries == 1
        assert table.lookup_word(0x1000).slice_index == 2
        assert table.stats.updates == 1

    def test_relocate_buffered_matches_marker(self):
        table = MappingTable(16)
        table.record(0x1000, CORE0)
        table.record(0x1008, CORE0)
        table.relocate_flushed((0x1000, 0x1008), 77, CORE0)
        assert table.lookup_word(0x1000) == loc(slice_index=77, slot=0)
        assert table.lookup_word(0x1008) == loc(slice_index=77, slot=1)

    def test_relocate_buffered_skips_superseded(self):
        # Core 1 stored 0x1000 after core 0 did: core 0's flush of its
        # older value leaves core 1's marker alone.
        table = MappingTable(16)
        table.record(0x1000, CORE1)
        table.record(0x1008, CORE0)
        table.relocate_flushed((0x1000, 0x1008), 77, CORE0)
        assert table.lookup_word(0x1000) == CORE1  # newer store kept
        # ... and the slot numbering still counts the superseded word.
        assert table.lookup_word(0x1008).word_slot == 1

    def test_relocate_skips_words_already_flushed_or_gone(self):
        table = MappingTable(16)
        table.record(0x1000, loc(slice_index=3))  # not in the buffer
        table.relocate_flushed((0x1000, 0x2000), 77, CORE0)
        assert table.lookup_word(0x1000).slice_index == 3
        assert table.lookup_word(0x2000) is None
        assert table.entries == 1

    def test_remove_if_stale(self):
        table = MappingTable(16)
        table.record(0x1000, loc(slice_index=4, slot=2))
        assert table.remove_migrated(0x1000, 4, 2)
        assert table.entries == 0
        assert table.stats.removes == 1
        assert not table.remove_migrated(0x1000, 4, 2)  # already gone

    def test_remove_if_stale_keeps_newer(self):
        # GC migrated the copy in slice 4 slot 2; a newer store has since
        # moved the entry — to another slice, another slot, or the buffer.
        for newer in (
            loc(slice_index=9, slot=2),
            loc(slice_index=4, slot=5),
            loc(slice_index=4, slot=2, in_buffer=True),
        ):
            table = MappingTable(16)
            table.record(0x1000, newer)
            assert not table.remove_migrated(0x1000, 4, 2)
            assert table.entries == 1
            assert table.stats.removes == 0

    def test_overflow_counted_not_fatal(self):
        table = MappingTable(2)
        for i in range(4):
            table.record(i * 8, loc(slot=i))
        assert table.entries == 4
        assert table.stats.overflow_events == 2
        assert table.fill_fraction == 2.0

    def test_peak_entries(self):
        table = MappingTable(16)
        table.record(0x0, loc(slot=1))
        table.record(0x8, loc(slot=2))
        assert table.remove_migrated(0x0, 0, 1)
        assert table.remove_migrated(0x8, 0, 2)
        assert table.entries == 0
        assert table.stats.peak_entries == 2

    def test_crash_clears(self):
        table = MappingTable(16)
        table.record(0x1000, loc())
        table.crash()
        assert table.entries == 0
        assert table.lookup_word(0x1000) is None

    def test_iteration(self):
        table = MappingTable(16)
        table.record(0x1000, loc(slot=1))
        table.record(0x2000, loc(slot=2))
        assert sorted(a for a, _ in table.iter_words()) == [0x1000, 0x2000]
        assert sorted(table.tracked_lines()) == [0x1000, 0x2000]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            MappingTable(0)


class TestEvictionBuffer:
    def test_insert_and_lookup(self):
        buf = EvictionBuffer(4)
        buf.insert(0x1000, b"A" * 64)
        assert buf.lookup(0x1010) == b"A" * 64  # any addr in the line
        assert buf.stats.hits == 1

    def test_miss_counted(self):
        buf = EvictionBuffer(4)
        assert buf.lookup(0x1000) is None
        assert buf.stats.misses == 1

    def test_fifo_eviction(self):
        buf = EvictionBuffer(2)
        buf.insert(0x0, b"0" * 64)
        buf.insert(0x40, b"1" * 64)
        buf.insert(0x80, b"2" * 64)
        assert buf.lookup(0x0) is None
        assert buf.lookup(0x80) is not None
        assert buf.stats.fifo_drops == 1

    def test_reinsert_refreshes(self):
        buf = EvictionBuffer(2)
        buf.insert(0x0, b"0" * 64)
        buf.insert(0x40, b"1" * 64)
        buf.insert(0x0, b"9" * 64)  # refresh
        buf.insert(0x80, b"2" * 64)  # drops 0x40, not 0x0
        assert buf.lookup(0x0) == b"9" * 64
        assert buf.lookup(0x40) is None

    def test_requires_full_lines(self):
        buf = EvictionBuffer(2)
        with pytest.raises(ValueError):
            buf.insert(0x0, b"short")

    def test_crash_clears(self):
        buf = EvictionBuffer(2)
        buf.insert(0x0, b"0" * CACHE_LINE_BYTES)
        buf.crash()
        assert buf.occupancy == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvictionBuffer(0)
