"""§III-I extensions and ablation knobs: condensing, packing, coalescing."""

import dataclasses
import random

import pytest

from repro import MemorySystem, SystemConfig
from repro.common.config import GCConfig, HoopConfig
from repro.common.errors import ConfigError
from repro.core.mapping_table import MappingTable, OOPLocation


def loc(slice_index=5, slot=0, in_buffer=False):
    return OOPLocation(
        in_buffer=in_buffer, slice_index=slice_index, word_slot=slot
    )


class TestMappingCondensing:
    def test_full_same_slice_line_condenses(self):
        table = MappingTable(64, condense=True)
        for i in range(8):
            table.record(0x1000 + i * 8, loc(slot=i))
        assert table.entries == 1  # eight words, one entry
        assert table.stats.condensed_lines == 1
        # Lookups unchanged.
        assert len(table.lookup_line(0x1000)) == 8

    def test_mixed_slice_line_does_not_condense(self):
        table = MappingTable(64, condense=True)
        for i in range(8):
            table.record(0x1000 + i * 8, loc(slice_index=5 + (i % 2)))
        assert table.entries == 8

    def test_partial_line_does_not_condense(self):
        table = MappingTable(64, condense=True)
        for i in range(7):
            table.record(0x1000 + i * 8, loc())
        assert table.entries == 7

    def test_update_to_other_slice_uncondenses(self):
        table = MappingTable(64, condense=True)
        for i in range(8):
            table.record(0x1000 + i * 8, loc())
        assert table.entries == 1
        table.record(0x1000, loc(slice_index=77))
        assert table.entries == 8

    def test_removal_restores_accounting(self):
        table = MappingTable(64, condense=True)
        for i in range(8):
            table.record(0x1000 + i * 8, loc())
        for i in range(8):
            assert table.remove_migrated(0x1000 + i * 8, 5, 0)
        assert table.entries == 0

    def test_remove_if_stale_on_condensed_line(self):
        table = MappingTable(64, condense=True)
        for i in range(8):
            table.record(0x1000 + i * 8, loc())
        assert table.entries == 1
        assert table.remove_migrated(0x1000, 5, 0)
        assert table.entries == 7  # un-condensed, then one word fewer

    def test_disabled_by_default(self):
        table = MappingTable(64)
        for i in range(8):
            table.record(0x1000 + i * 8, loc())
        assert table.entries == 8

    def test_condensed_system_still_crash_consistent(self):
        config = SystemConfig.small()
        hoop = dataclasses.replace(config.hoop, condense_mapping=True)
        config = config.replace(hoop=hoop)
        system = MemorySystem(config, scheme="hoop")
        rng = random.Random(8)
        addrs = [system.allocate(64) for _ in range(16)]
        oracle = {}
        for _ in range(150):
            with system.transaction(rng.randrange(4)) as tx:
                # Full-line writes so condensing actually triggers.
                addr = rng.choice(addrs)
                value = rng.getrandbits(64).to_bytes(8, "little") * 8
                tx.store(addr, value)
                oracle[addr] = value
        stats = system.scheme.controller.mapping.stats
        assert stats.condensed_lines > 0
        system.crash()
        system.recover(threads=2)
        for addr, value in oracle.items():
            assert system.durable_state(addr, 64) == value

    def test_condensing_reduces_peak_occupancy(self):
        def peak(condense):
            config = SystemConfig.small()
            hoop = dataclasses.replace(
                config.hoop,
                condense_mapping=condense,
                gc=GCConfig(period_ns=1e15),
            )
            config = config.replace(hoop=hoop)
            system = MemorySystem(config, scheme="hoop")
            addrs = [system.allocate(64) for _ in range(32)]
            for addr in addrs:
                with system.transaction() as tx:
                    tx.store(addr, b"z" * 64)
            return system.scheme.controller.mapping.stats.peak_entries

        assert peak(True) < peak(False)


class TestPackingAblation:
    def _traffic(self, degree):
        config = SystemConfig.small()
        hoop = dataclasses.replace(config.hoop, packing_degree=degree)
        config = config.replace(hoop=hoop)
        system = MemorySystem(config, scheme="hoop")
        rng = random.Random(3)
        addrs = [system.allocate(64) for _ in range(16)]
        for _ in range(100):
            with system.transaction() as tx:
                for _ in range(6):
                    tx.store_u64(
                        rng.choice(addrs) + 8 * rng.randrange(8),
                        rng.getrandbits(63),
                    )
        system.scheme.quiesce(system.now_ns)
        return system.device.stats.bytes_written

    def test_unpacked_writes_far_more(self):
        # One word per 128-byte slice vs eight: the data-packing claim.
        assert self._traffic(1) > 2.5 * self._traffic(None)

    def test_intermediate_degrees_monotone(self):
        t1, t4, t8 = (
            self._traffic(1),
            self._traffic(4),
            self._traffic(8),
        )
        assert t1 > t4 > t8 * 0.95

    def test_invalid_degree_rejected(self):
        with pytest.raises(ConfigError):
            HoopConfig(packing_degree=0)
        with pytest.raises(ConfigError):
            HoopConfig(packing_degree=9)

    def test_unpacked_still_crash_consistent(self):
        config = SystemConfig.small()
        hoop = dataclasses.replace(config.hoop, packing_degree=1)
        config = config.replace(hoop=hoop)
        system = MemorySystem(config, scheme="hoop")
        addr = system.allocate(64)
        with system.transaction() as tx:
            tx.store(addr, b"unpacked" * 8)
        system.crash()
        system.recover()
        assert system.durable_state(addr, 64) == b"unpacked" * 8


class TestCoalescingAblation:
    def _gc_migrated(self, coalesce):
        config = SystemConfig.small()
        hoop = dataclasses.replace(
            config.hoop,
            gc=GCConfig(period_ns=1e15, coalesce=coalesce),
        )
        config = config.replace(hoop=hoop)
        system = MemorySystem(config, scheme="hoop")
        addr = system.allocate(64)
        for i in range(50):
            with system.transaction() as tx:
                tx.store_u64(addr, i)
        report = system.scheme.controller.gc.run(
            system.now_ns, on_demand=True
        )
        return report, system

    def test_coalescing_collapses_overwrites(self):
        report, _ = self._gc_migrated(True)
        assert report.words_migrated == 1
        assert report.data_reduction_ratio == pytest.approx(0.98)

    def test_ablated_gc_writes_every_version(self):
        report, system = self._gc_migrated(False)
        assert report.words_migrated == 50
        assert report.data_reduction_ratio == 0.0
        # Correctness holds either way: the newest version lands last.
        assert int.from_bytes(system.durable_state(
            system.heap.base, 8), "little") == 49
