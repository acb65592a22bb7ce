"""Energy meter and wear tracker."""

import pytest

from repro.common.config import EnergyConfig
from repro.nvm.energy import EnergyMeter
from repro.nvm.wear import WearTracker


class TestEnergyMeter:
    def test_read_hit_cheaper_than_miss(self):
        meter = EnergyMeter()
        hit = meter.record_read(64, row_buffer_hit=True)
        miss = meter.record_read(64, row_buffer_hit=False)
        assert miss > hit

    def test_write_dominates_read(self):
        meter = EnergyMeter()
        read = meter.record_read(64, row_buffer_hit=False)
        write = meter.record_write(64, row_buffer_hit=False)
        assert write > read  # 16.82 pJ/bit array writes dominate

    def test_table_ii_read_numbers(self):
        meter = EnergyMeter(EnergyConfig())
        pj = meter.record_read(1, row_buffer_hit=True)
        assert pj == pytest.approx(8 * 0.93)

    def test_totals_and_reset(self):
        meter = EnergyMeter()
        meter.record_read(10, True)
        meter.record_write(10, True)
        assert meter.total_pj == pytest.approx(
            meter.read_pj + meter.write_pj
        )
        assert meter.total_nj == pytest.approx(meter.total_pj / 1000)
        snap = meter.snapshot()
        assert snap["total_pj"] == pytest.approx(meter.total_pj)
        meter.reset()
        assert meter.total_pj == 0


class TestWearTracker:
    def test_single_block_attribution(self):
        wear = WearTracker(block_bytes=1024)
        wear.record_write(100, 64)
        assert wear.writes_for_block(0) == 64
        assert wear.touched_blocks == 1

    def test_straddling_write_split(self):
        wear = WearTracker(block_bytes=1024)
        wear.record_write(1000, 100)
        assert wear.writes_for_block(0) == 24
        assert wear.writes_for_block(1) == 76
        assert wear.total_bytes == 100

    def test_multi_block_spanning_write(self):
        wear = WearTracker(block_bytes=100)
        wear.record_write(50, 300)
        assert wear.total_bytes == 300
        assert wear.touched_blocks == 4

    def test_spread_uniform_is_one(self):
        wear = WearTracker(block_bytes=100)
        for block in range(10):
            wear.record_write(block * 100, 50)
        assert wear.spread() == pytest.approx(1.0)

    def test_spread_detects_hotspots(self):
        wear = WearTracker(block_bytes=100)
        wear.record_write(0, 90)
        wear.record_write(100, 10)
        assert wear.spread() > 1.5

    def test_negative_or_zero_ignored(self):
        wear = WearTracker()
        wear.record_write(0, 0)
        assert wear.total_bytes == 0

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            WearTracker(block_bytes=0)
