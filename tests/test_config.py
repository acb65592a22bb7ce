"""Configuration defaults (Table II / §III-H) and validation."""

import pathlib
import re

import pytest

from repro.common.config import (
    CacheConfig,
    EnergyConfig,
    GCConfig,
    HoopConfig,
    NVMConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError
from repro.common.units import GB, KB, MB, MS


class TestTableIIDefaults:
    def test_processor(self):
        cfg = SystemConfig.paper_default()
        assert cfg.num_cores == 16
        assert cfg.core_freq_hz == pytest.approx(2.5e9)

    def test_cache_hierarchy(self):
        cfg = SystemConfig.paper_default()
        assert (cfg.l1.size, cfg.l1.ways) == (32 * KB, 4)
        assert (cfg.l2.size, cfg.l2.ways) == (256 * KB, 8)
        assert (cfg.llc.size, cfg.llc.ways) == (2 * MB, 16)

    def test_nvm_parameters(self):
        nvm = SystemConfig.paper_default().nvm
        assert nvm.capacity == 512 * GB
        assert nvm.read_latency_ns == 50.0
        assert nvm.write_latency_ns == 150.0
        assert nvm.energy.row_buffer_read_pj_per_bit == 0.93
        assert nvm.energy.array_write_pj_per_bit == 16.82

    def test_hoop_hardware_budget(self):
        hoop = SystemConfig.paper_default().hoop
        assert hoop.mapping_table_bytes == 2 * MB
        assert hoop.oop_buffer_bytes_per_core == 1 * KB
        assert hoop.eviction_buffer_bytes == 128 * KB
        assert hoop.oop_block_bytes == 2 * MB
        assert hoop.slice_bytes == 128
        assert hoop.gc.period_ns == 10 * MS

    def test_oop_region_is_ten_percent(self):
        cfg = SystemConfig.paper_default()
        assert cfg.oop_region_bytes == pytest.approx(
            0.10 * cfg.nvm.capacity, rel=0.01
        )
        assert cfg.oop_region_base + cfg.oop_region_bytes == (
            cfg.nvm.capacity
        )


class TestDerivedValues:
    def test_cache_geometry(self):
        cache = CacheConfig("L1", 32 * KB, 4)
        assert cache.num_lines == 512
        assert cache.num_sets == 128

    def test_mapping_table_entries(self):
        hoop = HoopConfig()
        assert hoop.mapping_table_entries == (2 * MB) // 16

    def test_slices_per_block(self):
        assert HoopConfig().slices_per_block == (2 * MB) // 128

    def test_eviction_buffer_lines(self):
        assert HoopConfig().eviction_buffer_lines == (128 * KB) // 72

    def test_replace_returns_modified_copy(self):
        cfg = SystemConfig.small()
        other = cfg.replace(num_cores=2)
        assert other.num_cores == 2
        assert cfg.num_cores == 4


class TestValidation:
    def test_cache_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 1024, 3)  # 16 lines not divisible by 3

    def test_cache_rejects_non_power_of_two(self):
        """The tag stores index a set with one shift and one mask."""
        with pytest.raises(ConfigError, match="set count 3"):
            CacheConfig("bad", 3 * 4 * 64, 4)
        with pytest.raises(ConfigError, match="line size 96"):
            CacheConfig("bad", 4 * 4 * 96, 4, line_size=96)
        with pytest.raises(ConfigError, match="set count 0"):
            CacheConfig("bad", 32, 4)  # smaller than one line
        assert CacheConfig("ok", 4 * 4 * 64, 4).num_sets == 4

    def test_cache_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 0, 4)

    def test_nvm_rejects_bad_latency(self):
        with pytest.raises(ConfigError):
            NVMConfig(read_latency_ns=0)
        with pytest.raises(ConfigError):
            NVMConfig(write_latency_ns=-1)

    def test_nvm_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            NVMConfig(bandwidth_gb_per_s=0)

    def test_energy_rejects_negative(self):
        with pytest.raises(ConfigError):
            EnergyConfig(array_write_pj_per_bit=-0.1)

    def test_gc_rejects_bad_period(self):
        with pytest.raises(ConfigError):
            GCConfig(period_ns=0)
        with pytest.raises(ConfigError):
            GCConfig(on_demand_mapping_fill=0.0)

    def test_hoop_rejects_bad_region_fraction(self):
        with pytest.raises(ConfigError):
            HoopConfig(oop_region_fraction=1.5)

    def test_hoop_rejects_misaligned_block(self):
        with pytest.raises(ConfigError):
            HoopConfig(oop_block_bytes=1000)

    def test_system_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0)

    def test_system_rejects_mixed_line_sizes(self):
        with pytest.raises(ConfigError):
            SystemConfig(l1=CacheConfig("L1", 4 * KB, 4, line_size=32))


def test_small_config_is_consistent():
    cfg = SystemConfig.small()
    assert cfg.oop_region_bytes % cfg.hoop.oop_block_bytes == 0
    assert cfg.home_region_bytes > 0
    assert cfg.cycle_ns == pytest.approx(0.4)


def test_environment_knobs_and_process_supervisors_are_pinned():
    """``src/`` reads one environment variable and forks nothing.

    Each ``REPRO_*`` read is a configuration axis no report records, and
    a process pool is a subsystem of its own (the last one was deleted
    at 1.09x on two cores): adding either means editing this list and
    saying why.
    """
    env_read = re.compile(
        r"""(?:environ(?:\.get)?|getenv)\s*[\[(]\s*["'](REPRO_\w+)"""
    )
    pool_import = re.compile(
        r"^\s*(?:import|from)\s+(multiprocessing|concurrent\.futures)\b",
        re.MULTILINE,
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    knobs, pools = set(), []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        knobs.update(env_read.findall(text))
        pools += [(path.name, m) for m in pool_import.findall(text)]
    assert knobs == {"REPRO_CHECK_INVARIANTS"}
    assert pools == []
