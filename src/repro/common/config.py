"""Configuration dataclasses encoding the paper's evaluated system.

Defaults follow Table II (processor, cache, and NVM parameters) and
Section III-H (HOOP hardware budget: 2 MB mapping table, 1 KB OOP data
buffer per core, 128 KB eviction buffer, 10 ms GC period, 10% of NVM as
the OOP region).  Every experiment in :mod:`repro.harness` starts from
:func:`SystemConfig.paper_default` and overrides only what its sweep varies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.units import GB, GHZ, KB, MB, MS, NS


@dataclass(frozen=True)
class CacheConfig:
    """One level of the cache hierarchy (sizes in bytes, latency in ns)."""

    name: str
    size: int
    ways: int
    line_size: int = 64
    latency_ns: float = 1.6

    def __post_init__(self) -> None:
        if self.size <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ConfigError(f"cache {self.name}: sizes must be positive")
        lines = self.size // self.line_size
        if lines % self.ways != 0:
            raise ConfigError(
                f"cache {self.name}: {lines} lines not divisible by "
                f"{self.ways} ways"
            )
        # The tag stores index a set with one shift and one mask.
        for what, value in (
            ("line size", self.line_size),
            ("set count", lines // self.ways),
        ):
            if value < 1 or value & (value - 1):
                raise ConfigError(
                    f"cache {self.name}: {what} {value} is not a power of two"
                )
        if self.latency_ns < 0:
            raise ConfigError(f"cache {self.name}: negative latency")

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class EnergyConfig:
    """NVM access energy in picojoules per bit (Table II)."""

    row_buffer_read_pj_per_bit: float = 0.93
    row_buffer_write_pj_per_bit: float = 1.02
    array_read_pj_per_bit: float = 2.47
    array_write_pj_per_bit: float = 16.82

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if value < 0:
                raise ConfigError(f"energy parameter {name} is negative")


@dataclass(frozen=True)
class NVMConfig:
    """The NVM device: capacity, timing, bandwidth, and energy."""

    capacity: int = 512 * GB
    read_latency_ns: float = 50.0
    write_latency_ns: float = 150.0
    # Table II does not state a channel bandwidth; 4 GB/s matches the
    # write-constrained behaviour of Optane-class NVM DIMMs [51] and puts
    # the logging baselines in the bandwidth-bound regime §IV-B describes.
    bandwidth_gb_per_s: float = 4.0
    row_buffer_bytes: int = 256
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("NVM capacity must be positive")
        if self.read_latency_ns <= 0 or self.write_latency_ns <= 0:
            raise ConfigError("NVM latencies must be positive")
        if self.bandwidth_gb_per_s <= 0:
            raise ConfigError("NVM bandwidth must be positive")
        if self.row_buffer_bytes <= 0:
            raise ConfigError("row buffer size must be positive")


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection plan for the NVM device.

    With ``enabled=False`` (the default) the system builds the plain
    :class:`~repro.nvm.device.NVMDevice` and nothing here perturbs a
    simulation.  With ``enabled=True`` the device is wrapped by
    :class:`repro.faults.FaultyNVMDevice`, which models:

    * **power loss** after ``power_loss_after_write`` successful timed
      writes (the next write is the fatal one);
    * **torn writes** — when ``torn`` is set, the fatal write is applied
      only partially, at 8-byte word granularity, the subset chosen by
      the seeded PRNG;
    * **transient media read errors** — each timed read independently
      fails with ``read_error_rate`` probability; the memory port
      retries with exponential backoff in simulated time, bounded by
      ``max_read_retries``.

    Nested faults (a crash during recovery) and deadline cuts are armed
    on the live injector, not here.  The dataclass is a pure value
    object (bools, ints, floats), so ``dataclasses.asdict`` of it *is*
    the serializable fault plan the crash-sweep artifacts store and
    replay.
    """

    enabled: bool = False
    seed: int = 0
    power_loss_after_write: Optional[int] = None
    torn: bool = False
    read_error_rate: float = 0.0
    max_read_retries: int = 3
    retry_backoff_ns: float = 200.0

    def __post_init__(self) -> None:
        if self.power_loss_after_write is not None and (
            self.power_loss_after_write < 0
        ):
            raise ConfigError("power_loss_after_write must be >= 0")
        if not 0.0 <= self.read_error_rate < 1.0:
            raise ConfigError("read_error_rate must be in [0, 1)")
        if self.max_read_retries < 0:
            raise ConfigError("max_read_retries must be >= 0")
        if self.retry_backoff_ns < 0:
            raise ConfigError("fault latencies must be non-negative")


@dataclass(frozen=True)
class GCConfig:
    """Garbage-collection policy for the OOP region (Section III-E).

    ``coalesce`` exists for ablation: switching it off makes the collector
    write every committed version home instead of only the newest one,
    isolating how much of HOOP's traffic win comes from data coalescing.
    """

    period_ns: float = 10 * MS
    on_demand_mapping_fill: float = 0.95
    on_demand_region_fill: float = 0.90
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise ConfigError("GC period must be positive")
        for name in ("on_demand_mapping_fill", "on_demand_region_fill"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class HoopConfig:
    """HOOP's hardware budget in the memory controller (Section III-H)."""

    mapping_table_bytes: int = 2 * MB
    mapping_entry_bytes: int = 16
    oop_buffer_bytes_per_core: int = 1 * KB
    eviction_buffer_bytes: int = 128 * KB
    oop_block_bytes: int = 2 * MB
    slice_bytes: int = 128
    oop_region_fraction: float = 0.10
    home_addr_bits: int = 40
    # Data-packing degree: words per memory slice.  None = the maximum the
    # metadata budget allows (8 at 40-bit addresses); 1 disables packing
    # entirely (the ablation case — each word costs a full slice).
    packing_degree: Optional[int] = None
    # §III-I extension: condense a fully-mapped cache line's eight word
    # entries into one line entry in the mapping table.
    condense_mapping: bool = False
    gc: GCConfig = field(default_factory=GCConfig)

    def __post_init__(self) -> None:
        if self.mapping_table_bytes <= 0 or self.mapping_entry_bytes <= 0:
            raise ConfigError("mapping table sizes must be positive")
        if self.oop_buffer_bytes_per_core <= 0:
            raise ConfigError("OOP buffer size must be positive")
        if self.eviction_buffer_bytes <= 0:
            raise ConfigError("eviction buffer size must be positive")
        if self.oop_block_bytes % self.slice_bytes != 0:
            raise ConfigError("OOP block size must be a slice multiple")
        if not 0.0 < self.oop_region_fraction < 1.0:
            raise ConfigError("OOP region fraction must be in (0, 1)")
        if not 8 <= self.home_addr_bits <= 64:
            raise ConfigError("home address width must be 8..64 bits")
        if self.packing_degree is not None and not (
            1 <= self.packing_degree <= 8
        ):
            raise ConfigError("packing degree must be 1..8")

    @property
    def mapping_table_entries(self) -> int:
        """Entry budget implied by the table's SRAM size."""
        return self.mapping_table_bytes // self.mapping_entry_bytes

    @property
    def slices_per_block(self) -> int:
        return self.oop_block_bytes // self.slice_bytes

    @property
    def eviction_buffer_lines(self) -> int:
        """Line budget of the eviction buffer (line + home address tag)."""
        return self.eviction_buffer_bytes // (64 + 8)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level system: cores, caches, NVM, and the HOOP budget."""

    num_cores: int = 16
    core_freq_hz: float = 2.5 * GHZ
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1", 32 * KB, 4, latency_ns=1.6)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * KB, 8, latency_ns=4.8)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 2 * MB, 16, latency_ns=12.0)
    )
    nvm: NVMConfig = field(default_factory=NVMConfig)
    hoop: HoopConfig = field(default_factory=HoopConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("need at least one core")
        if self.core_freq_hz <= 0:
            raise ConfigError("core frequency must be positive")
        line_sizes = {self.l1.line_size, self.l2.line_size, self.llc.line_size}
        if line_sizes != {64}:
            raise ConfigError("all cache levels must use 64-byte lines")

    @classmethod
    def paper_default(cls) -> "SystemConfig":
        """The exact Table II configuration."""
        return cls()

    @classmethod
    def small(cls, *, nvm_capacity: int = 64 * MB) -> "SystemConfig":
        """A scaled-down configuration for fast tests.

        Caches are shrunk so evictions (the interesting path) happen with
        small working sets, and the NVM is shrunk so the OOP region and GC
        cycle quickly.
        """
        return cls(
            num_cores=4,
            l1=CacheConfig("L1", 4 * KB, 4, latency_ns=1.6),
            l2=CacheConfig("L2", 8 * KB, 4, latency_ns=4.8),
            llc=CacheConfig("LLC", 16 * KB, 8, latency_ns=12.0),
            nvm=NVMConfig(capacity=nvm_capacity),
            hoop=HoopConfig(
                mapping_table_bytes=64 * KB,
                oop_buffer_bytes_per_core=1 * KB,
                eviction_buffer_bytes=16 * KB,
                oop_block_bytes=64 * KB,
                gc=GCConfig(period_ns=1 * MS),
            ),
        )

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    @property
    def oop_region_bytes(self) -> int:
        """Size of the OOP region (10% of NVM capacity by default)."""
        raw = int(self.nvm.capacity * self.hoop.oop_region_fraction)
        block = self.hoop.oop_block_bytes
        return max(block, (raw // block) * block)

    @property
    def home_region_bytes(self) -> int:
        return self.nvm.capacity - self.oop_region_bytes

    @property
    def oop_region_base(self) -> int:
        """The OOP region is carved from the top of the physical space."""
        return self.home_region_bytes

    @property
    def cycle_ns(self) -> float:
        return 1e9 / self.core_freq_hz * NS


# -- snapshot declarations ----------------------------------------------------
# All configs are frozen and immutable: snapshots share them by reference
# (see repro.snapshot).
for _cls in (
    CacheConfig,
    EnergyConfig,
    NVMConfig,
    FaultConfig,
    GCConfig,
    HoopConfig,
    SystemConfig,
):
    _cls.__snapshot_state__ = "__shared__"
del _cls
