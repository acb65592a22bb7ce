"""Shared building blocks: units, configuration, address math, bitfields.

Everything in this package is dependency-free and safe to import from any
other ``repro`` subpackage.  The configuration dataclasses in
:mod:`repro.common.config` encode the paper's Table II system parameters and
the HOOP hardware budget from Section III-H.
"""

from repro.common.addr import (
    CACHE_LINE_BYTES,
    WORD_BYTES,
    cache_line_base,
    cache_line_index,
    iter_words,
    word_base,
    word_index,
)
from repro.common.config import (
    CacheConfig,
    EnergyConfig,
    GCConfig,
    HoopConfig,
    NVMConfig,
    SystemConfig,
)
from repro.common.errors import (
    AddressError,
    CapacityError,
    ConfigError,
    CorruptionError,
    ReproError,
    TransactionError,
)
from repro.common.units import (
    GB,
    GHZ,
    KB,
    MB,
    MHZ,
    MS,
    NS,
    PB,
    SEC,
    TB,
    US,
)

__all__ = [
    "CACHE_LINE_BYTES",
    "WORD_BYTES",
    "cache_line_base",
    "cache_line_index",
    "iter_words",
    "word_base",
    "word_index",
    "CacheConfig",
    "EnergyConfig",
    "GCConfig",
    "HoopConfig",
    "NVMConfig",
    "SystemConfig",
    "AddressError",
    "CapacityError",
    "ConfigError",
    "CorruptionError",
    "ReproError",
    "TransactionError",
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "NS",
    "US",
    "MS",
    "SEC",
    "MHZ",
    "GHZ",
]
