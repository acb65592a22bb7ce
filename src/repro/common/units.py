"""Size, time, and frequency units used throughout the simulator.

The simulator's base time unit is the **nanosecond** (float), and the base
size unit is the **byte** (int).  Constants here let configuration read like
the paper: ``2 * MB`` mapping table, ``150 * NS`` write latency, ``10 * MS``
GC period, ``2.5 * GHZ`` core clock.
"""

from __future__ import annotations

# --- sizes (bytes) ---------------------------------------------------------
KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB
PB = 1024 * TB

# --- time (nanoseconds) ----------------------------------------------------
NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0

# --- frequency (hertz) -----------------------------------------------------
MHZ = 1_000_000.0
GHZ = 1_000_000_000.0


def bytes_per_ns_from_gbps(gb_per_s: float) -> float:
    """Convert a GB/s bandwidth figure into bytes per nanosecond.

    The paper's Fig. 11 sweeps NVM bandwidth in GB/s; the channel model
    works in bytes/ns, and 1 GB/s is very nearly 1.073 bytes/ns.
    """
    if gb_per_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {gb_per_s}")
    return gb_per_s * GB / SEC
