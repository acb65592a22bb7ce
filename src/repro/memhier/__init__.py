"""Cache hierarchy substrate.

A functional set-associative write-back hierarchy (per-core L1/L2, shared
inclusive LLC) that models what the persistence schemes actually need:

* hit level (for load/store latency),
* dirty evictions with real line data (delivered to the active scheme),
* the per-line **persistent bit** HOOP adds to every cache line (§III-G),
* total loss of contents on :meth:`CacheHierarchy.crash`.

Line *data* is stored once, alongside the inclusive LLC; L1/L2 track
presence for latency.  That keeps a single authoritative volatile copy per
line, which is exactly the property crash tests need.
"""

from repro.memhier.cache import CacheLevel
from repro.memhier.hierarchy import AccessOutcome, CacheHierarchy

__all__ = ["CacheLevel", "CacheHierarchy", "AccessOutcome"]
