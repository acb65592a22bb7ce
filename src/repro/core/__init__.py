"""HOOP's contribution: the out-of-place-update indirection layer.

Components map one-to-one onto the paper's Section III:

* :mod:`repro.core.slices` — data/address memory-slice codecs (Fig. 5b);
* :mod:`repro.core.oop_region` — log-structured OOP blocks + index table
  (Fig. 5a);
* :mod:`repro.core.oop_buffer` — per-core OOP data buffer with
  word-granularity data packing (Fig. 3);
* :mod:`repro.core.commit_log` — address memory slices recording committed
  transactions (the commit point);
* :mod:`repro.core.mapping_table` — hash-based physical-to-physical
  home→OOP mapping;
* :mod:`repro.core.eviction_buffer` — GC-migration staging buffer;
* :mod:`repro.core.gc` — Algorithm 1: reverse-time scan + data coalescing;
* :mod:`repro.core.recovery` — parallel post-crash recovery (Fig. 11);
* :mod:`repro.core.controller` — the load/store machinery of Fig. 6 tying
  everything together behind the scheme interface.
"""

from repro.core.controller import HoopController, HoopScheme
from repro.core.slices import AddressSlice, AddressSliceEntry, DataSlice, SliceCodec

__all__ = [
    "HoopController",
    "HoopScheme",
    "DataSlice",
    "AddressSlice",
    "AddressSliceEntry",
    "SliceCodec",
]

