"""Telemetry: structured events, latency histograms, exportable timelines.

The subsystem has three layers:

* :mod:`repro.telemetry.hub` — the :class:`Telemetry` event hub and the
  shared :data:`NULL_TELEMETRY` no-op every simulator component holds by
  default.  Disabled telemetry costs one attribute check per
  instrumentation site and perturbs nothing (results stay bit-identical).
* :mod:`repro.telemetry.metrics` — bounded streaming sinks:
  :class:`Log2Histogram` (p50/p95/p99/max) and :class:`EpochSeries`
  (per-simulated-epoch throughput/traffic).
* :mod:`repro.telemetry.export` — Chrome/Perfetto ``trace_event`` JSON
  (open at https://ui.perfetto.dev), plus the summary/compare consumers
  behind ``python -m repro.telemetry``.

Enable by constructing a system with a hub::

    tel = Telemetry()
    system = MemorySystem(config, scheme="hoop", telemetry=tel)
    ...run a workload...
    write_perfetto(tel, "trace.json")
"""

from repro.telemetry.export import (
    compare_files,
    compare_summaries,
    load_trace,
    render_summary,
    summarize_file,
    to_perfetto,
    validate_perfetto,
    write_perfetto,
)
from repro.telemetry.hub import (
    NULL_TELEMETRY,
    STALL_EVENT_NS,
    NullTelemetry,
    Telemetry,
)
from repro.telemetry.metrics import EpochSeries, Log2Histogram

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "STALL_EVENT_NS",
    "Log2Histogram",
    "EpochSeries",
    "to_perfetto",
    "write_perfetto",
    "load_trace",
    "validate_perfetto",
    "summarize_file",
    "render_summary",
    "compare_summaries",
    "compare_files",
]
