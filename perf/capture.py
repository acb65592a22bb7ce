"""Exact request latencies and failover instants from a serving run.

The serving layer reports latency through ``Log2Histogram`` sinks, whose
percentiles are bucket bounds (powers of two).  :class:`CaptureTelemetry`
is handed to ``ServeCluster(cfg, telemetry=...)`` — the public argument —
and keeps every raw ``shard*/request_latency_ns`` sample and the
timestamps of the failover events, so the benchmark's percentiles are
order statistics of the samples themselves.  Everything else still
reaches the real hub, so the cluster behaves exactly as with a plain
:class:`~repro.telemetry.hub.Telemetry`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.telemetry.hub import Telemetry

LATENCY_SUFFIX = "/request_latency_ns"
MARK_KINDS = ("shard_kill", "failover_begin", "promotion", "rejoin_complete")

# A percentile is reported only when at least this many samples lie
# beyond it; fewer, and the "percentile" is one outlier's latency.
MIN_SAMPLES_BEYOND = 10
CANDIDATE_FRACTIONS = (0.5, 0.9, 0.99, 0.999, 0.9999)


class CaptureTelemetry(Telemetry):
    """A telemetry hub that also keeps raw latencies and failover marks."""

    __slots__ = ("latencies", "marks")

    def __init__(self) -> None:
        super().__init__()
        self.latencies: List[float] = []
        # kind -> [(simulated ns, payload)], kept apart from ``events``
        # because that list is bounded and drops once it is full.
        self.marks: Dict[str, List[Tuple[float, dict]]] = {
            kind: [] for kind in MARK_KINDS
        }

    def record(self, name: str, value: float) -> None:
        if name.endswith(LATENCY_SUFFIX):
            self.latencies.append(value)
        super().record(name, value)

    def emit(self, ts_ns, kind, track="sim", payload=None) -> None:
        marks = self.marks.get(kind)
        if marks is not None:
            marks.append((ts_ns, payload))
        super().emit(ts_ns, kind, track, payload)

    def mark_ns(self, kind: str, shard: int) -> float:
        """Timestamp of the first ``kind`` event on ``shard``."""
        for ts_ns, payload in self.marks[kind]:
            if payload["shard"] == shard:
                return ts_ns
        raise LookupError(f"no {kind!r} event on shard {shard}")


# -- percentiles ---------------------------------------------------------------


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank percentile."""
    return count - _rank(count, fraction)


def _rank(count: int, fraction: float) -> int:
    # Nearest rank, ceil(fraction * count), with the product rounded first
    # so that 0.99 * 100 = 98.99999999999999 still ranks 99.
    return max(1, min(count, math.ceil(round(fraction * count, 9))))


def order_statistic(ordered: Sequence[float], fraction: float) -> float:
    """The nearest-rank percentile of an ascending sample list."""
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), fraction) - 1]


def highest_supported(count: int) -> float:
    """The highest candidate percentile with enough samples beyond it."""
    supported = [
        fraction
        for fraction in CANDIDATE_FRACTIONS
        if samples_beyond(count, fraction) >= MIN_SAMPLES_BEYOND
    ]
    if not supported:
        raise ValueError(
            f"{count} samples support no percentile "
            f"(need {MIN_SAMPLES_BEYOND} beyond the median)"
        )
    return supported[-1]
