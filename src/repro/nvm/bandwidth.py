"""Shared NVM channel bandwidth and contention model.

Throughput in the paper's evaluation is frequently *bandwidth*-bound:
Opt-Redo loses not because its critical path is longest but because its
doubled, two-cache-line log entries saturate the channel (§IV-B).  The
model captures that with three mechanisms:

* a **write backlog**: queued (asynchronous) writes accumulate service
  time that drains at channel bandwidth as simulated time advances;
  synchronous persists and drains wait behind it — so a scheme that
  queues more bytes pays longer commits, which is the throughput
  feedback loop;
* **read priority**: reads bypass the write queue (as real memory
  controllers do) but pay a contention term that grows with channel
  utilization;
* a **utilization estimate** via an exponentially-decayed busy integral.

Why not a single busy-until reservation?  The multi-threaded driver
executes whole transactions per thread in min-clock order, so requests
arrive with locally out-of-order timestamps; an absolute reservation
horizon would turn that simulation artifact into enormous phantom queue
delays.  Backlog-plus-utilization is insensitive to arrival-order jitter
while preserving the aggregate bandwidth constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.units import bytes_per_ns_from_gbps

# Utilization decay constant: traffic older than ~5 windows barely counts.
_TAU_NS = 20_000.0
_MAX_RHO = 0.97


@dataclass
class ChannelStats:
    """Aggregate channel statistics."""

    reservations: int = 0
    bytes_transferred: int = 0
    busy_ns: float = 0.0
    queue_ns: float = 0.0


class ChannelModel:
    """A shared memory channel: write backlog + utilization contention."""

    def __init__(self, bandwidth_gb_per_s: float) -> None:
        self._bytes_per_ns = bytes_per_ns_from_gbps(bandwidth_gb_per_s)
        self._vtime_ns = 0.0  # furthest simulated time observed
        self._backlog_ns = 0.0  # undrained queued-write service time
        self._busy_integral = 0.0  # decayed busy time (utilization)
        self.stats = ChannelStats()

    def transfer_time_ns(self, num_bytes: int) -> float:
        """Pure service time of ``num_bytes`` at peak bandwidth."""
        return num_bytes / self._bytes_per_ns

    # -- internals ----------------------------------------------------------------

    def _advance(self, now_ns: float) -> None:
        if now_ns <= self._vtime_ns:
            return
        dt = now_ns - self._vtime_ns
        self._backlog_ns = max(0.0, self._backlog_ns - dt)
        self._busy_integral *= math.exp(-dt / _TAU_NS)
        self._vtime_ns = now_ns

    def utilization(self) -> float:
        """Recent channel utilization estimate in [0, 1]."""
        return min(_MAX_RHO, self._busy_integral / _TAU_NS)

    # -- access classes ------------------------------------------------------------

    def read(self, now_ns: float, num_bytes: int) -> float:
        """Priority read; returns channel completion time."""
        if num_bytes <= 0:
            return now_ns
        # _advance / utilization and the stats update inlined: this runs
        # once per simulated NVM read and the helper-call overhead is
        # measurable.
        if now_ns > self._vtime_ns:
            dt = now_ns - self._vtime_ns
            self._backlog_ns = max(0.0, self._backlog_ns - dt)
            self._busy_integral *= math.exp(-dt / _TAU_NS)
            self._vtime_ns = now_ns
        service = num_bytes / self._bytes_per_ns
        rho = min(_MAX_RHO, self._busy_integral / _TAU_NS)
        wait = service * rho / (1.0 - rho)
        stats = self.stats
        stats.reservations += 1
        stats.bytes_transferred += num_bytes
        stats.busy_ns += service
        stats.queue_ns += wait
        self._busy_integral += service
        return now_ns + wait + service

    def write_queued(self, now_ns: float, num_bytes: int) -> float:
        """Posted write: joins the backlog; returns its drain time."""
        if num_bytes <= 0:
            return now_ns
        if now_ns > self._vtime_ns:
            dt = now_ns - self._vtime_ns
            self._backlog_ns = max(0.0, self._backlog_ns - dt)
            self._busy_integral *= math.exp(-dt / _TAU_NS)
            self._vtime_ns = now_ns
        service = num_bytes / self._bytes_per_ns
        self._backlog_ns += service
        stats = self.stats
        stats.reservations += 1
        stats.bytes_transferred += num_bytes
        stats.busy_ns += service
        self._busy_integral += service
        return max(now_ns, self._vtime_ns) + self._backlog_ns

    def write_queued_many(self, now_ns: float, sizes) -> None:
        """Batch of posted writes at one instant (drain times unobserved).

        Leaves the channel exactly as calling :meth:`write_queued` once
        per size at the same ``now_ns`` would — time advances on the
        first call only, and each size adds its service time to the
        backlog, stats and busy integral in order — minus the per-call
        completion arithmetic nobody reads.
        """
        self._advance(now_ns)
        bytes_per_ns = self._bytes_per_ns
        stats = self.stats
        for num_bytes in sizes:
            if num_bytes <= 0:
                continue
            service = num_bytes / bytes_per_ns
            self._backlog_ns += service
            stats.reservations += 1
            stats.bytes_transferred += num_bytes
            stats.busy_ns += service
            self._busy_integral += service

    def write_sync(self, now_ns: float, num_bytes: int) -> float:
        """Persist that waits behind the queue; returns completion time."""
        if num_bytes <= 0:
            return now_ns
        if now_ns > self._vtime_ns:
            dt = now_ns - self._vtime_ns
            self._backlog_ns = max(0.0, self._backlog_ns - dt)
            self._busy_integral *= math.exp(-dt / _TAU_NS)
            self._vtime_ns = now_ns
        service = num_bytes / self._bytes_per_ns
        wait = self._backlog_ns
        self._backlog_ns += service
        stats = self.stats
        stats.reservations += 1
        stats.bytes_transferred += num_bytes
        stats.busy_ns += service
        stats.queue_ns += wait
        self._busy_integral += service
        return now_ns + wait + service

    def drain(self, now_ns: float) -> float:
        """Time at which everything queued so far is durable (sfence)."""
        self._advance(now_ns)
        return now_ns + self._backlog_ns

    @property
    def backlog_ns(self) -> float:
        return self._backlog_ns

    def reset(self) -> None:
        """Clear statistics (measurement boundaries keep queue state)."""
        self.stats = ChannelStats()


# -- snapshot declarations ----------------------------------------------------
ChannelStats.__snapshot_state__ = "__atoms__"
ChannelModel.__snapshot_state__ = "__all__"
