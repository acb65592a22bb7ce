"""The memory port: synchronous vs asynchronous NVM access.

Every crash-consistency scheme in the paper differs in *what it writes* and
*what it waits for*.  The port makes that split explicit:

``sync_write``
    The caller's clock advances to completion (queue + device write
    latency).  Used for undo-log-before-data ordering, eager shadow-paging
    flushes, commit-record persists, and HOOP's Tx_end slice drain.

``async_write``
    The write occupies channel bandwidth and reaches the device content
    immediately (it *will* become durable), but the caller does not wait.
    Used for dirty evictions, redo-log appends behind a write queue,
    checkpointing, and GC migration.  Asynchronous traffic still steals
    bandwidth from synchronous operations — that is how heavy-logging
    schemes lose throughput without necessarily losing latency.

``read``
    Timed read; the caller waits (reads are on the critical path for every
    scheme).

All byte counters for Fig. 8 (write traffic) come from the underlying
:class:`~repro.nvm.device.NVMDevice` stats, so no scheme can under-report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.check.sanitizer import NULL_CHECKER
from repro.common.errors import ReadRetryExhaustedError, TransientReadError
from repro.nvm.device import NVMDevice
from repro.telemetry.hub import NULL_TELEMETRY, STALL_EVENT_NS


@dataclass
class PortStats:
    sync_writes: int = 0
    async_writes: int = 0
    reads: int = 0
    sync_bytes: int = 0
    async_bytes: int = 0
    read_bytes: int = 0
    sync_wait_ns: float = 0.0
    # Fault tolerance (non-zero only with injection enabled): transient
    # media read errors retried, the simulated time spent backing off,
    # reads abandoned after the retry budget, and the worst single
    # operation's attempt count (retries are budgeted per operation, so
    # this gauge never exceeds max_read_retries + 1).
    read_retries: int = 0
    retry_wait_ns: float = 0.0
    reads_failed: int = 0
    max_attempts_one_read: int = 0


class MemoryPort:
    """Gateway between a persistence scheme and the NVM device."""

    def __init__(self, device: NVMDevice) -> None:
        self.device = device
        self.stats = PortStats()
        # Telemetry is observational only: the shared no-op by default,
        # replaced (plus a track name) by whoever owns this port.
        self.telemetry = NULL_TELEMETRY
        self.track = "port"
        # Persist-ordering sanitizer: the shared no-op unless an
        # instrumented run installed one (see repro.check).  Drains are
        # the only event the port reports itself — schemes annotate
        # their writes with logical meaning at the call sites.
        self.check = NULL_CHECKER

    # -- writes -------------------------------------------------------------

    def sync_write(self, addr: int, data: bytes, now_ns: float) -> float:
        """Persist ``data`` and wait; returns completion time."""
        result = self.device.write(addr, data, now_ns, queued=False)
        self.stats.sync_writes += 1
        self.stats.sync_bytes += len(data)
        self.stats.sync_wait_ns += result.latency_ns
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record("sync_stall_ns", result.latency_ns)
            telemetry.add_write_traffic(now_ns, len(data))
            if result.latency_ns >= STALL_EVENT_NS:
                telemetry.emit(
                    now_ns,
                    "port_stall",
                    self.track,
                    {"addr": addr, "wait_ns": result.latency_ns},
                )
        return result.completion_ns

    def async_write(self, addr: int, data: bytes, now_ns: float) -> float:
        """Queue ``data`` for persistence without stalling the caller.

        The content reaches the device immediately (the write queue is
        modeled as draining in order before any later operation that the
        caller *does* wait on), and the channel reservation charges the
        bandwidth.  Returns the drain completion time for callers that want
        to fence on it later.
        """
        result = self.device.write(addr, data, now_ns, queued=True)
        self.stats.async_writes += 1
        self.stats.async_bytes += len(data)
        if self.telemetry.enabled:
            self.telemetry.add_write_traffic(now_ns, len(data))
        return result.completion_ns

    def async_write_words(
        self, writes: Sequence[Tuple[int, bytes]], now_ns: float
    ) -> None:
        """Queue a burst of already-coalesced writes at one instant.

        Timing math is batched in the device/channel; accounting is
        identical to one :meth:`async_write` per element.  For callers
        (GC migration) that fence later via :meth:`drain` rather than
        tracking per-write completions.
        """
        if not writes:
            return
        self.device.write_batch(writes, now_ns)
        self.stats.async_writes += len(writes)
        nbytes = sum(len(data) for _, data in writes)
        self.stats.async_bytes += nbytes
        if self.telemetry.enabled:
            self.telemetry.add_write_traffic(now_ns, nbytes)

    def read(self, addr: int, size: int, now_ns: float) -> Tuple[bytes, float]:
        """Timed read; returns ``(data, completion_ns)``.

        Transient media errors (fault injection) are retried here with
        bounded exponential backoff *in simulated time*: each failed
        attempt still occupied the channel and burned energy, and every
        retry pushes the completion time further out — which is how
        injected read errors surface in the latency model.  The budget
        is per-operation: every read starts with a fresh
        ``max_read_retries`` allowance regardless of how many earlier
        reads faulted.  Exhausting it raises
        :class:`~repro.common.errors.ReadRetryExhaustedError` (a
        :class:`~repro.common.errors.MediaError`) carrying the failing
        address.
        """
        try:
            data, result = self.device.read(addr, size, now_ns)
            completion = result.completion_ns
        except TransientReadError as fault:
            data, completion = self._read_with_retry(
                addr, size, fault
            )
        self.stats.reads += 1
        self.stats.read_bytes += size
        if self.telemetry.enabled:
            self.telemetry.record("nvm_read_ns", completion - now_ns)
        return data, completion

    def _read_with_retry(
        self, addr: int, size: int, fault: TransientReadError
    ) -> Tuple[bytes, float]:
        faults = self.device.faults  # only faulty devices raise
        completion = fault.completion_ns
        stats = self.stats
        # `attempts` counts this operation's tries only (the initial
        # faulted read plus each retry below); the global stats counters
        # aggregate across operations but never gate the budget.
        attempts = 1
        for retry in range(1, faults.max_read_retries + 1):
            backoff = faults.retry_backoff_ns * (2 ** (retry - 1))
            attempts += 1
            stats.read_retries += 1
            stats.retry_wait_ns += backoff
            if attempts > stats.max_attempts_one_read:
                stats.max_attempts_one_read = attempts
            if self.telemetry.enabled:
                self.telemetry.count("port.read_retries")
            try:
                data, result = self.device.read(
                    addr, size, completion + backoff
                )
                return data, result.completion_ns
            except TransientReadError as again:
                completion = again.completion_ns
        stats.reads_failed += 1
        raise ReadRetryExhaustedError(addr, attempts) from fault

    # -- fences ----------------------------------------------------------------

    def drain(self, now_ns: float) -> float:
        """Wait until every queued write is durable (sfence semantics)."""
        drained = self.device.channel.drain(now_ns)
        # The last queued write's device latency is still in flight after
        # its channel transfer completes.
        if drained > now_ns:
            drained += self.device.config.write_latency_ns
        if self.check.active:
            self.check.on_drain(self, now_ns, drained)
        return drained

    # -- bookkeeping -------------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats = PortStats()


# -- snapshot declarations ----------------------------------------------------
PortStats.__snapshot_state__ = "__atoms__"
MemoryPort.__snapshot_state__ = "__all__"
