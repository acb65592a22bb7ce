"""Admission control: one shard's bounded queue with typed backpressure.

An open-loop arrival stream will, at any offered rate above a shard's
service capacity — or whenever a shard is down recovering — grow an
unbounded backlog unless something says no.  The admission controller
is that something: each shard gets a bounded FIFO, and a request that
cannot be queued is rejected with a *typed, retryable* error carrying a
``retry_after_ns`` hint, so a well-behaved client can back off instead
of hammering:

* :class:`QueueFullRejection` — the shard is up but its queue is at
  capacity (the shard is the bottleneck; retry after roughly one batch
  service time);
* :class:`ShardRecoveringRejection` — the shard is mid-recovery and
  its queue is full of traffic already waiting for it; the hint is the
  recovery ETA;
* :class:`FailoverRejection` — the shard's replication group is
  between a primary kill and the backup's promotion; the hint is the
  promotion ETA (the deposed primary's lease expiry).

A recovering shard's queue keeps *accepting* requests while it has
room: bounded queueing-through-failover is what turns a shard kill
into a latency blip instead of an error storm, and the acked-write
oracle still holds because nothing queued is acknowledged until its
batch commits after recovery.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.common.errors import ReproError
from repro.serve.client import Request


class RetryableRejection(ReproError):
    """Base of all admission rejections: safe to retry after the hint."""

    kind = "retryable"

    def __init__(self, message: str, *, shard: int, retry_after_ns: float):
        super().__init__(message)
        self.shard = shard
        self.retry_after_ns = retry_after_ns


class QueueFullRejection(RetryableRejection):
    """The shard's bounded queue is at capacity (backpressure)."""

    kind = "queue_full"


class ShardRecoveringRejection(RetryableRejection):
    """The shard is recovering from a crash and its queue is full."""

    kind = "shard_recovering"


class FailoverRejection(RetryableRejection):
    """The shard's replication group is mid-failover and its queue is full.

    Distinct from :class:`ShardRecoveringRejection` because the hint is
    different in kind: a promotion completes at the deposed primary's
    lease expiry (microseconds, deterministic), not at a recovery
    horizon — clients should retry soon, against the same shard, and
    will land on the newly promoted primary.
    """

    kind = "failing_over"


class AdmissionController:
    """One shard's bounded FIFO and the accept/reject decision."""

    def __init__(self, *, queue_depth: int) -> None:
        if queue_depth <= 0:
            raise ValueError("queue depth must be positive")
        self.queue_depth = queue_depth
        self.queue: Deque[Request] = deque()
        self.rejections: Dict[str, int] = {}

    def admit(
        self,
        request: Request,
        *,
        recovering: bool,
        retry_after_ns: float,
        failing_over: bool = False,
    ) -> None:
        """Queue ``request`` or raise a typed rejection.

        ``recovering`` / ``failing_over`` select the rejection type
        when the queue is full (``failing_over`` wins when both are
        set — a promotion in flight is the more specific state);
        ``retry_after_ns`` is the hint stamped on the rejection (batch
        service time for a healthy shard, recovery ETA for a
        recovering one, promotion ETA mid-failover).
        """
        queue = self.queue
        if len(queue) >= self.queue_depth:
            if failing_over:
                cls, reason = FailoverRejection, "failing over"
            elif recovering:
                cls, reason = ShardRecoveringRejection, "recovering"
            else:
                cls, reason = QueueFullRejection, "full"
            self.rejections[cls.kind] = self.rejections.get(cls.kind, 0) + 1
            raise cls(
                f"shard {request.shard} queue {reason} "
                f"({len(queue)}/{self.queue_depth})",
                shard=request.shard,
                retry_after_ns=retry_after_ns,
            )
        queue.append(request)

    def requeue_front(self, requests) -> int:
        """Put a failed batch back at the head, oldest first.

        Returns how many fit; the caller drops the rest as shed.  All
        of them fit today — a batch executes within one event, so
        nothing is admitted between taking it off the queue and
        putting it back, and the slots it freed are still free — but
        the capacity check stays so that a failed batch can never
        push the queue past ``queue_depth``.  Never raises: failover
        must not die on backpressure.
        """
        queue = self.queue
        fitted = 0
        for request in reversed(list(requests)):
            if len(queue) >= self.queue_depth:
                break
            request.retries += 1
            queue.appendleft(request)
            fitted += 1
        return fitted

    def depth(self) -> int:
        """Current queue depth."""
        return len(self.queue)
