"""Admission control: one shard's bounded queue and its rejection kinds.

An open-loop arrival stream will, at any offered rate above a shard's
service capacity — or whenever a shard is down recovering — grow an
unbounded backlog unless something says no.  The admission controller
is that something: each shard gets a bounded FIFO, and a request that
cannot be queued is rejected with one of three kinds, counted per kind:

* ``"queue_full"`` — the shard is up but its queue is at capacity (the
  shard is the bottleneck);
* ``"shard_recovering"`` — the shard is mid-recovery and its queue is
  full of traffic already waiting for it;
* ``"failing_over"`` — the shard's replication group is between a
  primary kill and the backup's promotion.

A recovering shard's queue keeps *accepting* requests while it has
room: bounded queueing-through-failover is what turns a shard kill
into a latency blip instead of an error storm, and the acked-write
oracle still holds because nothing queued is acknowledged until its
batch commits after recovery.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.serve.client import Request


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
        failing_over: bool = False,
    ) -> Optional[str]:
        """Queue ``request`` and return ``None``, or return why not.

        When the queue is full the request is dropped and the rejection
        kind returned and counted: ``"failing_over"`` when set (a
        promotion in flight is the more specific state), else
        ``"shard_recovering"`` when ``recovering``, else
        ``"queue_full"``.
        """
        queue = self.queue
        if len(queue) >= self.queue_depth:
            if failing_over:
                kind = "failing_over"
            elif recovering:
                kind = "shard_recovering"
            else:
                kind = "queue_full"
            self.rejections[kind] = self.rejections.get(kind, 0) + 1
            return kind
        queue.append(request)
        return None

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
            queue.appendleft(request)
            fitted += 1
        return fitted

    def depth(self) -> int:
        """Current queue depth."""
        return len(self.queue)
