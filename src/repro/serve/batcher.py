"""Batch scheduler: pack same-shard requests into one transaction.

Commit cost dominates small transactions in every persistence scheme
(log drain, STATE_LAST slice, shadow flip…), so the serving layer
amortizes it: queued requests for the same shard are packed into a
single failure-atomic transaction.  Two limits bound the packing:

* **size** — at most ``batch_size`` requests per transaction, keeping
  the all-or-nothing blast radius and the commit drain bounded;
* **deadline** — a partial batch executes once its *oldest* request has
  waited ``batch_wait_ns``, bounding the latency a lone request can be
  held hostage waiting for company.

The policy object is pure (it inspects a queue and the clock; it never
executes anything), which is what makes it unit-testable and keeps the
cluster's event loop the only place where simulated time advances.
"""

from __future__ import annotations

from typing import Deque, List, Optional

from repro.serve.client import Request


class BatchScheduler:
    """Size-or-deadline batching policy over one shard's FIFO."""

    def __init__(self, *, batch_size: int, batch_wait_ns: float) -> None:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        if batch_wait_ns < 0:
            raise ValueError("batch wait must be non-negative")
        self.batch_size = batch_size
        self.batch_wait_ns = batch_wait_ns

    def ready(self, queue: Deque[Request], now_ns: float) -> bool:
        """Should a batch execute now? (full, or head past its deadline)"""
        if not queue:
            return False
        if len(queue) >= self.batch_size:
            return True
        return now_ns >= queue[0].arrival_ns + self.batch_wait_ns

    def deadline_ns(self, queue: Deque[Request]) -> Optional[float]:
        """When the current partial batch must execute (None if empty)."""
        if not queue:
            return None
        return queue[0].arrival_ns + self.batch_wait_ns

    def take(self, queue: Deque[Request]) -> List[Request]:
        """Pop the next batch (up to ``batch_size``, FIFO order)."""
        batch: List[Request] = []
        while queue and len(batch) < self.batch_size:
            batch.append(queue.popleft())
        return batch
