"""The epoch driver: one coordinator loop over the shard executors.

:func:`drive` runs a cluster to completion.  Each round it computes the
next **global event horizon** — the min over every shard's next-event
clock (which embeds batch deadlines, busy-until instants, recovery
horizons, promotion/lease-expiry wakes) and the next client arrival —
plus one epoch quantum, submits the arrivals due by that horizon in
canonical ``(arrival_ns, client_id)`` order, and advances every
executor to the horizon in shard order.

The quantum only decides where a shard's event sequence is cut into
epochs, never the sequence itself: per-shard event order is a total
order ``(time, kind, seq)`` independent of epoch boundaries
(:mod:`repro.serve.shard`), so any positive quantum yields the same
report (``tests/test_engine.py`` pins that).  It does decide
``cluster.epochs``.
"""

from __future__ import annotations

import math

from repro.serve.client import ArrivalStream, make_clients

__all__ = ["drive"]

# Simulated ns past each global horizon that one epoch covers.
EPOCH_QUANTUM_NS = 1_000_000.0


def drive(cluster) -> None:
    """Run a cluster to completion through lock-step epochs."""
    cfg = cluster.cfg
    clients = make_clients(
        cfg.clients,
        aggregate_rate_per_s=cfg.rate_per_s,
        duration_ns=cfg.duration_ms * 1e6,
        keyspace=cfg.keyspace,
        value_bytes=cfg.value_bytes,
        read_fraction=cfg.read_fraction,
        zipf_theta=cfg.zipf_theta,
        seed=cfg.seed,
    )
    stream = ArrivalStream(clients, cluster.router)
    executors = cluster.sorted_executors()
    for executor in executors:
        executor.arm_kills()
    next_ns = [executor.next_event_ns() for executor in executors]
    epoch = 0
    while True:
        floor_ns = min(stream.peek_ns(), min(next_ns, default=math.inf))
        if floor_ns == math.inf:
            break  # no arrivals left, every shard heap drained
        horizon = floor_ns + EPOCH_QUANTUM_NS
        arrivals = {}
        for request in stream.take_until(horizon):
            arrivals.setdefault(request.shard, []).append(request)
        epoch += 1
        next_ns = []
        for executor in executors:
            for request in arrivals.get(executor.shard_id, ()):
                executor.submit(request)
            executor.advance_to(horizon)
            next_ns.append(executor.next_event_ns())
    cluster.epochs = epoch
    if cfg.verify_final:
        for executor in executors:
            executor.final_verify()
