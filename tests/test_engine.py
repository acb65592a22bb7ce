"""The epoch driver: the quantum changes no byte, the final sweep is optional.

Epoch boundaries partition each shard's event order without reordering
it, so these tests compare full ``ServeReport.to_dict()`` payloads
(acks, oracle verdicts, latency histograms, per-shard failover state)
across epoch quanta, and against a reference shard that runs every
event through one heap.
"""

import heapq
import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import ServeConfig, engine, run_serve
from repro.serve.client import OpenLoopClient
from repro.serve.cluster import ServeCluster
from repro.serve.shard import ShardExecutor


def tiny_cfg(**overrides):
    base = dict(
        shards=4,
        clients=3,
        rate_per_s=30_000.0,
        duration_ms=4.0,
        keyspace=512,
        seed=13,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestBitIdentity:
    def test_epoch_quantum_does_not_change_the_result(self):
        cfg = tiny_cfg()
        base = run_serve(cfg).to_dict()
        for epoch_us in (100.0, 5000.0):
            with mock.patch.object(
                engine, "EPOCH_QUANTUM_NS", epoch_us * 1e3
            ):
                assert run_serve(cfg).to_dict() == base


class TestFinalVerify:
    def test_verify_final_false_skips_the_end_of_run_oracle_pass(self):
        skipped = ServeCluster(tiny_cfg(verify_final=False))
        skipped.run()
        assert skipped.acked_puts > 0
        assert skipped.oracle_verifications == 0
        swept = ServeCluster(tiny_cfg())
        swept.run()
        assert swept.oracle_verifications == 4  # one sweep per shard


# The reference loop's event kinds: an arrival orders before a wake at
# the same instant.
_ARRIVAL = 0
_WAKE = 1


class HeapLoopShard(ShardExecutor):
    """A shard whose every event goes through one heap, then pumps.

    Events are ``(time_ns, kind, seq, payload)`` records with ``seq`` a
    per-shard counter, so an arrival comes before a wake at the same
    instant and arrivals keep their submission order.  This is the
    plainest statement of the shard's event order; the arrival lane and
    the skipped pumps of :class:`ShardExecutor` must reproduce it.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._events = []
        self._seq = 0

    def _wake_at(self, time_ns: float) -> None:
        if time_ns in self._wake_instants:
            return
        self._wake_instants.add(time_ns)
        self._seq += 1
        heapq.heappush(self._events, (time_ns, _WAKE, self._seq, None))

    def submit(self, request) -> None:
        self._seq += 1
        heapq.heappush(
            self._events, (request.arrival_ns, _ARRIVAL, self._seq, request)
        )

    def next_event_ns(self) -> float:
        return self._events[0][0] if self._events else math.inf

    def advance_to(self, horizon_ns: float) -> None:
        events = self._events
        while events and events[0][0] <= horizon_ns:
            time_ns, kind, _, request = heapq.heappop(events)
            if time_ns > self.now_ns:
                self.now_ns = time_ns
            if kind == _ARRIVAL:
                self._admit(request)
            else:
                self._wake_instants.discard(time_ns)
            self._pump()


def served(cfg, *, executor=ShardExecutor, grid_ns=0.0):
    """``(report dict, epochs)`` of one run with the given shard class.

    ``grid_ns`` rounds every arrival up to a multiple of itself, so that
    arrivals tie with each other and with batch deadlines (a multiple of
    the grid past an arrival); 0 keeps the continuous instants.
    """
    next_request = OpenLoopClient.next_request
    run = ServeCluster.run
    clusters = []

    def on_grid(client):
        request = next_request(client)
        if request is not None and grid_ns:
            ticks = math.ceil(request.arrival_ns / grid_ns)
            request.arrival_ns = ticks * grid_ns
        return request

    def kept(cluster):
        run(cluster)
        clusters.append(cluster)

    with mock.patch.object(
        OpenLoopClient, "next_request", on_grid
    ), mock.patch.object(ServeCluster, "run", kept), mock.patch(
        "repro.serve.cluster.ShardExecutor", executor
    ):
        report = run_serve(cfg)
    return report.to_dict(), clusters[0].epochs


class TestEventOrder:
    @settings(max_examples=25, deadline=None)
    @given(
        rate=st.sampled_from([2e5, 2e6, 8e6, 2e7]),
        batch_size=st.integers(1, 16),
        queue_depth=st.integers(1, 64),
        batch_wait_us=st.sampled_from([0.0, 0.5, 5.0, 50.0]),
        replicas=st.sampled_from([0, 1]),
        kill=st.booleans(),
        grid_ns=st.sampled_from([0.0, 250.0]),
        epoch_us=st.sampled_from([0.25, 2.0, 20.0, 100.0, 5000.0]),
    )
    # The fixed quanta the driver has always been checked at.
    @example(
        rate=2e5, batch_size=8, queue_depth=64, batch_wait_us=50.0,
        replicas=0, kill=False, grid_ns=0.0, epoch_us=100.0,
    )
    @example(
        rate=2e5, batch_size=8, queue_depth=64, batch_wait_us=50.0,
        replicas=0, kill=False, grid_ns=0.0, epoch_us=5000.0,
    )
    def test_the_lane_loop_replays_the_one_heap_loop(
        self, rate, batch_size, queue_depth, batch_wait_us, replicas, kill,
        grid_ns, epoch_us,
    ):
        # About 600 arrivals, whatever the rate.  The torn primary cut
        # lands a sixth of the way in and the lease is short, so the
        # backup promotes and the old primary rejoins under traffic.
        duration_ms = 600 / rate * 1e3
        kills = {}
        if kill and replicas:
            kills = dict(kill_primary_at_ms=duration_ms / 6)
        elif kill:
            kills = dict(kill_shard=0, kill_at_ms=duration_ms / 6)
        cfg = ServeConfig(
            shards=1, clients=4, keyspace=256, rate_per_s=rate,
            duration_ms=duration_ms, batch_size=batch_size,
            queue_depth=queue_depth, batch_wait_us=batch_wait_us,
            replicas=replicas, torn_kill=kill, lease_us=20.0, seed=3,
            **kills,
        )
        with mock.patch.object(engine, "EPOCH_QUANTUM_NS", epoch_us * 1e3):
            report, epochs = served(cfg, grid_ns=grid_ns)
            reference = served(cfg, executor=HeapLoopShard, grid_ns=grid_ns)
        assert (report, epochs) == reference
        assert report == served(cfg, grid_ns=grid_ns)[0]  # default quantum
