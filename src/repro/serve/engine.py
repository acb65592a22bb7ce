"""The parallel shard-execution engine: lock-step epochs over workers.

The cluster's shards share nothing, so a serving run is one big
embarrassingly-parallel computation — *if* the timeline is carved up
deterministically.  This module does the carving:

* :func:`drive` — the coordinator loop both execution modes share.
  Each round it computes the next **global event horizon** (the min
  over every shard's next-event clock — which embeds batch deadlines,
  busy-until instants, recovery horizons, promotion/lease-expiry wakes
  — and the next client arrival) plus one epoch quantum, routes the
  arrivals due by that horizon in canonical ``(arrival_ns, client_id)``
  order, and broadcasts ``advance_to(horizon)``.
* :class:`InProcessBackend` — ``workers == 0``: the executors advance
  in shard order on the coordinator's own hub.  This *is* the
  sequential mode; it exists so both modes run literally the same
  driver.
* :class:`WorkerPoolBackend` — ``workers > 0``: persistent forked
  worker processes, one pipe each.  Shards are placed round-robin at
  startup as :func:`~repro.snapshot.wire.to_wire` blobs; every epoch
  the workers run their shards' admissions/batches/ships/recoveries up
  to the horizon and reply with (per-shard events, ack-progress
  records, next-event clocks), which the coordinator merges **in shard
  order** — the same order the in-process backend produces them.

Determinism contract: a ``--workers W`` run is bit-identical to
``--workers 0`` — same acks, same oracle verdicts, same keyspace
fingerprints, same latency histograms.  Three mechanisms carry it:
per-shard event order is a total order ``(time, kind, seq)``
independent of epoch boundaries (:mod:`repro.serve.shard`); every
metric with float accumulation is per-shard single-writer and merged
in shard order (:meth:`~repro.telemetry.hub.Telemetry.merge_metrics`);
and all RNG streams stay per-shard/per-client ``derive(...)`` seeded,
so no stream is ever shared across a partition boundary.  (Shared
machine-level histograms — e.g. ``commit_latency_ns`` across shards on
different workers — keep exact bucket counts and extrema but may
differ from sequential in the last bits of their float ``total``; the
serve report only consumes per-shard sinks.)

Fault tolerance reuses the :mod:`repro.harness.parallel` discipline:
a worker that dies is respawned with seeded exponential backoff, its
shards are re-placed from the last checkpoint (wire blobs + the
worker's metric sinks, taken every ``checkpoint_every`` epochs), and
the journal of commands since that checkpoint is replayed —
deterministically reproducing the lost state, with replayed replies
discarded so nothing double-merges.
A worker that keeps dying past its retry budget fails the run loudly.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, ReproError
from repro.common.rng import BACKOFF_SEED, backoff_s
from repro.serve.client import ArrivalStream, make_clients
from repro.snapshot.wire import from_wire, to_wire
from repro.telemetry.hub import Telemetry

__all__ = ["EngineConfig", "EngineError", "drive"]


class EngineError(ReproError):
    """The worker pool could not complete the run (retries exhausted)."""


@dataclass(frozen=True)
class EngineConfig:
    """How a serving run *executes* — never what it computes.

    Deliberately separate from :class:`~repro.serve.ServeConfig`
    ("everything that determines a serving run"): every field here may
    change between runs without changing a single byte of the report.
    ``workers == 0`` advances the shard executors in-process;
    ``workers > 0`` fans them out over that many forked worker
    processes in lock-step epochs of ``epoch_us`` simulated
    microseconds past each global horizon.  ``kill_worker_at`` is the
    fault-injection hook for the worker-death recovery path (CI's
    mid-run recovery smoke): worker W calls ``os._exit`` at the start
    of epoch E.
    """

    workers: int = 0
    epoch_us: float = 1000.0
    checkpoint_every: int = 8
    retries: int = 2
    backoff_base_s: float = 0.05
    kill_worker_at: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        """Reject execution configs that cannot work."""
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.epoch_us <= 0:
            raise ConfigError("epoch_us must be positive")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")


# -- the shared coordinator loop ----------------------------------------------


def drive(cluster, engine_cfg: EngineConfig) -> None:
    """Run a cluster to completion through lock-step epochs.

    The loop is identical for both backends — that is the point: mode
    selection changes *where* ``advance_to`` runs, never what horizons
    are chosen or in what order arrivals are routed.
    """
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
    for executor in cluster.sorted_executors():
        executor.arm_kills()
    workers = min(engine_cfg.workers, cfg.shards)
    if workers > 0:
        backend = WorkerPoolBackend(engine_cfg, cluster.telemetry, workers)
    else:
        backend = InProcessBackend(cluster)
    try:
        next_map = backend.place(cluster.executors)
        quantum_ns = engine_cfg.epoch_us * 1e3
        epoch = 0
        while True:
            floor_ns = min(
                stream.peek_ns(),
                min(next_map.values(), default=math.inf),
            )
            if floor_ns == math.inf:
                break  # no arrivals left, every shard heap drained
            horizon = floor_ns + quantum_ns
            arrivals: Dict[int, list] = {}
            for request in stream.take_until(horizon):
                arrivals.setdefault(request.shard, []).append(request)
            epoch += 1
            next_map = backend.advance(epoch, horizon, arrivals)
        cluster.epochs = epoch
        if cfg.verify_final:
            backend.finalize()
        backend.collect(cluster)
    finally:
        backend.close()


# -- in-process backend (workers == 0) ----------------------------------------


class InProcessBackend:
    """Sequential mode: advance the executors right here, in shard order."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def place(self, executors) -> Dict[int, float]:
        """No placement needed; report the initial next-event clocks."""
        return {
            shard_id: executor.next_event_ns()
            for shard_id, executor in sorted(executors.items())
        }

    def advance(
        self, epoch: int, horizon_ns: float, arrivals: Dict[int, list]
    ) -> Dict[int, float]:
        """Submit this epoch's arrivals and advance each shard in order."""
        next_map: Dict[int, float] = {}
        for executor in self.cluster.sorted_executors():
            for request in arrivals.get(executor.shard_id, ()):
                executor.submit(request)
            executor.advance_to(horizon_ns)
            next_map[executor.shard_id] = executor.next_event_ns()
        return next_map

    def finalize(self) -> None:
        """Run every shard's end-of-run oracle sweep, in shard order."""
        for executor in self.cluster.sorted_executors():
            executor.final_verify()

    def collect(self, cluster) -> None:
        """Nothing to gather — the executors never left this process."""

    def close(self) -> None:
        """Nothing to tear down."""


# -- worker pool backend (workers > 0) ----------------------------------------


class _WorkerDied(Exception):
    """Internal: the worker's pipe broke or it exited."""


class _Worker:
    """Coordinator-side handle of one persistent worker process."""

    __slots__ = (
        "index",
        "shards",
        "process",
        "conn",
        "checkpoint",
        "journal",
        "attempts",
        "kill_at",
    )

    def __init__(self, index: int, shards: List[int], kill_at) -> None:
        self.index = index
        self.shards = shards
        self.process = None
        self.conn = None
        # ("place", {shard: wire blob}, metric export) — what a fresh
        # process needs to reconstruct this worker as of the last
        # checkpoint; the journal replays everything since.
        self.checkpoint = None
        self.journal: List[tuple] = []
        self.attempts = 0
        self.kill_at = kill_at


class WorkerPoolBackend:
    """Persistent forked workers advancing their shards in lock-step."""

    def __init__(
        self, engine_cfg: EngineConfig, telemetry, workers: int
    ) -> None:
        self.cfg = engine_cfg
        self.telemetry = telemetry
        self.worker_count = workers
        self._context = multiprocessing.get_context("fork")
        self._workers: List[_Worker] = []
        self._rng = random.Random(BACKOFF_SEED)
        self.progress: Dict[int, dict] = {}

    # -- lifecycle ------------------------------------------------------------

    def place(self, executors) -> Dict[int, float]:
        """Partition shards round-robin, spawn workers, wire the state over."""
        shard_ids = sorted(executors)
        kill = self.cfg.kill_worker_at
        for index in range(self.worker_count):
            shards = shard_ids[index :: self.worker_count]
            worker = _Worker(
                index,
                shards,
                kill[1] if kill is not None and kill[0] == index else None,
            )
            worker.checkpoint = (
                "place",
                {sid: to_wire(executors[sid]) for sid in shards},
                None,
            )
            self._spawn(worker)
            self._workers.append(worker)
        next_map: Dict[int, float] = {}
        for worker, _, reply in self._broadcast(lambda w: w.checkpoint):
            next_map.update(reply[1])
        return next_map

    def _spawn(self, worker: _Worker) -> None:
        """Start (or restart) one worker process on a fresh pipe."""
        parent, child = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child, worker.kill_at),
            daemon=True,
        )
        process.start()
        child.close()
        worker.process = process
        worker.conn = parent
        # The kill hook fires once: a revived replacement must survive.
        worker.kill_at = None

    def close(self) -> None:
        """Stop every worker (best effort — they are daemons anyway)."""
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()

    # -- epoch protocol -------------------------------------------------------

    def advance(
        self, epoch: int, horizon_ns: float, arrivals: Dict[int, list]
    ) -> Dict[int, float]:
        """One lock-step epoch across the pool; merge in shard order."""
        checkpoint = epoch % self.cfg.checkpoint_every == 0

        def command_for(worker: _Worker) -> tuple:
            routed = {
                sid: arrivals[sid] for sid in worker.shards if sid in arrivals
            }
            return ("advance", epoch, horizon_ns, routed, checkpoint)

        chunks: List[tuple] = []
        next_map: Dict[int, float] = {}
        for worker, command, reply in self._broadcast(command_for):
            _, _, worker_chunks, worker_next, worker_checkpoint = reply
            chunks.extend(worker_chunks)
            next_map.update(worker_next)
            if worker_checkpoint is not None:
                worker.checkpoint = ("place",) + worker_checkpoint
                worker.journal = []
            else:
                worker.journal.append(command)
        self._merge_chunks(chunks)
        return next_map

    def finalize(self) -> None:
        """Broadcast the end-of-run oracle sweep; merge its events."""
        replies = self._broadcast(lambda worker: ("final",))
        chunks: List[tuple] = []
        for worker, command, reply in replies:
            worker.journal.append(command)
            chunks.extend(reply[1])
        self._merge_chunks(chunks)

    def collect(self, cluster) -> None:
        """Wire every executor back and fold worker metrics into the hub.

        Per-shard sinks (``shardN/…``) are adopted wholesale — exactly
        one worker ever wrote each, so adoption reproduces the
        in-process floats bit for bit; shared machine-level sinks merge
        additively in worker order.
        """
        for worker, _, reply in self._broadcast(lambda w: ("collect",)):
            _, blobs, metrics = reply
            for shard_id, blob in sorted(blobs.items()):
                cluster.executors[shard_id] = from_wire(
                    blob, telemetry=self.telemetry
                )
            self.telemetry.merge_metrics(
                metrics, adopt=lambda name: name.startswith("shard")
            )

    def _merge_chunks(self, chunks: List[tuple]) -> None:
        """Fold per-shard (events, progress) replies in shard order."""
        for shard_id, events, progress in sorted(
            chunks, key=lambda chunk: chunk[0]
        ):
            self.telemetry.absorb_events(events)
            self.progress[shard_id] = progress

    # -- transport with death recovery ----------------------------------------

    def _broadcast(self, command_for) -> List[tuple]:
        """Send one command to every worker, gather every reply.

        Sends are pipelined (all workers compute concurrently); the
        gather phase recovers any worker that died, replaying it
        from its checkpoint+journal before re-asking the current
        command.  Returns ``(worker, command, reply)`` in worker-index
        order — deterministic merge fodder for the callers.
        """
        sent: List[Tuple[_Worker, tuple]] = []
        for worker in self._workers:
            command = command_for(worker)
            sent.append((worker, command))
            try:
                self._send(worker, command)
            except _WorkerDied as exc:
                self._recover(worker, exc)
                self._send_or_recover(worker, command)
        replies: List[tuple] = []
        for worker, command in sent:
            while True:
                try:
                    reply = self._recv(worker)
                    break
                except _WorkerDied as exc:
                    self._recover(worker, exc)
                    self._send_or_recover(worker, command)
            replies.append((worker, command, reply))
        return replies

    def _send_or_recover(self, worker: _Worker, command: tuple) -> None:
        """Send, recovering (and recharging) until the pipe accepts it."""
        while True:
            try:
                self._send(worker, command)
                return
            except _WorkerDied as exc:
                self._recover(worker, exc)

    def _send(self, worker: _Worker, command: tuple) -> None:
        try:
            worker.conn.send(command)
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise _WorkerDied(f"send failed: {exc!r}") from exc

    def _recv(self, worker: _Worker):
        """Receive one reply, polling the worker's liveness meanwhile."""
        conn = worker.conn
        while True:
            try:
                if conn.poll(0.2):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                raise _WorkerDied(f"pipe closed: {exc!r}") from exc
            if not worker.process.is_alive():
                # Drain a reply the worker managed to write before dying.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise _WorkerDied(
                    f"worker {worker.index} exited "
                    f"(code {worker.process.exitcode})"
                )

    def _recover(self, worker: _Worker, reason: Exception) -> None:
        """Respawn a dead worker and replay it back to the present.

        Each failed attempt is charged against the worker's retry
        budget with seeded exponential backoff (the
        :mod:`repro.harness.parallel` discipline); exhausting the
        budget raises :class:`EngineError` — a run never silently
        proceeds with missing shards.  Replayed replies are discarded
        (their events/metrics were already merged upstream or are
        re-exported at the next checkpoint/collect), except checkpoint
        refreshes, which keep future replays short.
        """
        while True:
            worker.attempts += 1
            if worker.attempts > self.cfg.retries:
                raise EngineError(
                    f"worker {worker.index} (shards {worker.shards}) "
                    f"failed {worker.attempts} times; last: {reason}"
                )
            time.sleep(
                backoff_s(
                    worker.attempts, self.cfg.backoff_base_s, self._rng
                )
            )
            if worker.process is not None and worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            self._spawn(worker)
            try:
                self._send(worker, worker.checkpoint)
                self._recv(worker)
                for command in worker.journal:
                    self._send(worker, command)
                    reply = self._recv(worker)
                    if command[0] == "advance" and command[4]:
                        worker.checkpoint = ("place",) + reply[4]
                return
            except _WorkerDied as exc:
                reason = exc


# -- the worker process -------------------------------------------------------


def _worker_main(conn, kill_at_epoch: Optional[int]) -> None:
    """One worker: rebuild shards from wire, step them epoch by epoch.

    The worker owns a private telemetry hub: every rebuilt executor
    points at it (the wire layer's sentinel substitution), events are
    drained per shard per epoch into the reply, and the metric sinks
    travel back once — in checkpoints and at collect.  ``kill_at_epoch``
    is the recovery-smoke hook: die (hard, no cleanup) at the start of
    that epoch's processing.
    """
    hub = Telemetry()
    executors: Dict[int, object] = {}
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            return
        op = command[0]
        if op == "place":
            _, blobs, metrics = command
            hub = Telemetry()
            if metrics is not None:
                # Checkpoint restore: refill the fresh hub's sinks so
                # post-replay exports match an uninterrupted worker's.
                hub.merge_metrics(metrics)
            executors = {
                shard_id: from_wire(blob, telemetry=hub)
                for shard_id, blob in sorted(blobs.items())
            }
            conn.send(
                (
                    "placed",
                    {
                        shard_id: executor.next_event_ns()
                        for shard_id, executor in executors.items()
                    },
                )
            )
        elif op == "advance":
            _, epoch, horizon_ns, arrivals, checkpoint = command
            if kill_at_epoch is not None and epoch >= kill_at_epoch:
                os._exit(3)
            chunks = []
            next_map = {}
            for shard_id in sorted(executors):
                executor = executors[shard_id]
                for request in arrivals.get(shard_id, ()):
                    executor.submit(request)
                executor.advance_to(horizon_ns)
                chunks.append(
                    (shard_id, hub.drain_events(), executor.progress())
                )
                next_map[shard_id] = executor.next_event_ns()
            snapshot = None
            if checkpoint:
                snapshot = (
                    {
                        shard_id: to_wire(executor)
                        for shard_id, executor in executors.items()
                    },
                    hub.export_metrics(),
                )
            conn.send(("advanced", epoch, chunks, next_map, snapshot))
        elif op == "final":
            chunks = []
            for shard_id in sorted(executors):
                executor = executors[shard_id]
                executor.final_verify()
                chunks.append(
                    (shard_id, hub.drain_events(), executor.progress())
                )
            conn.send(("finalized", chunks))
        elif op == "collect":
            conn.send(
                (
                    "collected",
                    {
                        shard_id: to_wire(executor)
                        for shard_id, executor in executors.items()
                    },
                    hub.export_metrics(),
                )
            )
        elif op == "stop":
            conn.close()
            return
