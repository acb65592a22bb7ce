"""The sharded serving cluster: coordinator over shard executors.

One :class:`ServeCluster` owns N replication groups (each a
:class:`~repro.serve.replica.ReplicationGroup`: one primary plus R
backups, every replica a full :class:`~repro.txn.system.MemorySystem`
running the configured persistence scheme on a fault-injectable NVM
device), the consistent-hash router, open-loop clients, and — per
shard — a :class:`~repro.serve.shard.ShardExecutor` bundling the
shard's admission queue, batch policy, acked-write oracle slice, and
failover state machines.  Everything runs in *simulated* time and a
run is a pure function of the config and seed.

The cluster does not pop individual events; it is driven in
lock-step *epochs* (:func:`repro.serve.engine.drive`): each round the
driver computes the next global event horizon — the min over every
shard's next-event clock and the next client arrival — routes the
arrivals due by that horizon (in the canonical ``(arrival_ns,
client_id)`` order of :class:`~repro.serve.client.ArrivalStream`), and
advances every shard executor to the horizon.  Shards share nothing and
each shard's internal event order is a total order independent of epoch
boundaries, so the outcome does not depend on where the epochs fall.

Failover semantics (power cuts at simulated instants, crash/recover/verify,
lease-expiry promotion, rejoin catch-up, divergence fingerprints) live
in :class:`~repro.serve.shard.ShardExecutor`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.serve.replica import ReplicationGroup
from repro.serve.router import ConsistentHashRouter
from repro.serve.shard import ShardExecutor
from repro.telemetry.hub import Telemetry


class ServeCluster:
    """N shard executors behind a router, advanced in lock-step epochs."""

    def __init__(self, cfg, *, telemetry=None) -> None:
        self.cfg = cfg
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        shard_ids = list(range(cfg.shards))
        self.router = ConsistentHashRouter(shard_ids, seed=cfg.seed)
        partition = self.router.partition(cfg.keyspace)
        self.executors: Dict[int, ShardExecutor] = {
            shard_id: ShardExecutor(
                cfg,
                ReplicationGroup(
                    shard_id,
                    scheme=cfg.scheme,
                    keys=partition[shard_id],
                    value_bytes=cfg.value_bytes,
                    seed=cfg.seed,
                    telemetry=self.telemetry,
                    replicas=cfg.replicas,
                    recovery_threads=cfg.recovery_threads,
                    lease_ns=cfg.lease_us * 1e3,
                ),
                telemetry=self.telemetry,
            )
            for shard_id in shard_ids
        }
        self.epochs = 0

    # -- structure ------------------------------------------------------------

    @property
    def groups(self) -> Dict[int, ReplicationGroup]:
        """The replication groups by shard id (through the executors)."""
        return {
            shard_id: executor.group
            for shard_id, executor in self.executors.items()
        }

    def sorted_executors(self) -> List[ShardExecutor]:
        """Executors in shard-id order — the canonical merge order."""
        return [self.executors[sid] for sid in sorted(self.executors)]

    # -- the run --------------------------------------------------------------

    def run(self) -> None:
        """Drive the whole open-loop run to completion (queues drained)."""
        from repro.serve.engine import drive

        drive(self)

    # -- aggregates (summed over executors in shard order) ---------------------

    def _sum(self, attribute: str) -> int:
        return sum(
            getattr(executor, attribute)
            for executor in self.sorted_executors()
        )

    @property
    def offered(self) -> int:
        """Requests offered across all shards."""
        return self._sum("offered")

    @property
    def admitted(self) -> int:
        """Requests admitted across all shards."""
        return self._sum("admitted")

    @property
    def acked_puts(self) -> int:
        """Acknowledged PUTs across all shards."""
        return self._sum("acked_puts")

    @property
    def acked_gets(self) -> int:
        """Acknowledged GETs across all shards."""
        return self._sum("acked_gets")

    @property
    def retried(self) -> int:
        """Requests requeued after a failed batch, across all shards."""
        return self._sum("retried")

    @property
    def shed_on_failover(self) -> int:
        """In-flight requests shed during failover, across all shards."""
        return self._sum("shed_on_failover")

    @property
    def batches(self) -> int:
        """Batches executed across all shards."""
        return self._sum("batches")

    @property
    def backup_kills(self) -> int:
        """Backup power cuts across all shards."""
        return self._sum("backup_kills")

    @property
    def divergence_checks(self) -> int:
        """Divergence-oracle passes across all shards."""
        return self._sum("divergence_checks")

    @property
    def oracle_acked_puts(self) -> int:
        """PUTs whose words the oracle holds: every acknowledged PUT."""
        return self.acked_puts

    @property
    def oracle_verifications(self) -> int:
        """Oracle verification passes across all shards."""
        return sum(
            executor.oracle.verifications
            for executor in self.sorted_executors()
        )

    @property
    def oracle_failures(self) -> List[str]:
        """Every shard's oracle failures, concatenated in shard order."""
        failures: List[str] = []
        for executor in self.sorted_executors():
            failures.extend(executor.oracle_failures)
        return failures

    @property
    def last_completion_ns(self) -> float:
        """The latest acknowledgement instant across all shards."""
        executors = self.sorted_executors()
        if not executors:
            return 0.0
        return max(executor.last_completion_ns for executor in executors)

    @property
    def rejections(self) -> Dict[str, int]:
        """Admission rejections by kind, summed in shard order."""
        merged: Dict[str, int] = {}
        for executor in self.sorted_executors():
            for kind, count in executor.admission.rejections.items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    def queue_depth(self, shard_id: int) -> int:
        """One shard's current admission-queue depth."""
        return self.executors[shard_id].admission.depth()
