"""The four benchmark workloads, driven through the public entry points.

Each workload is a list of *units* that are built and measured one after
another (a matrix cell, a rate step, a scheme's sweep).  ``setup(unit)``
builds fresh state — machine, dataset, warm-up — and ``measure(unit,
state)`` runs the measured section; :mod:`perf.run` times both from
outside.  ``finish(results)`` turns one round's unit results into
simulated metrics, per-layer counts, the simulated outputs that must
repeat bit for bit, and a list of problems (empty when every check holds).

``README.md`` in this directory says why each size was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import crashtest
from repro.harness.experiments import SCALES
from repro.serve import ServeConfig
from repro.serve.cluster import ServeCluster
from repro.txn.system import MemorySystem
from repro.workloads.driver import WorkloadDriver, make_workload

from perf.capture import (
    MIN_SAMPLES_BEYOND,
    CaptureTelemetry,
    highest_supported,
    order_statistic,
    samples_beyond,
)

PAPER_SPEEDUP_VS_REDO = 1.743  # HOOP's abstract: +74.3 % over Opt-Redo


@dataclass
class UnitResult:
    """What one measured unit did, in simulated terms."""

    attempted: int  # operations offered
    done: int  # operations completed: committed, acked, verified
    refused: int = 0  # turned away or shed by the system, by design
    wrong: int = 0  # completed with an answer a checker rejected
    outputs: Dict[str, object] = field(default_factory=dict)
    machines: List[MemorySystem] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class RoundSummary:
    """One round (every unit once) folded together."""

    attempted: int
    done: int
    refused: int
    wrong: int
    sim: Dict[str, float]
    counts: Dict[str, float]
    outputs: Dict[str, object]
    problems: List[str]
    notes: List[str]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- per-layer simulated counts ------------------------------------------------

COUNT_NAMES = (
    "txn.committed",
    "txn.stores_per_tx",
    "schemes.critical_path_ns_per_tx",
    "schemes.ordering_stalls",
    "core.oop_buffer.words_buffered",
    "core.oop_buffer.dedupe_ratio",
    "core.mapping_table.hit_ratio",
    "core.mapping_table.peak_entries",
    "core.controller.parallel_reads",
    "core.controller.fill_reads_per_miss",
    "core.gc.passes",
    "core.gc.on_demand_passes",
    "core.gc.words_migrated",
    "core.gc.data_reduction_ratio",
    "memhier.llc_miss_ratio",
    "memhier.dirty_evictions",
    "memctrl.sync_writes",
    "memctrl.async_writes",
    "memctrl.sync_wait_ns_per_tx",
    "nvm.writes",
    "nvm.bytes_written",
    "nvm.bytes_read",
    "nvm.energy_pj_per_op",
    "serve.client.offered",
    "serve.admission.rejected_share",
    "serve.admission.queue_depth_mean",
    "serve.batcher.batches",
    "serve.batcher.batch_size_mean",
    "serve.engine.epochs",
    "serve.replica.records_shipped",
    "serve.replica.promotions",
    "serve.replica.rejoins",
    "serve.oracle.acked_puts",
    "serve.oracle.verifications",
    "serve.oracle.failures",
    "crashtest.boundaries",
    "crashtest.cases",
    "crashtest.failures",
)


def machine_counts(machines: Sequence[MemorySystem], done: int) -> Dict[str, float]:
    """Counts read off the machines' public stats objects, summed.

    Scheme, hierarchy, port and device counters restart at
    ``reset_measurement``; the HOOP controller's buffer, mapping-table and
    GC counters run from machine build, populate included.
    """
    total = dict.fromkeys(
        (
            "tx stores latency_sum latency_n stalls buffered deduped map_hit "
            "map_miss peak parallel fills fill_misses passes on_demand "
            "migrated scanned llc_miss llc_access dirty sync async sync_wait "
            "writes bytes_w bytes_r energy"
        ).split(),
        0.0,
    )
    for system in machines:
        scheme = system.scheme
        total["tx"] += scheme.stats.transactions
        total["stores"] += scheme.stats.tx_stores
        total["stalls"] += scheme.stats.ordering_stalls
        # SchemeStats.critical_path_ns is never written; the system's own
        # Tx_begin -> Tx_end accumulator is the Fig. 7b number.
        total["latency_sum"] += system.latency_sum_ns
        total["latency_n"] += system.latency_count
        hier = system.hierarchy.stats
        total["llc_miss"] += hier.llc_misses
        total["llc_access"] += hier.llc_accesses
        total["dirty"] += hier.dirty_evictions
        port = scheme.port.stats
        total["sync"] += port.sync_writes
        total["async"] += port.async_writes
        total["sync_wait"] += port.sync_wait_ns
        device = system.device
        total["writes"] += device.stats.writes
        total["bytes_w"] += device.stats.bytes_written
        total["bytes_r"] += device.stats.bytes_read
        total["energy"] += device.energy.total_pj
        controller = getattr(scheme, "controller", None)
        if controller is None:
            continue
        total["buffered"] += controller.buffer.stats.words_buffered
        total["deduped"] += controller.buffer.stats.words_deduped
        total["map_hit"] += controller.mapping.stats.line_hits
        total["map_miss"] += controller.mapping.stats.line_misses
        total["peak"] = max(total["peak"], controller.mapping.stats.peak_entries)
        hoop = controller.stats
        total["parallel"] += hoop.parallel_reads
        total["fills"] += hoop.fill_home_reads + hoop.fill_slice_reads
        total["fill_misses"] += (
            hoop.mapping_hits_on_miss + hoop.mapping_misses_on_miss
        )
        gc = controller.gc.stats
        total["passes"] += gc.passes
        total["on_demand"] += gc.on_demand_passes
        total["migrated"] += gc.words_migrated
        total["scanned"] += gc.words_scanned
    t = total
    return {
        "txn.committed": t["tx"],
        "txn.stores_per_tx": _ratio(t["stores"], t["tx"]),
        "schemes.critical_path_ns_per_tx": _ratio(
            t["latency_sum"], t["latency_n"]
        ),
        "schemes.ordering_stalls": t["stalls"],
        "core.oop_buffer.words_buffered": t["buffered"],
        "core.oop_buffer.dedupe_ratio": _ratio(
            t["deduped"], t["buffered"] + t["deduped"]
        ),
        "core.mapping_table.hit_ratio": _ratio(
            t["map_hit"], t["map_hit"] + t["map_miss"]
        ),
        "core.mapping_table.peak_entries": t["peak"],
        "core.controller.parallel_reads": t["parallel"],
        "core.controller.fill_reads_per_miss": _ratio(
            t["fills"], t["fill_misses"]
        ),
        "core.gc.passes": t["passes"],
        "core.gc.on_demand_passes": t["on_demand"],
        "core.gc.words_migrated": t["migrated"],
        "core.gc.data_reduction_ratio": (
            1.0 - t["migrated"] / t["scanned"] if t["scanned"] else 0.0
        ),
        "memhier.llc_miss_ratio": _ratio(t["llc_miss"], t["llc_access"]),
        "memhier.dirty_evictions": t["dirty"],
        "memctrl.sync_writes": t["sync"],
        "memctrl.async_writes": t["async"],
        "memctrl.sync_wait_ns_per_tx": _ratio(t["sync_wait"], t["tx"]),
        "nvm.writes": t["writes"],
        "nvm.bytes_written": t["bytes_w"],
        "nvm.bytes_read": t["bytes_r"],
        "nvm.energy_pj_per_op": _ratio(t["energy"], done),
    }


def _summary(results: Dict[str, UnitResult]) -> RoundSummary:
    units = list(results.values())
    done = sum(r.done for r in units)
    machines = [m for r in units for m in r.machines]
    counts = dict.fromkeys(COUNT_NAMES, 0.0)
    counts.update(machine_counts(machines, done))
    return RoundSummary(
        attempted=sum(r.attempted for r in units),
        done=done,
        refused=sum(r.refused for r in units),
        wrong=sum(r.wrong for r in units),
        sim={},
        counts=counts,
        outputs={
            f"{unit}/{key}": value
            for unit, r in results.items()
            for key, value in r.outputs.items()
        },
        problems=[],
        notes=[],
    )


# -- paper-matrix --------------------------------------------------------------

_QUICK_MATRIX_SIZES = {
    "hashmap": {"keyspace": 256, "buckets": 64},
    "rbtree": {"keyspace": 256},
    "ycsb": {"records": 64},
    "tpcc": {"items": 64, "customers_per_district": 4},
}


class PaperMatrix:
    """{hoop, opt-redo} x {hashmap, rbtree, ycsb, tpcc}: Fig. 7a/7b/8."""

    name = "paper-matrix"
    schemes = ("hoop", "opt-redo")
    structures = ("hashmap", "rbtree", "ycsb", "tpcc")

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.scale = SCALES["smoke"]
        self.transactions = 60 if quick else 1500
        self.warmup = 10 if quick else 80
        self.sizes = (
            _QUICK_MATRIX_SIZES
            if quick
            else {s: self.scale.kwargs_for(s) for s in self.structures}
        )
        self.units = [
            f"{scheme}/{structure}"
            for structure in self.structures
            for scheme in self.schemes
        ]

    def setup(self, unit: str):
        scheme, structure = unit.split("/")
        system = MemorySystem(self.scale.system_config(), scheme=scheme)
        workload = make_workload(
            structure, system, seed=self.seed, **self.sizes[structure]
        )
        # Populate and warm the modelled caches; its own driver seed, so the
        # measured transactions do not replay the warm-up's random choices.
        WorkloadDriver(
            system, threads=self.scale.threads, seed=self.seed + 1
        ).run(
            workload, self.warmup, quiesce=False, reset_measurement=False
        )
        return system, workload

    def measure(self, unit: str, state) -> UnitResult:
        system, workload = state
        dataset_bytes = system.heap.bytes_reserved
        result = WorkloadDriver(
            system, threads=self.scale.threads, seed=self.seed
        ).run(workload, self.transactions, setup=False)
        outputs = dataclasses.asdict(result)
        outputs["fingerprint"] = system.device.content_fingerprint()
        return UnitResult(
            attempted=self.transactions,
            done=result.transactions,
            outputs=outputs,
            machines=[system],
            detail={"result": result, "dataset_bytes": dataset_bytes},
        )

    def finish(self, results: Dict[str, UnitResult]) -> RoundSummary:
        summary = _summary(results)
        cell = {unit: r.detail["result"] for unit, r in results.items()}
        hoop = [cell[f"hoop/{s}"] for s in self.structures]
        redo = [cell[f"opt-redo/{s}"] for s in self.structures]
        speedup = geomean(
            [
                h.throughput_tx_per_ms / r.throughput_tx_per_ms
                for h, r in zip(hoop, redo)
            ]
        )
        summary.sim = {
            "sim_tx_per_ms": geomean([h.throughput_tx_per_ms for h in hoop]),
            "sim_speedup_vs_redo": speedup,
            "sim_tx_latency_ns": geomean([h.mean_latency_ns for h in hoop]),
            "sim_nvm_bytes_per_op": geomean([h.bytes_per_tx for h in hoop]),
        }
        for unit, r in results.items():
            if r.done != r.attempted:
                summary.problems.append(
                    f"{unit}: {r.done} of {r.attempted} transactions committed"
                )
        llc = self.scale.system_config().llc.size
        summary.notes.append(
            f"geomean hoop / opt-redo throughput {speedup:.3f}; the paper "
            f"reports {PAPER_SPEEDUP_VS_REDO} (relative error "
            f"{speedup / PAPER_SPEEDUP_VS_REDO - 1:+.1%}); the model is "
            "validated in shape only, not in magnitude"
        )
        for structure in self.structures:
            r = results[f"hoop/{structure}"]
            summary.notes.append(
                f"{structure}: dataset {r.detail['dataset_bytes']} B = "
                f"{r.detail['dataset_bytes'] / llc:.1f} x LLC, "
                f"llc_miss_ratio {cell[f'hoop/{structure}'].llc_miss_ratio:.3f}"
            )
        return summary


# -- serving workloads ---------------------------------------------------------


def _latency_digest(latencies: Sequence[float]) -> str:
    return hashlib.sha256(
        struct.pack(f"<{len(latencies)}d", *latencies)
    ).hexdigest()


def _run_cluster(cluster: ServeCluster, hub: CaptureTelemetry) -> UnitResult:
    """Run one cluster to completion and read off what it did."""
    cluster.run()
    acked = cluster.acked_puts + cluster.acked_gets
    rejected = sum(cluster.rejections.values())
    groups = [group for _, group in sorted(cluster.groups.items())]
    replicas = [replica for group in groups for replica in group.replicas]
    latencies = sorted(hub.latencies)
    outputs = {
        "offered": cluster.offered,
        "admitted": cluster.admitted,
        "rejections": dict(sorted(cluster.rejections.items())),
        "retried": cluster.retried,
        "shed_on_failover": cluster.shed_on_failover,
        "acked_puts": cluster.acked_puts,
        "acked_gets": cluster.acked_gets,
        "batches": cluster.batches,
        "epochs": cluster.epochs,
        "last_completion_ns": cluster.last_completion_ns,
        "oracle_failures": list(cluster.oracle_failures),
        "latencies_sha256": _latency_digest(hub.latencies),
        "marks": {
            kind: [ts for ts, _ in marks] for kind, marks in hub.marks.items()
        },
        "fingerprints": [
            r.system.device.content_fingerprint() for r in replicas
        ],
    }
    return UnitResult(
        attempted=cluster.offered,
        done=acked,
        refused=rejected + cluster.shed_on_failover,
        wrong=len(cluster.oracle_failures),
        outputs=outputs,
        machines=[r.system for r in replicas],
        detail={
            "latencies": latencies,
            "cluster": cluster,
            "hub": hub,
            "groups": groups,
        },
    )


def _serve_summary(results: Dict[str, UnitResult]) -> RoundSummary:
    summary = _summary(results)
    units = list(results.values())
    clusters = [r.detail["cluster"] for r in units]
    hubs = [r.detail["hub"] for r in units]
    groups = [g for r in units for g in r.detail["groups"]]

    def hist_mean(suffix: str) -> float:
        hists = [
            hist
            for hub in hubs
            for name, hist in hub.histograms.items()
            if name.endswith(suffix)
        ]
        return _ratio(sum(h.total for h in hists), sum(h.count for h in hists))

    puts = sum(c.acked_puts for c in clusters)
    summary.sim["sim_nvm_bytes_per_op"] = _ratio(
        summary.counts["nvm.bytes_written"], puts
    )
    summary.counts.update(
        {
            "serve.client.offered": summary.attempted,
            "serve.admission.rejected_share": _ratio(
                sum(sum(c.rejections.values()) for c in clusters),
                summary.attempted,
            ),
            "serve.admission.queue_depth_mean": hist_mean("/queue_depth"),
            "serve.batcher.batches": sum(c.batches for c in clusters),
            "serve.batcher.batch_size_mean": hist_mean("/batch_size"),
            "serve.engine.epochs": sum(c.epochs for c in clusters),
            "serve.replica.records_shipped": sum(
                max(r.shipped_seq for r in g.replicas) for g in groups
            ),
            "serve.replica.promotions": sum(g.promotions for g in groups),
            "serve.replica.rejoins": sum(g.rejoins for g in groups),
            "serve.oracle.acked_puts": sum(c.oracle_acked_puts for c in clusters),
            "serve.oracle.verifications": sum(
                c.oracle_verifications for c in clusters
            ),
            "serve.oracle.failures": summary.wrong,
        }
    )
    for unit, r in results.items():
        for failure in r.outputs["oracle_failures"]:
            summary.problems.append(f"{unit}: oracle: {failure}")
        if len(r.detail["latencies"]) != r.done:
            summary.problems.append(
                f"{unit}: captured {len(r.detail['latencies'])} latencies "
                f"for {r.done} acknowledged requests"
            )
    summary.notes.append(
        "open loop in simulated time: 8 Poisson clients; latency is "
        "completion_ns - arrival_ns, timed from when the request was due; "
        "generator lag is 0 by construction; shards start cold"
    )
    return summary


def _percentiles(
    summary: RoundSummary, unit: str, latencies: Sequence[float]
) -> None:
    """Exact p50/p99 of ``latencies`` into ``summary.sim``, with the rule."""
    count = len(latencies)
    beyond = samples_beyond(count, 0.99)
    if beyond < MIN_SAMPLES_BEYOND:
        summary.problems.append(
            f"{unit}: only {beyond} of {count} samples lie beyond p99 "
            f"(need {MIN_SAMPLES_BEYOND})"
        )
    summary.sim["sim_p50_latency_ns"] = order_statistic(latencies, 0.5)
    summary.sim["sim_p99_latency_ns"] = order_statistic(latencies, 0.99)
    summary.notes.append(
        f"{unit}: {count} latency samples, {beyond} beyond p99; highest "
        f"percentile with >= {MIN_SAMPLES_BEYOND} beyond it is "
        f"p{highest_supported(count) * 100:g}"
    )


class ServeOverload:
    """One hoop shard, read-mostly, stepped from under to over its knee."""

    name = "serve-overload"
    P99_LIMIT_NS = 20_000.0
    REFERENCE = "8M"
    OVERLOADED = "16M"

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        # (label, offered req/s, simulated ms).  The event loop's host cost
        # grows with the square of the time a shard stays saturated, so the
        # two steps at and past the knee are the short ones.
        shrink = 0.3 if quick else 1.0
        self.steps: Dict[str, Tuple[float, float]] = {
            "4M": (4e6, 0.5 * shrink),
            "8M": (8e6, 0.5 * shrink),
            "12M": (12e6, 0.3 * shrink),
            "16M": (16e6, 0.3 * shrink),
        }
        self.units = list(self.steps)

    def setup(self, unit: str):
        rate, duration_ms = self.steps[unit]
        cfg = ServeConfig(
            shards=1,
            scheme="hoop",
            replicas=0,
            read_fraction=0.9,
            rate_per_s=rate,
            duration_ms=duration_ms,
            seed=self.seed,
        )
        hub = CaptureTelemetry()
        return ServeCluster(cfg, telemetry=hub), hub

    def measure(self, unit: str, state) -> UnitResult:
        return _run_cluster(*state)

    def finish(self, results: Dict[str, UnitResult]) -> RoundSummary:
        summary = _serve_summary(results)
        _percentiles(
            summary, self.REFERENCE, results[self.REFERENCE].detail["latencies"]
        )
        rate, duration_ms = self.steps[self.OVERLOADED]
        # Acknowledged per second of offered load.  Dividing by the time of
        # the last acknowledgement instead would fold in the drain tail,
        # which is 0 or one batch wait (50 us) depending on whether the last
        # batch happens to fill.
        summary.sim["sim_capacity_rps"] = results[self.OVERLOADED].done / (
            duration_ms * 1e-3
        )
        under = [
            self.steps[unit][0]
            for unit, r in results.items()
            # A backlog that grows fills the 64-deep queue within a step,
            # so zero refusals also means the queue kept draining.
            if r.refused == 0
            and order_statistic(r.detail["latencies"], 0.99)
            <= self.P99_LIMIT_NS
        ]
        if under:
            summary.sim["sim_knee_rps"] = max(under)
        else:
            summary.problems.append("no step ran under the knee")
        if results[self.OVERLOADED].refused == 0:
            summary.problems.append(
                f"the {self.OVERLOADED} step refused nothing: the ramp no "
                "longer crosses the knee"
            )
        return summary


class ServeReplicated:
    """Four hoop shards with one backup each, write-heavy, one failover."""

    name = "serve-replicated"
    KILLED_SHARD = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.cfg = ServeConfig(
            shards=4,
            scheme="hoop",
            replicas=1,
            read_fraction=0.1,
            rate_per_s=1.6e6,
            duration_ms=1.5 if quick else 3.0,
            # A 500 us lease: the requests held up by the failover are then
            # 4 % of the run, so p99 sits well inside that group instead of
            # at its edge, and the failover time varies by 5 % between
            # seeds instead of 10 %.  The queue holds all of them.
            lease_us=500.0,
            queue_depth=256,
            kill_shard=self.KILLED_SHARD,
            kill_primary_at_ms=0.5 if quick else 1.2,
            torn_kill=True,
            verify_final=True,
            seed=seed,
        )
        self.units = ["run"]

    def setup(self, unit: str):
        hub = CaptureTelemetry()
        return ServeCluster(self.cfg, telemetry=hub), hub

    def measure(self, unit: str, state) -> UnitResult:
        return _run_cluster(*state)

    def finish(self, results: Dict[str, UnitResult]) -> RoundSummary:
        summary = _serve_summary(results)
        run = results["run"]
        hub: CaptureTelemetry = run.detail["hub"]
        _percentiles(summary, "run", run.detail["latencies"])
        for kind in ("shard_kill", "promotion", "rejoin_complete"):
            if len(hub.marks[kind]) != 1:
                summary.problems.append(
                    f"expected one {kind} event, saw {len(hub.marks[kind])}"
                )
        if not summary.problems:
            begin = hub.mark_ns("failover_begin", self.KILLED_SHARD)
            promoted = hub.mark_ns("promotion", self.KILLED_SHARD)
            summary.sim["sim_failover_us"] = (promoted - begin) / 1e3
        for group in run.detail["groups"]:
            for replica in group.replicas:
                if not replica.live:
                    summary.problems.append(
                        f"shard {group.shard_id} replica {replica.index} "
                        f"ended {replica.state}"
                    )
        if run.detail["cluster"].divergence_checks == 0:
            summary.problems.append("no replica divergence check ran")
        return summary


# -- crash-sweep ---------------------------------------------------------------


class CrashSweep:
    """Crash, recover, verify at sampled write boundaries, three schemes."""

    name = "crash-sweep"

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.transactions = 40 if quick else 240
        self.sample = 20 if quick else 400
        self.units = ["hoop", "hoop-mc", "opt-redo"]

    def setup(self, unit: str):
        # sweep_scheme builds its own machines: there is nothing to set up.
        return None

    def measure(self, unit: str, state) -> UnitResult:
        sweep = crashtest.sweep_scheme(
            unit,
            seed=self.seed,
            transactions=self.transactions,
            sample=self.sample,
            torn_mode="alternate",
        )
        return UnitResult(
            attempted=len(sweep.boundaries),
            done=len(sweep.cases),
            wrong=len(sweep.failures),
            outputs={
                "total_writes": sweep.total_writes,
                "boundaries": sweep.boundaries,
                "verdicts": [dataclasses.astuple(c) for c in sweep.cases],
            },
            detail={"sweep": sweep},
        )

    def finish(self, results: Dict[str, UnitResult]) -> RoundSummary:
        summary = _summary(results)
        summary.counts.update(
            {
                "crashtest.boundaries": summary.attempted,
                "crashtest.cases": summary.done,
                "crashtest.failures": summary.wrong,
            }
        )
        for unit, r in results.items():
            for case in r.detail["sweep"].failures:
                summary.problems.append(
                    f"{unit} @write {case.boundary}: {case.failure}"
                )
            if r.done != r.attempted:
                summary.problems.append(
                    f"{unit}: {r.done} verdicts for {r.attempted} boundaries"
                )
        summary.notes.append(
            "sweep_scheme builds its machines itself, so no machine counts "
            "are visible from outside: only crashtest.* is non-zero"
        )
        return summary


WORKLOADS = {
    cls.name: cls
    for cls in (PaperMatrix, ServeOverload, ServeReplicated, CrashSweep)
}
