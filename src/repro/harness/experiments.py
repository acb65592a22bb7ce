"""Experiment runners: one function per figure/table of the evaluation.

The mapping to the paper (also indexed in DESIGN.md §3):

=============  ====================================================
Table I        qualitative scheme traits
Fig. 7a        transaction throughput, normalized to Opt-Redo
Fig. 7b        critical-path latency, normalized to Native
Fig. 8         NVM write traffic per transaction
Fig. 9         NVM energy per transaction
Table IV       GC data-reduction ratio vs transactions per GC pass
Fig. 10        throughput vs GC trigger period
Fig. 11        recovery time vs threads and NVM bandwidth
Fig. 12        YCSB throughput vs NVM read/write latency
Fig. 13        YCSB throughput vs mapping-table size
§IV-C profile  loads per LLC miss, parallel-read fraction, miss ratio
=============  ====================================================

Runs are memoized per ``(scale, scheme, workload, seed, overrides)`` so
the four workload-matrix figures share one simulation per cell.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import json
from pathlib import Path

from repro.common.config import (
    FaultConfig,
    GCConfig,
    HoopConfig,
    NVMConfig,
    SystemConfig,
)
from repro.common.units import KB, MB, MS, US
from repro.schemes import ALL_SCHEME_NAMES, scheme_class
from repro.stats.report import FigureData, fault_tolerance_figure
from repro.telemetry import Telemetry
from repro.txn.system import MemorySystem
from repro.workloads.driver import RunResult, WorkloadDriver, make_workload

PERSISTENCE_SCHEMES = ("hoop", "opt-redo", "opt-undo", "osp", "lsm", "lad")
MATRIX_WORKLOADS = (
    "vector",
    "hashmap",
    "queue",
    "rbtree",
    "btree",
    "ycsb",
    "tpcc",
)


@dataclass(frozen=True)
class Scale:
    """How big an experiment run is."""

    name: str
    threads: int
    transactions: int
    warmup: int
    gc_period_ns: float
    use_paper_config: bool
    workload_kwargs: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...]

    def system_config(self) -> SystemConfig:
        if self.use_paper_config:
            base = SystemConfig.paper_default()
        else:
            base = SystemConfig.small()
        hoop = dataclasses.replace(
            base.hoop, gc=GCConfig(period_ns=self.gc_period_ns)
        )
        return base.replace(hoop=hoop)

    def kwargs_for(self, workload: str) -> Dict[str, int]:
        for name, pairs in self.workload_kwargs:
            if name == workload:
                return dict(pairs)
        return {}

    @property
    def results_dir(self) -> str:
        """Where this scale's tables go unless the caller names a place.

        ``results/`` holds the smoke-scale goldens CI diffs byte for
        byte, so every other scale writes beside it, not over it.
        """
        return "results" if self.name == "smoke" else f"results_{self.name}"


def _scale(
    name: str,
    threads: int,
    transactions: int,
    warmup: int,
    gc_period_ns: float,
    use_paper_config: bool,
    overrides: Dict[str, Dict[str, int]],
) -> Scale:
    frozen = tuple(
        (workload, tuple(sorted(kwargs.items())))
        for workload, kwargs in sorted(overrides.items())
    )
    return Scale(
        name,
        threads,
        transactions,
        warmup,
        gc_period_ns,
        use_paper_config,
        frozen,
    )


_SMOKE_SIZES = {
    "vector": {"capacity": 2048},
    "hashmap": {"keyspace": 2048, "buckets": 512},
    "rbtree": {"keyspace": 4096},
    "btree": {"keyspace": 4096},
    "ycsb": {"records": 512},
    "tpcc": {"items": 512, "customers_per_district": 16},
}

_DEFAULT_SIZES = {
    "vector": {"capacity": 8192},
    "hashmap": {"keyspace": 8192, "buckets": 2048},
    "rbtree": {"keyspace": 16384},
    "btree": {"keyspace": 16384},
    "ycsb": {"records": 2048},
    "tpcc": {"items": 2048, "customers_per_district": 64},
}

SCALES: Dict[str, Scale] = {
    # CI-fast: a couple of seconds per cell.
    "smoke": _scale("smoke", 4, 200, 20, 0.2 * MS, False, _SMOKE_SIZES),
    # Local iteration: minutes for the whole matrix.
    "default": _scale("default", 4, 800, 80, 0.5 * MS, False, _DEFAULT_SIZES),
    # The recorded numbers: paper topology, 8 threads (paper §IV-A).
    "paper": _scale("paper", 8, 2000, 200, 2 * MS, True, {}),
}


def get_scale(scale: str) -> Scale:
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r}; known: {', '.join(SCALES)}"
        ) from None


# -- one measured cell -------------------------------------------------------------

# In-process memo, LRU-bounded.  The full smoke matrix is 49 cells; the
# bound only matters for open-ended ablation sweeps that vary configs.
_CELL_CACHE: "OrderedDict[tuple, RunResult]" = OrderedDict()
_CELL_CACHE_MAX = 512


def _freeze(value):
    """Recursively convert ``value`` into a hashable, deterministic tuple."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple(
            (f.name, _freeze(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def cell_key(
    scheme: str,
    workload: str,
    scale: str,
    seed: int,
    item_bytes: int,
    config: Optional[SystemConfig],
    extra_kwargs: Optional[Dict[str, int]],
) -> tuple:
    """Canonical cache key for one cell.

    An explicit ``config`` contributes its *field values* (not identity),
    so ablation sweeps that rebuild equal configs still share cells.
    """
    return (
        scheme,
        workload,
        scale,
        seed,
        item_bytes,
        _freeze(config) if config is not None else None,
        tuple(sorted((extra_kwargs or {}).items())),
    )


def _build(
    preset: Scale,
    scheme: str,
    workload: str,
    seed: int,
    config: Optional[SystemConfig] = None,
    *,
    threads: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    **workload_kwargs: int,
) -> Tuple[MemorySystem, object, WorkloadDriver]:
    """Config → system → workload → driver, the one way a cell is set up.

    ``config`` defaults to the scale's own, ``threads`` to the scale's;
    ``workload_kwargs`` (``item_bytes`` included) override the scale's
    dataset sizes.  The caller runs the driver and reads the stats.
    """
    system = MemorySystem(
        config or preset.system_config(), scheme=scheme, telemetry=telemetry
    )
    kwargs = preset.kwargs_for(workload)
    kwargs.update(workload_kwargs)
    wl = make_workload(workload, system, seed=seed, **kwargs)
    driver = WorkloadDriver(
        system, threads=threads or preset.threads, seed=seed
    )
    return system, wl, driver


def run_cell(
    scheme: str,
    workload: str,
    scale: str = "default",
    *,
    seed: int = 7,
    item_bytes: int = 64,
    config: Optional[SystemConfig] = None,
    extra_kwargs: Optional[Dict[str, int]] = None,
) -> RunResult:
    """Run one (scheme, workload) cell and return its metrics.

    Results are memoised in-process; a result is a pure function of its
    :func:`cell_key`, so the memo changes which object comes back,
    never its values.
    """
    preset = get_scale(scale)
    key = cell_key(
        scheme, workload, scale, seed, item_bytes, config, extra_kwargs
    )
    if key in _CELL_CACHE:
        _CELL_CACHE.move_to_end(key)
        return _CELL_CACHE[key]
    system, wl, driver = _build(
        preset, scheme, workload, seed, config,
        item_bytes=item_bytes, **(extra_kwargs or {}),
    )
    result = driver.run(
        wl, preset.transactions, warmup=preset.warmup
    )
    result.extras["scheme_stats_stores"] = system.scheme.stats.tx_stores
    if scheme == "hoop":
        hs = system.scheme.hoop_stats
        gcs = system.scheme.controller.gc.stats
        result.extras.update(
            {
                "parallel_reads": hs.parallel_reads,
                "mapping_hits": hs.mapping_hits_on_miss,
                "mapping_misses": hs.mapping_misses_on_miss,
                "gc_passes": gcs.passes,
                "gc_reduction": gcs.data_reduction_ratio,
                "fill_reads": hs.fill_home_reads + hs.fill_slice_reads,
                "llc_misses": system.hierarchy.stats.llc_misses,
            }
        )
    _CELL_CACHE[key] = result
    while len(_CELL_CACHE) > _CELL_CACHE_MAX:
        _CELL_CACHE.popitem(last=False)
    return result


# -- Table I --------------------------------------------------------------------


def run_table1() -> FigureData:
    """The qualitative comparison table, generated from scheme traits."""
    fig = FigureData(
        "Table I",
        "Crash-consistency technique comparison",
        [
            "Scheme",
            "Approach",
            "Read latency",
            "On critical path",
            "Flush & fence",
            "Write traffic",
        ],
    )
    for name in ("hoop",) + tuple(n for n in ALL_SCHEME_NAMES if n != "hoop"):
        traits = scheme_class(name).traits
        fig.add_row(
            name,
            traits.approach,
            traits.read_latency,
            "Yes" if traits.extra_writes_on_critical_path else "No",
            "Yes" if traits.requires_flush_fence else "No",
            traits.write_traffic,
        )
    fig.add_note(
        "Generated from each scheme's declared traits; matches the paper's"
        " rows for WrAP/ATOM/SSP/LSNVMM/LAD analogues."
    )
    return fig


# -- the four workload-matrix figures ----------------------------------------------


def _matrix(scale: str, seed: int) -> Dict[Tuple[str, str], RunResult]:
    cells = {}
    for workload in MATRIX_WORKLOADS:
        for scheme in ("native",) + PERSISTENCE_SCHEMES:
            cells[(scheme, workload)] = run_cell(
                scheme, workload, scale, seed=seed
            )
    return cells


def run_figure7a(scale: str = "default", seed: int = 7) -> FigureData:
    """Throughput normalized to Opt-Redo (higher is better)."""
    cells = _matrix(scale, seed)
    fig = FigureData(
        "Figure 7a",
        "Transaction throughput (normalized to Opt-Redo)",
        ["Workload"] + list(("ideal",) + PERSISTENCE_SCHEMES),
    )
    for workload in MATRIX_WORKLOADS:
        base = cells[("opt-redo", workload)].throughput_tx_per_ms
        row = [workload, cells[("native", workload)].throughput_tx_per_ms / base]
        for scheme in PERSISTENCE_SCHEMES:
            row.append(
                cells[(scheme, workload)].throughput_tx_per_ms / base
            )
        fig.add_row(*row)
    _add_mean_row(fig)
    fig.add_note(
        "Paper: HOOP +74.3%/+45.1%/+33.8%/+27.9%/+24.3% vs"
        " Redo/Undo/OSP/LSM/LAD; -20.6% vs Ideal."
    )
    return fig


def run_figure7b(scale: str = "default", seed: int = 7) -> FigureData:
    """Critical-path latency normalized to Native (lower is better)."""
    cells = _matrix(scale, seed)
    fig = FigureData(
        "Figure 7b",
        "Critical-path latency (normalized to Native)",
        ["Workload"] + list(PERSISTENCE_SCHEMES),
    )
    for workload in MATRIX_WORKLOADS:
        base = cells[("native", workload)].mean_latency_ns
        fig.add_row(
            workload,
            *(
                cells[(scheme, workload)].mean_latency_ns / base
                for scheme in PERSISTENCE_SCHEMES
            ),
        )
    _add_mean_row(fig)
    fig.add_note(
        "Paper: HOOP is 24.1% above Native on average and"
        " 45.1/52.8/44.3/60.5/21.6% below Redo/Undo/OSP/LSM/LAD."
    )
    return fig


def run_figure8(scale: str = "default", seed: int = 7) -> FigureData:
    """NVM write traffic per transaction (normalized to HOOP)."""
    cells = _matrix(scale, seed)
    fig = FigureData(
        "Figure 8",
        "NVM write traffic per transaction",
        ["Workload", "ideal B/tx"]
        + [f"{s} (xHOOP)" for s in PERSISTENCE_SCHEMES],
    )
    for workload in MATRIX_WORKLOADS:
        hoop = max(cells[("hoop", workload)].bytes_per_tx, 1e-9)
        fig.add_row(
            workload,
            cells[("native", workload)].bytes_per_tx,
            *(
                cells[(scheme, workload)].bytes_per_tx / hoop
                for scheme in PERSISTENCE_SCHEMES
            ),
        )
    _add_mean_row(fig, skip=2)
    fig.add_note(
        "Paper: Redo/Undo write 2.1x/1.9x HOOP; HOOP is below"
        " OSP/LSM/LAD by 21.2/12.5/11.6% on average."
    )
    fig.add_note(
        "Normalized to HOOP because Native's eviction-only traffic can"
        " approach zero when a working set fits the LLC."
    )
    return fig


def run_figure9(scale: str = "default", seed: int = 7) -> FigureData:
    """NVM energy per transaction (pJ, and ratio to HOOP)."""
    cells = _matrix(scale, seed)
    fig = FigureData(
        "Figure 9",
        "NVM energy per transaction",
        ["Workload", "ideal pJ/tx"]
        + [f"{s} (xHOOP)" for s in PERSISTENCE_SCHEMES],
    )
    for workload in MATRIX_WORKLOADS:
        def per_tx(scheme: str) -> float:
            cell = cells[(scheme, workload)]
            return cell.energy_pj / max(cell.transactions, 1)

        hoop = max(per_tx("hoop"), 1e-9)
        fig.add_row(
            workload,
            per_tx("native"),
            *(per_tx(scheme) / hoop for scheme in PERSISTENCE_SCHEMES),
        )
    _add_mean_row(fig, skip=2)
    fig.add_note(
        "Paper: HOOP consumes 37.6/29.6/10.8% less energy than OSP/LSM/LAD."
    )
    return fig


def _add_mean_row(fig: FigureData, skip: int = 1) -> None:
    """Append a geometric-mean row over the numeric columns."""
    if not fig.rows:
        return
    means = ["geomean"] + ["" for _ in range(skip - 1)]
    for col in range(skip, len(fig.columns)):
        values = [row[col] for row in fig.rows if isinstance(row[col], float)]
        if values and all(v > 0 for v in values):
            product = 1.0
            for v in values:
                product *= v
            means.append(product ** (1.0 / len(values)))
        else:
            means.append("")
    fig.rows.append(means)


# -- Table IV: GC data reduction ----------------------------------------------------


def run_table4(scale: str = "default", seed: int = 7) -> FigureData:
    """GC data-reduction ratio vs transactions between collections."""
    preset = get_scale(scale)
    tx_counts = {
        "smoke": (10, 100, 500),
        "default": (10, 100, 1000, 4000),
        "paper": (10, 100, 1000, 10000),
    }[preset.name]
    fig = FigureData(
        "Table IV",
        "Average data reduction in the GC of HOOP",
        ["Tx between GCs"] + list(MATRIX_WORKLOADS),
    )
    for count in tx_counts:
        row = [count]
        for workload in MATRIX_WORKLOADS:
            config = preset.system_config()
            # Disable periodic GC and give the mapping table headroom so
            # the collection window is exactly `count` transactions; the
            # forced pass at the end measures the coalescing opportunity
            # that accumulated across the whole window.
            hoop = dataclasses.replace(
                config.hoop,
                gc=GCConfig(period_ns=1e15),
                mapping_table_bytes=64 * MB,
            )
            config = config.replace(hoop=hoop)
            system, wl, driver = _build(preset, "hoop", workload, seed, config)
            gc = system.scheme.controller.gc
            # Drain the load phase so the window holds only measured txns.
            wl.setup(core=0)
            gc.run(system.now_ns, on_demand=True)
            scanned_before = gc.stats.words_scanned
            migrated_before = gc.stats.words_migrated
            driver.run(wl, count, setup=False, warmup=0, quiesce=False)
            gc.run(system.now_ns, on_demand=True)
            scanned = gc.stats.words_scanned - scanned_before
            migrated = gc.stats.words_migrated - migrated_before
            ratio = 1.0 - migrated / scanned if scanned else 0.0
            row.append(ratio)
        fig.add_row(*row)
    fig.add_note(
        "Paper: ~25% at 10 txns rising to ~82% at 10,000 txns; the ratio"
        " grows because more same-word overwrites coalesce per pass."
    )
    return fig


# -- Figure 10: GC period sweep ------------------------------------------------------


def run_figure10(scale: str = "default", seed: int = 7) -> FigureData:
    """Throughput of the synthetic benchmarks vs GC trigger period.

    The paper sweeps 2-14 ms on a cycle-accurate simulator; our simulated
    runs cover less wall-clock, so the sweep spans the same *regimes*
    (eager GC that wastes bandwidth, a sweet spot, and on-demand GC on
    the critical path) around the scale's base period.
    """
    preset = get_scale(scale)
    base = preset.gc_period_ns
    multipliers = (0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    workloads = ("vector", "hashmap", "queue", "rbtree", "btree")
    # Run long enough (and with a tight enough region) that the reserved
    # space turns over several times: the long-period side must hit
    # on-demand GC, as the paper describes for periods past ~11 ms.
    transactions = preset.transactions * 4
    fig = FigureData(
        "Figure 10",
        "Throughput vs GC trigger period (HOOP)",
        ["GC period (us)"] + list(workloads) + ["on-demand GCs"],
    )
    for mult in multipliers:
        period = base * mult
        row = [period / US]
        on_demand_total = 0
        for workload in workloads:
            config = preset.system_config()
            # Small blocks keep the experiment fast while the region
            # still turns over several times within the run.
            block_bytes = 16 * KB
            slots = block_bytes // 128 - 1
            demand_blocks = max(1, (transactions * 2) // slots)
            blocks_needed = max(4, demand_blocks // 2)
            fraction = min(
                0.5,
                blocks_needed * block_bytes / config.nvm.capacity,
            )
            hoop_cfg = dataclasses.replace(
                config.hoop,
                oop_block_bytes=block_bytes,
                gc=GCConfig(period_ns=period),
                oop_region_fraction=fraction,
            )
            config = config.replace(hoop=hoop_cfg)
            system, wl, driver = _build(preset, "hoop", workload, seed, config)
            result = driver.run(
                wl, transactions, warmup=preset.warmup, quiesce=False
            )
            row.append(result.throughput_tx_per_ms)
            on_demand_total += system.scheme.hoop_stats.on_demand_gc
        row.append(on_demand_total)
        fig.add_row(*row)
    fig.add_note(
        "Paper: peak throughput at 8-10 ms periods; shorter periods lose"
        " coalescing, longer ones trigger on-demand GC on the critical path."
    )
    return fig


# -- Figure 11: recovery --------------------------------------------------------------


def run_figure11(scale: str = "default", seed: int = 7) -> FigureData:
    """Recovery time vs recovery threads and NVM bandwidth."""
    preset = get_scale(scale)
    populate_txs = {
        "smoke": 400,
        "default": 1500,
        "paper": 6000,
    }[preset.name]
    thread_counts = (1, 2, 4, 8, 16)
    bandwidths = (10.0, 15.0, 20.0, 25.0)
    target_bytes = 1024**3  # the paper recovers a 1 GB OOP region

    config = preset.system_config()
    hoop_cfg = dataclasses.replace(
        config.hoop, gc=GCConfig(period_ns=1e15)
    )
    config = config.replace(hoop=hoop_cfg)
    system, wl, driver = _build(preset, "hoop", "ycsb", seed, config)
    driver.run(wl, populate_txs, warmup=0, quiesce=False)

    fig = FigureData(
        "Figure 11",
        "Recovery time of a 1 GB OOP region (extrapolated)",
        ["Threads"] + [f"{bw:.0f} GB/s (ms)" for bw in bandwidths],
    )
    populated = None
    for threads in thread_counts:
        row = [threads]
        for bw in bandwidths:
            system.crash()
            report = system.scheme.controller.recovery.recover(
                threads=threads,
                bandwidth_gb_per_s=bw,
                clear_region=False,
            )
            populated = report.bytes_scanned
            scale_up = target_bytes / max(report.bytes_scanned, 1)
            row.append(report.elapsed_ns * scale_up / 1e6)
        fig.add_row(*row)
    fig.add_note(
        f"Populated {populated or 0} bytes of OOP state and extrapolated"
        " linearly to 1 GB (the analytic time model is linear in bytes)."
    )
    fig.add_note(
        "Paper: 47 ms at 25 GB/s (2.3x faster than 10 GB/s); scaling with"
        " threads saturates once the channel is the bottleneck."
    )
    return fig


# -- Figure 12: NVM latency sensitivity -----------------------------------------------


def run_figure12(scale: str = "default", seed: int = 7) -> FigureData:
    """YCSB throughput vs NVM read and write latency (1 KB values)."""
    preset = get_scale(scale)
    latencies = (50.0, 100.0, 150.0, 200.0, 250.0)
    fig = FigureData(
        "Figure 12",
        "YCSB throughput vs NVM latency (HOOP, 1 KB values)",
        ["Latency (ns)", "read sweep (tx/ms)", "write sweep (tx/ms)"],
    )

    def run_with(read_ns: float, write_ns: float) -> float:
        config = preset.system_config()
        nvm = dataclasses.replace(
            config.nvm, read_latency_ns=read_ns, write_latency_ns=write_ns
        )
        config = config.replace(nvm=nvm)
        # Caching is safe here: the config's field values are part of the
        # cell key, so each latency point is its own cache entry.
        result = run_cell(
            "hoop",
            "ycsb",
            scale,
            seed=seed,
            item_bytes=1024,
            config=config,
        )
        return result.throughput_tx_per_ms

    for latency in latencies:
        fig.add_row(
            latency,
            run_with(latency, 150.0),
            run_with(50.0, latency),
        )
    fig.add_note(
        "Paper: throughput improves monotonically as either latency"
        " drops.  In our build the read sweep is steeper: HOOP's commit"
        " is a single queued-slice persist, while every LLC miss pays"
        " the read latency."
    )
    return fig


# -- Figure 13: mapping-table size ------------------------------------------------------


def run_figure13(scale: str = "default", seed: int = 7) -> FigureData:
    """YCSB throughput vs mapping-table size."""
    preset = get_scale(scale)
    sizes = {
        "smoke": (8 * KB, 16 * KB, 32 * KB, 64 * KB, 256 * KB),
        "default": (16 * KB, 32 * KB, 64 * KB, 128 * KB, 512 * KB, 2 * MB),
        "paper": (64 * KB, 128 * KB, 256 * KB, 512 * KB, 2 * MB, 8 * MB),
    }[preset.name]
    fig = FigureData(
        "Figure 13",
        "YCSB throughput vs mapping-table size (HOOP)",
        ["Table size (KB)", "tx/ms", "on-demand GCs"],
    )
    for size in sizes:
        config = preset.system_config()
        hoop_cfg = dataclasses.replace(
            config.hoop, mapping_table_bytes=size
        )
        config = config.replace(hoop=hoop_cfg)
        system, wl, driver = _build(
            preset, "hoop", "ycsb", seed, config, item_bytes=1024
        )
        result = driver.run(
            wl, preset.transactions, warmup=preset.warmup, quiesce=False
        )
        fig.add_row(
            size / KB,
            result.throughput_tx_per_ms,
            system.scheme.hoop_stats.on_demand_gc,
        )
    fig.add_note(
        "Paper: small tables force frequent on-demand GC; the knee sits"
        " where the table covers the inter-GC working set (2 MB in Fig. 13)."
    )
    return fig


# -- thread scalability (the multi-core context of §IV-A) ---------------------------


def run_thread_scaling(scale: str = "default", seed: int = 7) -> FigureData:
    """Hashmap throughput vs worker threads, HOOP vs Opt-Redo vs Ideal.

    The paper runs 8 threads on 16 cores; this sweep shows where each
    scheme stops scaling — the logging baseline hits the NVM channel
    first, which is the bandwidth argument of §IV-B made visible.
    """
    preset = get_scale(scale)
    max_threads = preset.system_config().num_cores
    thread_counts = [t for t in (1, 2, 4, 8, 16) if t <= max_threads]
    schemes = ("native", "hoop", "opt-redo")
    fig = FigureData(
        "Thread scaling",
        "Hashmap throughput vs threads (tx/ms)",
        ["Threads"] + list(schemes),
    )
    for threads in thread_counts:
        row = [threads]
        for scheme in schemes:
            _, wl, driver = _build(
                preset, scheme, "hashmap", seed, threads=threads
            )
            result = driver.run(
                wl, preset.transactions, warmup=preset.warmup
            )
            row.append(result.throughput_tx_per_ms)
        fig.add_row(*row)
    fig.add_note(
        "Heavier write traffic saturates the shared channel at lower"
        " thread counts; HOOP tracks the ideal curve longest."
    )
    return fig


# -- OOP region fraction sweep (10% default, §III-H) ----------------------------------


def run_region_fraction_sweep(
    scale: str = "default", seed: int = 7
) -> FigureData:
    """HOOP throughput vs reserved OOP-region size.

    §III-H reserves 10% of NVM capacity.  Too little reserved space
    forces on-demand GC onto the critical path; past the knee, extra
    reservation buys nothing but lost capacity.
    """
    preset = get_scale(scale)
    fractions = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05)
    transactions = preset.transactions * 6
    fig = FigureData(
        "Region sweep",
        "Hashmap throughput vs OOP region fraction (HOOP)",
        ["Fraction", "tx/ms", "on-demand GCs", "blocks reclaimed"],
    )
    for fraction in fractions:
        config = preset.system_config()
        # Periodic GC off: reclamation happens only when the reserved
        # space itself demands it, which is what the sweep measures.
        hoop_cfg = dataclasses.replace(
            config.hoop,
            oop_block_bytes=16 * KB,
            oop_region_fraction=fraction,
            gc=GCConfig(period_ns=1e15),
        )
        config = config.replace(hoop=hoop_cfg)
        system, wl, driver = _build(preset, "hoop", "hashmap", seed, config)
        result = driver.run(
            wl, transactions, warmup=preset.warmup, quiesce=False
        )
        fig.add_row(
            fraction,
            result.throughput_tx_per_ms,
            system.scheme.hoop_stats.on_demand_gc,
            system.scheme.controller.region.stats.blocks_reclaimed,
        )
    fig.add_note(
        "The paper reserves 10%; the knee appears once the region holds"
        " several GC windows' worth of slices."
    )
    return fig


# -- dataset-size variants (the paper's 64 B / 1 KB item datasets) ------------------


def run_dataset_variants(scale: str = "default", seed: int = 7) -> FigureData:
    """Throughput/traffic for the paper's two item-size datasets.

    §IV-A: "Each workload has two different data sets consisted of 64
    bytes and 1 KB items" (YCSB uses 512 B and 1 KB values).  Larger items
    mean more word stores per transaction, which stresses data packing
    (more full slices) and commit drains.
    """
    variants = (
        ("vector", 64),
        ("vector", 1024),
        ("hashmap", 64),
        ("hashmap", 1024),
        ("ycsb", 512),
        ("ycsb", 1024),
    )
    fig = FigureData(
        "Dataset variants",
        "HOOP vs Opt-Redo across item sizes",
        [
            "Workload",
            "Item B",
            "hoop tx/ms",
            "hoop B/tx",
            "redo tx/ms",
            "redo B/tx",
            "traffic ratio",
        ],
    )
    for workload, item_bytes in variants:
        hoop = run_cell(
            "hoop", workload, scale, seed=seed, item_bytes=item_bytes
        )
        redo = run_cell(
            "opt-redo", workload, scale, seed=seed, item_bytes=item_bytes
        )
        fig.add_row(
            workload,
            item_bytes,
            hoop.throughput_tx_per_ms,
            hoop.bytes_per_tx,
            redo.throughput_tx_per_ms,
            redo.bytes_per_tx,
            redo.bytes_per_tx / max(hoop.bytes_per_tx, 1e-9),
        )
    fig.add_note(
        "The paper's headline ratios hold across both dataset sizes;"
        " absolute traffic grows with the item size."
    )
    return fig


# -- §IV-C read-path profile --------------------------------------------------------------


def run_read_profile(scale: str = "default", seed: int = 7) -> FigureData:
    """HOOP's read-path statistics (the §IV-C profiling paragraph)."""
    fig = FigureData(
        "§IV-C profile",
        "HOOP read-path profile",
        [
            "Workload",
            "LLC miss ratio",
            "NVM loads per miss",
            "parallel-read fraction",
        ],
    )
    for workload in MATRIX_WORKLOADS:
        result = run_cell("hoop", workload, scale, seed=seed)
        misses = max(result.extras.get("llc_misses", 0), 1)
        reads = result.extras.get("fill_reads", 0)
        parallel = result.extras.get("parallel_reads", 0)
        fig.add_row(
            workload,
            result.llc_miss_ratio,
            reads / misses,
            parallel / misses,
        )
    fig.add_note(
        "Paper: 12.1% average LLC miss ratio, 1.28 NVM loads per miss,"
        " 3.4% of misses issue parallel home+OOP reads."
    )
    return fig


# -- telemetry: per-cell latency percentiles -----------------------------------------


def run_telemetry_matrix(
    scale: str = "default",
    seed: int = 7,
    out_dir: Optional[str] = None,
) -> FigureData:
    """Commit-latency percentiles for every (scheme, workload) cell.

    Each cell runs with a live :class:`~repro.telemetry.Telemetry` hub;
    the cells are *not* cached (a telemetry-enabled run records extra
    state and must never be conflated with the plain matrix cells).
    With ``out_dir`` the full per-cell summary dict is also written to
    ``telemetry_<scheme>_<workload>.json`` for offline comparison.
    """
    preset = get_scale(scale)
    fig = FigureData(
        "Telemetry matrix",
        "commit-latency percentiles per cell (us, log2-bucket bounds)",
        [
            "Scheme",
            "Workload",
            "commits",
            "p50",
            "p95",
            "p99",
            "max",
            "gc p99",
        ],
    )
    out_path = Path(out_dir) if out_dir else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    for scheme in ("native",) + PERSISTENCE_SCHEMES:
        for workload in MATRIX_WORKLOADS:
            telemetry = Telemetry()
            _, wl, driver = _build(
                preset, scheme, workload, seed, telemetry=telemetry
            )
            driver.run(wl, preset.transactions, warmup=preset.warmup)
            summary = telemetry.summary()
            commit = summary["histograms"].get("commit_latency_ns", {})
            gc = summary["histograms"].get("gc_pause_ns", {})
            fig.add_row(
                scheme,
                workload,
                commit.get("count", 0),
                commit.get("p50", 0) / 1e3,
                commit.get("p95", 0) / 1e3,
                commit.get("p99", 0) / 1e3,
                commit.get("max", 0) / 1e3,
                gc.get("p99", 0) / 1e3,
            )
            if out_path is not None:
                cell_file = out_path / f"telemetry_{scheme}_{workload}.json"
                cell_file.write_text(
                    json.dumps(summary, indent=2, sort_keys=True)
                )
    fig.add_note(
        "Percentiles are log2-bucket upper bounds over the measured"
        " window (warm-up excluded); gc p99 covers real GC passes only."
    )
    if out_path is not None:
        fig.add_note(f"per-cell summaries written to {out_path}")
    return fig


# -- fault-tolerance report ----------------------------------------------------------


def run_fault_reports(scale: str = "default", seed: int = 7) -> FigureData:
    """Fault-tolerance counters per scheme under transient read faults.

    Runs the hashmap workload on a fault-injecting device (no power
    cuts: every scheme must finish the run, so only recoverable faults
    are enabled) and flattens each scheme's
    :func:`~repro.stats.report.fault_tolerance_figure` into one table.
    """
    preset = get_scale(scale)
    fig = FigureData(
        "Fault report",
        "fault-tolerance counters per scheme (hashmap, transient reads)",
        ["Scheme", "Counter", "Value"],
    )
    for scheme in ("hoop", "opt-redo", "opt-undo"):
        config = preset.system_config().replace(
            faults=FaultConfig(
                enabled=True, read_error_rate=5e-4, seed=seed
            )
        )
        system, wl, driver = _build(preset, scheme, "hashmap", seed, config)
        driver.run(wl, preset.transactions, warmup=preset.warmup)
        for counter, value in fault_tolerance_figure(system).rows:
            fig.add_row(scheme, counter, value)
    fig.add_note(
        "Transient read faults retry with backoff at the memory port;"
        " counters come from the device injector and the port stats."
    )
    return fig
