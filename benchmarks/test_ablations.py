"""Ablation benches for HOOP's design choices (DESIGN.md §3).

The paper motivates three mechanisms: word-granularity **data packing**
(Fig. 3), GC **data coalescing** (Table IV), and the §III-I extensions.
Each ablation switches one off and measures the cost on a YCSB run, so
the contribution of every design choice is individually visible.
"""

import dataclasses

from repro.common.config import GCConfig
from repro.harness.experiments import get_scale, run_cell
from repro.stats.report import FigureData


def _run(scale, **hoop_overrides):
    preset = get_scale(scale)
    config = preset.system_config()
    hoop = dataclasses.replace(config.hoop, **hoop_overrides)
    config = config.replace(hoop=hoop)
    return run_cell("hoop", "ycsb", scale, seed=7, config=config)


def test_ablation_data_packing(benchmark, record_figure, scale):
    """Packing off -> every word pays a whole 128-byte slice."""

    def run():
        packed = _run(scale)
        unpacked = _run(scale, packing_degree=1)
        fig = FigureData(
            "Ablation A",
            "Data packing (YCSB bytes/tx)",
            ["Variant", "B/tx", "tx/ms"],
        )
        fig.add_row("packed (8 words/slice)", packed.bytes_per_tx,
                    packed.throughput_tx_per_ms)
        fig.add_row("unpacked (1 word/slice)", unpacked.bytes_per_tx,
                    unpacked.throughput_tx_per_ms)
        fig.add_note(
            "Packing is the paper's bandwidth argument: without it the"
            " slice metadata overhead multiplies write traffic."
        )
        return fig, packed, unpacked

    fig, packed, unpacked = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure("ablation_packing", fig)
    assert unpacked.bytes_per_tx > 2.0 * packed.bytes_per_tx
    assert unpacked.throughput_tx_per_ms <= packed.throughput_tx_per_ms * 1.1


def test_ablation_gc_coalescing(benchmark, record_figure, scale):
    """Coalescing off -> GC writes every committed version home."""

    def run():
        preset = get_scale(scale)
        period = preset.gc_period_ns
        on = _run(scale, gc=GCConfig(period_ns=period, coalesce=True))
        off = _run(scale, gc=GCConfig(period_ns=period, coalesce=False))
        fig = FigureData(
            "Ablation B",
            "GC data coalescing (YCSB bytes/tx)",
            ["Variant", "B/tx", "tx/ms"],
        )
        fig.add_row("coalescing on", on.bytes_per_tx,
                    on.throughput_tx_per_ms)
        fig.add_row("coalescing off", off.bytes_per_tx,
                    off.throughput_tx_per_ms)
        fig.add_note(
            "Coalescing is where Table IV's reduction ratios come from;"
            " ablated, the collector redundantly writes stale versions."
        )
        return fig, on, off

    fig, on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure("ablation_coalescing", fig)
    assert off.bytes_per_tx > on.bytes_per_tx


def test_ablation_mapping_condensing(benchmark, record_figure, scale):
    """§III-I condensing shrinks mapping-table occupancy."""

    def run():
        import random

        from repro import MemorySystem

        rows = []
        for condense in (False, True):
            preset = get_scale(scale)
            config = preset.system_config()
            hoop = dataclasses.replace(
                config.hoop,
                condense_mapping=condense,
                gc=GCConfig(period_ns=1e15),
            )
            config = config.replace(hoop=hoop)
            system = MemorySystem(config, scheme="hoop")
            rng = random.Random(11)
            addrs = [system.allocate(64) for _ in range(256)]
            for _ in range(400):
                with system.transaction() as tx:
                    tx.store(rng.choice(addrs), b"x" * 64)
            rows.append(
                (condense,
                 system.scheme.controller.mapping.stats.peak_entries)
            )
        fig = FigureData(
            "Ablation C",
            "Mapping-entry condensing (§III-I)",
            ["Condensing", "peak entries"],
        )
        for condense, peak in rows:
            fig.add_row("on" if condense else "off", peak)
        fig.add_note(
            "Full-line updates whose words share one slice collapse to a"
            " single entry — the SRAM saving the paper sketches."
        )
        return fig, dict(rows)

    fig, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure("ablation_condensing", fig)
    assert rows[True] < rows[False]
