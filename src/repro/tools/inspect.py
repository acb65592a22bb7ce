"""Human-readable dumps of a live simulated system.

Debugging a crash-consistency mechanism is archaeology: you want to see
the OOP region's block states, walk a transaction's slice chain, and
check what the mapping table believes — without disturbing any of it.
These helpers read only (device ``peek``, no stats, no timing) and render
text reports; the examples and the test suite use them, and they are the
first thing to reach for when a property test shrinks to a confusing
counterexample.
"""

from __future__ import annotations

from repro.common.errors import CorruptionError
from repro.core import hoop_controllers
from repro.core.controller import HoopController
from repro.core.oop_region import BlockState
from repro.core.recovery import BlockReader
from repro.core.slices import KIND_ADDR, KIND_DATA
from repro.stats.report import format_table
from repro.txn.system import MemorySystem


def dump_region(controller: HoopController, *, max_blocks: int = 32) -> str:
    """Block states, streams, generations, and slice occupancy."""
    region = controller.region
    reader = BlockReader(region)
    rows = []
    shown = 0
    for block in range(region.num_blocks):
        state = region.state_of(block)
        stream = region.stream_of(block)
        if state == BlockState.UNUSED and stream is None:
            continue
        counts = []
        torn = 0
        for kind, decode in (
            (KIND_DATA, controller.codec.decode_data),
            (KIND_ADDR, controller.codec.decode_addr),
        ):
            intact = 0
            for _, raw in reader.slices_of_kind(block, kind):
                try:
                    decode(raw)
                    intact += 1
                except CorruptionError:
                    torn += 1
            counts.append(intact)
        rows.append(
            [
                block,
                state.name,
                stream or "-",
                region.generation_of(block),
                *counts,
                torn,
            ]
        )
        shown += 1
        if shown >= max_blocks:
            rows.append(["...", "", "", "", "", "", ""])
            break
    return format_table(
        ["block", "state", "stream", "gen", "data", "addr", "torn"], rows
    )


def dump_commit_log(controller: HoopController, *, max_txs: int = 20) -> str:
    """Live committed transactions and their chain shapes."""
    reader = BlockReader(controller.region)
    rows = []
    for tx in controller.commit_log.analyse().logged()[:max_txs]:
        words, slices = controller.recovery.walk_tx(reader, tx)
        rows.append([tx.tx_id, len(tx.segment_tails), slices, len(words)])
    return format_table(["tx", "segments", "slices", "words"], rows)


def dump_mapping_table(
    controller: HoopController, *, max_lines: int = 20
) -> str:
    """Tracked lines and where their newest words live."""
    rows = []
    for line in sorted(controller.mapping.tracked_lines())[:max_lines]:
        words = controller.mapping.lookup_line(line) or {}
        in_buffer = sum(1 for loc in words.values() if loc.in_buffer)
        slices = {
            loc.slice_index
            for loc in words.values()
            if not loc.in_buffer
        }
        rows.append(
            [f"{line:#x}", len(words), in_buffer, len(slices)]
        )
    return format_table(
        ["line", "words", "buffered", "distinct slices"], rows
    )


def describe_system(system: MemorySystem) -> str:
    """One-page status report of a live system."""
    device = system.device
    sections = [
        f"scheme: {system.scheme.name}",
        f"committed transactions: {system.committed_transactions}",
        f"simulated time: {system.now_ns / 1e6:.3f} ms",
        f"NVM written: {device.stats.bytes_written} B,"
        f" read: {device.stats.bytes_read} B",
        f"energy: {device.energy.total_pj / 1e6:.3f} uJ",
        f"LLC miss ratio: {system.hierarchy.stats.llc_miss_ratio:.3f}",
    ]
    for i, controller in enumerate(hoop_controllers(system)):
        gc = controller.gc.stats
        sections.append(
            f"controller {i}: mapping={controller.mapping.entries} entries,"
            f" commit-log live={controller.commit_log.live_count},"
            f" GC passes={gc.passes}"
            f" (reduction {gc.data_reduction_ratio:.2f}),"
            f" free blocks={controller.region.free_block_count()}"
            f"/{controller.region.num_blocks}"
        )
    return "\n".join(sections)
