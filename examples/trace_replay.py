#!/usr/bin/env python3
"""Record once, replay everywhere: exact cross-scheme comparison.

Records a TPC-C new-order run into a trace, then replays the *identical*
event stream against every persistence scheme — no workload randomness,
no data-structure divergence, just the schemes' own costs.

Run:  python examples/trace_replay.py [--transactions N]
"""

import argparse

from repro import MemorySystem, SystemConfig
from repro.stats.report import format_table
from repro.trace import RecordingSystem, replay
from repro.trace.trace import LOAD
from repro.workloads import WorkloadDriver, make_workload

SCHEMES = ("native", "hoop", "opt-redo", "opt-undo", "osp", "lsm", "lad")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transactions", type=int, default=200)
    args = parser.parse_args()

    # Record on a native system (no persistence noise in the trace).
    recorder = RecordingSystem(SystemConfig.small(), scheme="native")
    recorder.pause_recording()
    workload = make_workload(
        "tpcc", recorder, seed=42, items=512, customers_per_district=16
    )
    workload.setup(core=0)
    recorder.resume_recording()
    driver = WorkloadDriver(recorder, threads=4, seed=42)
    driver.run(
        workload, args.transactions, setup=False, warmup=0, quiesce=False
    )
    trace = recorder.trace
    loads = sum(1 for op in trace if op.kind == LOAD)
    print(
        f"recorded {trace.transactions} transactions:"
        f" {trace.stores} stores, {loads} loads"
        f" ({len(trace.dumps()) // 1024} KB as text)\n"
    )

    rows = []
    for scheme in SCHEMES:
        target = MemorySystem(SystemConfig.small(), scheme=scheme)
        result = replay(trace, target)
        rows.append(
            [
                scheme,
                result.throughput_tx_per_ms,
                result.mean_latency_ns,
                result.bytes_written / max(result.transactions, 1),
            ]
        )
    print(format_table(["scheme", "tx/ms", "latency ns", "NVM B/tx"], rows))
    print("\nevery scheme executed the byte-identical event stream")


if __name__ == "__main__":
    main()
