#!/usr/bin/env python3
"""Record once, replay everywhere: exact cross-scheme comparison.

Records a TPC-C new-order run on the native system, then replays the
*identical* committed transactions against every persistence scheme — no
workload randomness, no data-structure divergence, just the schemes' own
costs.  The records hold stores only, so the replays run no loads.

Run:  python examples/trace_replay.py [--transactions N]
"""

import argparse

from repro import MemorySystem, SystemConfig
from repro.stats.report import format_table
from repro.trace import RecordingSystem, run_txns
from repro.workloads import WorkloadDriver, make_workload

SCHEMES = ("native", "hoop", "opt-redo", "opt-undo", "osp", "lsm", "lad")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transactions", type=int, default=200)
    args = parser.parse_args()

    # Record on a native system (no persistence noise in the records).
    recorder = RecordingSystem(SystemConfig.small(), scheme="native")
    workload = make_workload(
        "tpcc", recorder, seed=42, items=512, customers_per_district=16
    )
    workload.setup(core=0)
    mark = len(recorder.txns)  # everything before is the load phase
    driver = WorkloadDriver(recorder, threads=4, seed=42)
    driver.run(
        workload, args.transactions, setup=False, warmup=0, quiesce=False
    )
    txns = recorder.txns[mark:]
    stores = sum(len(s) for _, s in txns)
    print(f"recorded {len(txns)} transactions: {stores} stores\n")

    rows = []
    for scheme in SCHEMES:
        target = MemorySystem(SystemConfig.small(), scheme=scheme)
        run_txns(target, txns)
        target.scheme.quiesce(target.now_ns)
        makespan_ms = max(target.clocks) / 1e6
        rows.append(
            [
                scheme,
                target.committed_transactions / makespan_ms,
                target.mean_latency_ns,
                target.device.stats.bytes_written / len(txns),
            ]
        )
    print(format_table(["scheme", "tx/ms", "latency ns", "NVM B/tx"], rows))
    print("\nevery scheme executed the byte-identical event stream")


if __name__ == "__main__":
    main()
