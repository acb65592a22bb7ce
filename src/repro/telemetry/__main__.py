"""Record, summarize, and diff telemetry traces.

Usage::

    # Record one workload under one scheme and export a Perfetto trace:
    python -m repro.telemetry --scheme hoop --workload ycsb_a --out t.json
                              [--scale smoke] [--seed N]
                              [--threads N] [--transactions N]

    # Summarize a previously exported trace:
    python -m repro.telemetry --summary t.json

    # Diff the latency histograms of two recorded traces:
    python -m repro.telemetry --compare a.json b.json

Workload names are the Table III registry plus the YCSB mix aliases
``ycsb_a`` (50% updates) and ``ycsb_b`` (5% updates).  The exported
``.json`` loads directly in https://ui.perfetto.dev or chrome://tracing.
"""

from __future__ import annotations

import argparse
import sys

from repro.telemetry.export import (
    compare_files,
    load_trace,
    render_summary,
    summarize_file,
    validate_perfetto,
    write_perfetto,
)
from repro.telemetry.hub import Telemetry

# CLI-only aliases: standard YCSB mixes expressed as update fractions of
# the repo's parameterized "ycsb" workload (the default ycsb is the
# paper's 80%-update configuration).
WORKLOAD_ALIASES = {
    "ycsb_a": ("ycsb", {"update_fraction": 0.5}),
    "ycsb_b": ("ycsb", {"update_fraction": 0.05}),
}


def record(args: argparse.Namespace) -> int:
    from repro.harness.experiments import build_cell, get_scale

    preset = get_scale(args.scale)
    name, overrides = WORKLOAD_ALIASES.get(
        args.workload, (args.workload, {})
    )
    telemetry = Telemetry(max_events=args.max_events)
    _, workload, driver = build_cell(
        preset, args.scheme, name, args.seed,
        threads=args.threads, telemetry=telemetry, **overrides,
    )
    transactions = args.transactions or preset.transactions
    result = driver.run(workload, transactions, warmup=preset.warmup)

    trace = write_perfetto(telemetry, args.out)
    print(
        f"{args.out}: {len(trace['traceEvents'])} trace events from"
        f" {result.transactions} transactions"
        f" ({args.scheme}/{args.workload}, scale={args.scale})"
    )
    print(render_summary(telemetry.summary()))
    print("open the .json at https://ui.perfetto.dev")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Record, summarize, and diff simulator telemetry.",
    )
    parser.add_argument(
        "--summary",
        metavar="TRACE",
        help="summarize an exported trace (.json)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("A", "B"),
        help="diff the latency histograms of two exported traces",
    )
    parser.add_argument("--scheme", default="hoop", help="scheme to record")
    parser.add_argument(
        "--workload",
        default="ycsb_a",
        help="workload name or alias (ycsb_a/ycsb_b)",
    )
    parser.add_argument(
        "--out", default=None, help="Perfetto trace_event JSON output path"
    )
    parser.add_argument(
        "--scale",
        default="smoke",
        help="experiment size preset (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--threads", type=int, default=0, help="0 = the scale's default"
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=0,
        help="0 = the scale's default",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=500_000,
        help="event buffer bound (drops are counted, not silent)",
    )
    args = parser.parse_args(argv)

    if args.summary:
        print(summarize_file(args.summary))
        # Exit nonzero on structural problems so CI can gate on this.
        if validate_perfetto(load_trace(args.summary)["events"]):
            return 1
        return 0
    if args.compare:
        print(compare_files(args.compare[0], args.compare[1]))
        return 0
    if not args.out:
        parser.error("--out is required when recording (or use --summary/--compare)")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
