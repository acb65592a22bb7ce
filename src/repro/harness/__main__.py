"""Command-line entry point: regenerate every figure and table.

Usage::

    python -m repro.harness [--scale smoke|default|paper] [--only FIG ...]
                            [--out DIR] [--profile PATH]
                            [--telemetry DIR] [--faults]

Writes each figure's text rendering to ``<out>/<figure>.txt`` and prints
them to stdout, each followed by a ``[<figure> took N s]`` line.
``--only fig7a fig8`` restricts the set.  Without ``--out`` the tables
go to ``results/`` at smoke scale (the goldens CI diffs) and to
``results_<scale>/`` otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.harness import experiments
from repro.tools.profiling import add_profile_argument, profile_to

RUNNERS = {
    "table1": lambda scale: experiments.run_table1(),
    "fig7a": experiments.run_figure7a,
    "fig7b": experiments.run_figure7b,
    "fig8": experiments.run_figure8,
    "fig9": experiments.run_figure9,
    "table4": experiments.run_table4,
    "fig10": experiments.run_figure10,
    "fig11": experiments.run_figure11,
    "fig12": experiments.run_figure12,
    "fig13": experiments.run_figure13,
    "datasets": experiments.run_dataset_variants,
    "threads": experiments.run_thread_scaling,
    "regions": experiments.run_region_fraction_sweep,
    "profile": experiments.run_read_profile,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the HOOP paper's figures and tables.",
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=sorted(experiments.SCALES),
        help="experiment size preset",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        choices=sorted(RUNNERS),
        help="subset of figures to run (default: all)",
    )
    parser.add_argument(
        "--out",
        help="directory for the rendered text tables (default: results"
        " at smoke scale, results_<scale> otherwise)",
    )
    add_profile_argument(parser)
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="run the telemetry matrix and write per-cell latency"
        " summaries (JSON) into DIR",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="also run the fault-tolerance report (faulty device)",
    )
    args = parser.parse_args(argv)
    with profile_to(args.profile):
        return _run(args)


def _emit(out_dir: pathlib.Path, name: str, produce):
    """Run one report, print it with its wall time, write ``<name>.txt``."""
    start = time.perf_counter()
    text = produce().render()
    print(text)
    print(f"[{name} took {time.perf_counter() - start:.1f}s]\n")
    (out_dir / f"{name}.txt").write_text(text + "\n")


def _run(args) -> int:
    """Everything after argument parsing; returns the exit status."""
    out_dir = pathlib.Path(
        args.out or experiments.get_scale(args.scale).results_dir
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in args.only or RUNNERS:
        _emit(out_dir, name, lambda: RUNNERS[name](args.scale))

    if args.faults:
        _emit(
            out_dir,
            "faults",
            lambda: experiments.run_fault_reports(args.scale),
        )

    if args.telemetry:
        _emit(
            out_dir,
            "telemetry",
            lambda: experiments.run_telemetry_matrix(
                args.scale, out_dir=args.telemetry
            ),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
