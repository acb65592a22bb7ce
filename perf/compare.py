"""Compare two sets of benchmark runs: ``python3 perf/compare.py A B``.

``A`` and ``B`` are directories of the record files ``perf/run.py --out``
writes (or single record files); ``A`` is the base, ``B`` the change.
Runs are grouped by workload, traced runs apart from untraced ones.  One
row per workload and metric:

* host-clock metrics (``setup_s``, ``wall_ops_per_s``, ``peak_rss_mb``,
  ``*.self_s``, ``trace.*``) compare medians over the runs of each side.
  The row gives both medians, B/A with A as the base, and each side's
  spread (interquartile range over median).  ``regressed`` when B's median
  is worse than A's by more than the metric's bound; otherwise
  ``unresolved`` — not ``unchanged`` — when a spread exceeds the bound,
  unless every run of B beats every run of A (``improved``);
* simulated metrics and counts repeat exactly for a seed, so they are
  compared seed by seed: ``identical`` or ``differs`` (with the seeds).
  A design change moves them on purpose; then the medians are compared
  against the bound like a host metric.

Give the same directory twice for that set's spreads alone.  Exit code 1
when any row regressed or, with ``--exact``, any simulated row differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perf.run import NOT_APPLICABLE, is_simulated, load_benchmark

Key = Tuple[str, int]  # (workload, traced)


def load_runs(path: Path) -> Dict[Key, Dict[int, dict]]:
    """``{(workload, traced): {seed: metrics}}`` from a directory or file."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[Key, Dict[int, dict]] = defaultdict(dict)
    for file in files:
        with open(file) as handle:
            record = json.load(handle)
        if "workload" not in record or "metrics" not in record:
            continue  # a Perfetto trace, not a run record
        key = (record["workload"], int(record["trace"]))
        runs[key][record["seed"]] = {
            name: metric["value"] for name, metric in record["metrics"].items()
        }
    return runs


def spread(values: List[float]) -> float:
    """Interquartile range over median, the contract's steadiness measure."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    delta = change - base if better == "lower" else base - change
    return delta / abs(base) if base else 0.0


def compare_metric(metric: dict, a: Dict[int, float], b: Dict[int, float]) -> dict:
    name, better = metric["name"], metric["better"]
    bound = metric.get("bound")
    av, bv = list(a.values()), list(b.values())
    row = {
        "metric": name,
        "a": statistics.median(av),
        "b": statistics.median(bv),
        "spread_a": spread(av),
        "spread_b": spread(bv),
    }
    row["ratio"] = row["b"] / row["a"] if row["a"] else float("nan")
    if all(v == NOT_APPLICABLE for v in av + bv):
        row["verdict"] = "n/a"
        return row
    differs = ""
    common = set(a) & set(b)
    if is_simulated(name) and common:
        differing = sorted(s for s in common if a[s] != b[s])
        if not differing:
            row["verdict"] = "identical"
            return row
        differs = f"differs (seeds {differing})"
    if bound is None:
        row["verdict"] = differs
        return row
    worse = worse_by(row["a"], row["b"], better)
    if worse > bound:
        verdict = "regressed"
    elif max(row["spread_a"], row["spread_b"]) > bound:
        b_wins = (
            max(bv) < min(av) if better == "lower" else min(bv) > max(av)
        )
        verdict = "improved" if b_wins else "unresolved"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    row["verdict"] = f"{differs}; medians {verdict}" if differs else verdict
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base runs (directory or file)")
    parser.add_argument("b", type=Path, help="changed runs")
    parser.add_argument(
        "--exact",
        action="store_true",
        help="fail when a simulated metric or count differs for any seed "
        "(the rule for a change meant to move host time only)",
    )
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    failed = False
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, traced = key
        declared = benchmark["per_layer" if traced else "end_to_end"]
        print(
            f"== {workload}{'  traced' if traced else ''}: "
            f"A {sorted(runs_a[key])}  B {sorted(runs_b[key])} (seeds)"
        )
        print(
            f"   {'metric':<38} {'A median':>13} {'B median':>13} "
            f"{'B/A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
        )
        for metric in declared:
            name = metric["name"]
            a = {s: m[name] for s, m in runs_a[key].items() if name in m}
            b = {s: m[name] for s, m in runs_b[key].items() if name in m}
            if not a or not b:
                print(f"   {name:<38} missing from one side")
                failed = True
                continue
            row = compare_metric(metric, a, b)
            if row["verdict"] == "n/a":
                continue
            failed |= "regressed" in row["verdict"]
            failed |= args.exact and "differs" in row["verdict"]
            print(
                f"   {name:<38} {row['a']:>13.6g} {row['b']:>13.6g} "
                f"{row['ratio']:>8.4f} {row['spread_a']:>9.4f} "
                f"{row['spread_b']:>9.4f} {metric.get('bound', ''):>6}  "
                f"{row['verdict']}"
            )
    only = sorted(set(runs_a) ^ set(runs_b))
    if only:
        print(f"present on one side only: {only}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
