"""Run the benchmark: ``python3 perf/run.py [--workload NAME] [--seed N] ...``.

With ``--workload`` this process builds, measures and checks that one
workload and prints its metrics; the last line of standard output is the
JSON object the benchmark contract asks for.  Without it, every workload
runs in turn, each in a fresh subprocess of its own.  See ``README.md``
in this directory for the catalogue of workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

if __package__ in (None, ""):
    # Run as a script: sys.path[0] is perf/, where trace.py would shadow
    # the standard library's module of that name.  Import as a package.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perf import REPO_ROOT, SRC_DIR
from perf.hostspeed import (
    reference_sample,
    samples_per_boundary,
    speed_factor,
)
from perf.trace import LAYERS, ROOT_LAYER, tracing

BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"
DEFAULT_OUT = Path(__file__).resolve().parent / "out"

# The contract wants every end-to-end metric on every workload, and none
# that reads 0.  Where a metric does not apply to a workload the JSON
# carries this placeholder and the printed report says "n/a".
NOT_APPLICABLE = 1.0

MIN_ROUNDS = 3
PERFETTO_SPAN_LIMIT = 100_000


def load_benchmark() -> dict:
    with open(BENCHMARK_FILE) as handle:
        return json.load(handle)


# -- measuring -------------------------------------------------------------------


@dataclass
class Round:
    """Every unit of a workload set up and measured once."""

    setup_s: Dict[str, float]
    measure_s: Dict[str, float]
    reference_s: List[float]  # host-speed samples taken between the units
    summary: object  # workloads.RoundSummary
    spans: List[Tuple[int, int]]  # tracer index ranges of the measured units

    @property
    def speed(self) -> float:
        return speed_factor(self.reference_s)

    def reference_seconds(self, which: str) -> float:
        """This round's set-up or measured wall time, in reference seconds."""
        return sum(getattr(self, which).values()) * self.speed


def run_round(workload, tracer=None) -> Round:
    setup_s: Dict[str, float] = {}
    measure_s: Dict[str, float] = {}
    results = {}
    spans = []
    samples = samples_per_boundary(len(workload.units))
    reference_s: List[float] = []
    for unit in workload.units:
        # Collect first: the reference loop slows down next to a large
        # live heap, which says nothing about the host.
        gc.collect()
        reference_s.extend(reference_sample() for _ in range(samples))
        start = time.perf_counter()
        state = workload.setup(unit)
        built = time.perf_counter()
        if tracer is None:
            results[unit] = workload.measure(unit, state)
        else:
            with tracer.span(ROOT_LAYER, unit) as first:
                results[unit] = workload.measure(unit, state)
            spans.append((first, len(tracer)))
        done = time.perf_counter()
        setup_s[unit] = built - start
        measure_s[unit] = done - built
        del state
    summary = workload.finish(results)
    del results
    gc.collect()
    reference_s.extend(reference_sample() for _ in range(samples))
    return Round(setup_s, measure_s, reference_s, summary, spans)


def median_of_rounds(rounds: List[Round], which: str) -> float:
    return statistics.median(r.reference_seconds(which) for r in rounds)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def digest(outputs: dict) -> str:
    return hashlib.sha256(canonical(outputs).encode()).hexdigest()


def first_difference(base: dict, other: dict) -> Optional[str]:
    """The first output field on which two rounds disagree, if any."""
    for key in sorted(set(base) | set(other)):
        if canonical(base.get(key)) != canonical(other.get(key)):
            return key
    return None


# -- one workload ----------------------------------------------------------------


def run_untraced(workload, seconds: float, min_rounds: int):
    rounds: List[Round] = []
    began = time.perf_counter()
    while (
        len(rounds) < min_rounds or time.perf_counter() - began < seconds
    ):
        rounds.append(run_round(workload))
    first = rounds[0].summary
    problems = list(first.problems)
    for index, later in enumerate(rounds[1:], start=2):
        field = first_difference(first.outputs, later.summary.outputs)
        if field is not None:
            problems.append(
                f"simulated output {field!r} differs between round 1 "
                f"and round {index}"
            )
    return rounds, problems


def end_to_end(rounds: List[Round], import_s: float) -> Dict[str, float]:
    """The metrics of ``--trace 0``; host times in reference seconds."""
    summary = rounds[0].summary
    failed = summary.refused + summary.wrong
    values = {
        # The import happens once, before any round: corrected by the
        # run's median speed factor.
        "setup_s": import_s * statistics.median(r.speed for r in rounds)
        + median_of_rounds(rounds, "setup_s"),
        "wall_ops_per_s": summary.done / median_of_rounds(rounds, "measure_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_share": 1.0 - failed / summary.attempted,
    }
    values.update(summary.sim)
    return values


def per_layer(plain: Round, traced: Round, tracer) -> Dict[str, float]:
    folded = tracer.by_layer(traced.spans)
    values: Dict[str, float] = {}
    for layer in LAYERS:
        self_s, calls = folded.get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.calls"] = calls
    traced_wall = sum(traced.measure_s.values())
    values["trace.overhead_ratio"] = traced.reference_seconds(
        "measure_s"
    ) / plain.reference_seconds("measure_s")
    values["trace.covered_share"] = (
        sum(values[f"{layer}.self_s"] for layer in LAYERS) / traced_wall
    )
    values.update(plain.summary.counts)
    return values


def measure_traced(workload, record: dict, perfetto_path: Path):
    """One untraced round, one traced: ``(summary, per-layer values, problems)``."""
    plain = run_round(workload)
    with tracing() as tracer:
        traced = run_round(workload, tracer)
    problems = list(plain.summary.problems)
    field = first_difference(plain.summary.outputs, traced.summary.outputs)
    if field is not None:
        problems.append(f"tracing changed the simulated output {field!r}")
    written = tracer.write_perfetto(
        perfetto_path, traced.spans, limit=PERFETTO_SPAN_LIMIT
    )
    record["spans"] = {"recorded": len(tracer), "written": written}
    record["wall_s"] = {
        "untraced": sum(plain.measure_s.values()),
        "traced": sum(traced.measure_s.values()),
    }
    record["speed_factors"] = [plain.speed, traced.speed]
    return plain.summary, per_layer(plain, traced, tracer), problems


def measure_untraced(workload, args, import_s: float, record: dict):
    """Rounds for ``--seconds``: ``(summary, end-to-end values, problems)``."""
    if args.quick:
        rounds, problems = run_untraced(workload, 0.0, 1)
    else:
        rounds, problems = run_untraced(workload, args.seconds, MIN_ROUNDS)
    summary = rounds[0].summary
    record["rounds"] = len(rounds)
    record["import_s"] = import_s
    record["speed_factors"] = [r.speed for r in rounds]
    for which in ("measure_s", "setup_s"):
        corrected = [r.reference_seconds(which) for r in rounds]
        record[which] = {
            "reference_seconds": corrected,
            "median": statistics.median(corrected),
            "quartiles": (
                statistics.quantiles(corrected, n=4)
                if len(corrected) > 1
                else None
            ),
            "wall_per_unit": [getattr(r, which) for r in rounds],
        }
    record["reference_samples_s"] = [r.reference_s for r in rounds]
    wall = [sum(r.measure_s.values()) for r in rounds]
    typical = statistics.median(wall)
    print(
        f"   host time: {len(rounds)} rounds of {len(workload.units)} units; "
        f"measured wall seconds per round {[round(t, 3) for t in wall]} "
        f"(median {typical:.3f} = {summary.done / typical:.6g} ops/s raw)"
    )
    print(
        f"   host speed factor per round "
        f"{[round(f, 3) for f in record['speed_factors']]} (reference loop, "
        f"1 = nominal); measured reference seconds per round "
        f"{[round(t, 3) for t in record['measure_s']['reference_seconds']]}, "
        f"quartiles {[round(q, 3) for q in record['measure_s']['quartiles'] or []]}"
    )
    return summary, end_to_end(rounds, import_s), problems


def run_workload(args, benchmark: dict) -> int:
    imported = time.perf_counter()
    from perf.workloads import WORKLOADS

    import_s = time.perf_counter() - imported
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "python": sys.version.split()[0],
    }
    print(
        f"== {args.workload}  seed {args.seed}"
        f"{'  traced' if args.trace else ''}{'  quick' if args.quick else ''}"
    )
    if args.trace:
        declared = benchmark["per_layer"]
        summary, values, problems = measure_traced(
            workload, record, out_dir / f"{stem}.perfetto.json"
        )
        stem += ".trace"
    else:
        declared = benchmark["end_to_end"]
        summary, values, problems = measure_untraced(
            workload, args, import_s, record
        )
    undeclared = sorted(set(values) - {metric["name"] for metric in declared})
    if undeclared:
        problems.append(f"metrics missing from BENCHMARK.json: {undeclared}")

    for note in summary.notes:
        print(f"   {note}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        metrics[name] = {
            "value": values.get(name, NOT_APPLICABLE),
            "unit": metric["unit"],
        }
        clock = "simulated" if is_simulated(name) else "host"
        shown = f"{values[name]:.6g}" if name in values else "n/a"
        bound = f"  bound {metric['bound']}" if "bound" in metric else ""
        print(
            f"   {name:<40} {shown:>14} {metric['unit']:<8} "
            f"[{clock}, {metric['better']} is better{bound}]"
        )
    failed_share = (summary.refused + summary.wrong) / summary.attempted
    outputs_sha256 = digest(summary.outputs)
    print(
        f"   attempted {summary.attempted}  completed {summary.done}  "
        f"refused {summary.refused}  wrong {summary.wrong}  "
        f"failed_share {failed_share:.6g}"
    )
    print(f"   simulated outputs sha256 {outputs_sha256}")
    for problem in problems:
        print(f"   CHECK FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": summary.attempted,
        # Requests the overloaded shard refuses are its designed answer, not
        # a wrong one: they are counted by ok_share, not here.
        "failed": summary.wrong,
        "metrics": metrics,
    }
    record.update(
        result,
        refused=summary.refused,
        completed=summary.done,
        outputs_sha256=outputs_sha256,
        problems=problems,
    )
    with open(out_dir / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


def is_simulated(name: str) -> bool:
    """Simulated clock or count: repeats exactly for a fixed seed."""
    host = name in ("setup_s", "wall_ops_per_s", "peak_rss_mb")
    return not (host or name.endswith(".self_s") or name.startswith("trace."))


# -- every workload, each in its own process -------------------------------------


def run_all(args, benchmark: dict) -> int:
    worst = 0
    for workload in benchmark["workloads"]:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(args.out),
        ] + (["--quick"] if args.quick else [])
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv=None) -> int:
    if not (SRC_DIR / "repro").is_dir():
        print(f"perf/run.py: no simulator at {SRC_DIR}/repro", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=[w["name"] for w in benchmark["workloads"]],
        help="run this workload in this process (default: all, one "
        "subprocess each)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        default=benchmark["run_seconds"],
        help="keep adding rounds (set-up included) until this much wall "
        f"time has passed; at least {MIN_ROUNDS} rounds",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: one untraced and one traced round, per-layer metrics",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down sizes, one round: for the tests, not for numbers",
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, benchmark)
    return run_workload(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
