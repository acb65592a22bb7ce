"""CLI: systematic crash-point sweep (`python -m repro.crashtest`).

Usage::

    python -m repro.crashtest --schemes all --sample 200 --seed 7
    python -m repro.crashtest --schemes hoop,opt-undo --sample 0  # exhaustive
    python -m repro.crashtest --replay crashtest_artifacts/crash_hoop_w12.json
    python -m repro.crashtest --nested --schemes all            # crash recovery too
    python -m repro.crashtest --profile sweep_profile.txt       # where the time goes

Exit status is non-zero when any case fails (or a replay diverges from
its recorded outcome); failing cases are saved under ``--artifact-dir``
as fault-plan JSON that ``--replay`` re-runs exactly.  ``--nested``
switches to the nested-fault sweep (:mod:`repro.crashtest.nested`):
crash-during-recovery, crash-during-GC, media bursts during GC, and the
recovery-idempotence oracle.  Both sweeps run through one per-scheme
loop, and ``--replay`` takes an artifact of either.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, NamedTuple

from repro import crashtest
from repro.crashtest import nested
from repro.faults.plan import load_artifact, phase_coordinates
from repro.schemes import PERSISTENT_SCHEME_NAMES
from repro.tools.profiling import add_profile_argument, profile_to


def _replay(path: str) -> int:
    """Replay one saved artifact cold and compare it with its record.

    Exit 1 when the replay diverges from the recorded outcome, 2 when
    it reproduces a recorded failure, 0 when it reproduces a pass.
    """
    artifact = load_artifact(path)
    case = crashtest.replay_artifact(artifact)
    boundary, after_ops, torn, _ = phase_coordinates(
        artifact.phase, artifact.faults.schedule
    )
    if artifact.phase == "forward":
        header = (
            f"[crashtest] replay {path}: scheme={artifact.scheme}"
            f" boundary={boundary} torn={torn}"
        )
    else:
        header = (
            f"[crashtest] nested replay {path}:"
            f" scheme={artifact.scheme} phase={artifact.phase}"
            f" fwd={boundary} nested={after_ops}"
        )
    same = case.failure == artifact.failure and (
        not artifact.fingerprint
        or case.fingerprint == artifact.fingerprint
    )
    print(header)
    print(f"[crashtest]   recorded: {artifact.failure or 'pass'}")
    print(f"[crashtest]   replayed: {case.failure or 'pass'}")
    if not same:
        print("[crashtest] REPLAY DIVERGED", file=sys.stderr)
        return 1
    print("[crashtest] replay reproduced the recorded outcome")
    return 2 if case.failure else 0


class _Mode(NamedTuple):
    """What differs between the forward and the nested sweep's CLI."""

    sweep: Callable  # scheme -> SweepResult or NestedSweepResult
    row: Callable  # result -> its ``--verdicts`` entry
    line: Callable  # result -> its per-scheme summary
    total: str  # the grand-total line's label
    passed: str  # the closing line when every case passed


def _forward(args) -> _Mode:
    """The forward sweep's part of the CLI loop."""

    def line(result) -> str:
        return (
            f"{result.scheme}: {len(result.cases)} boundaries of "
            f"{result.total_writes} writes, {len(result.failures)} failures"
        )

    return _Mode(
        sweep=lambda scheme: crashtest.sweep_scheme(
            scheme,
            seed=args.seed,
            transactions=args.transactions,
            addresses=args.addresses,
            sample=args.sample,
            torn_mode=args.torn,
            recovery_threads=args.threads,
            artifact_dir=args.artifact_dir,
            progress=print,
        ),
        row=lambda result: {
            "total_writes": result.total_writes,
            "cases": [
                [c.boundary, c.torn, c.failure, c.fingerprint, c.committed]
                for c in result.cases
            ],
        },
        line=line,
        total="total",
        passed="all cases atomically durable",
    )


def _nested(args) -> _Mode:
    """The ``--nested`` sweep's part of the CLI loop."""

    def line(result) -> str:
        return (
            f"{result.scheme} nested: {len(result.cases)} cases, recovery"
            f" ops probed {result.recovery_ops_probed},"
            f" {len(result.failures)} failures"
        )

    return _Mode(
        sweep=lambda scheme: nested.nested_sweep_scheme(
            scheme,
            seed=args.seed,
            transactions=args.transactions,
            addresses=args.addresses,
            forward_sample=args.forward_sample,
            nested_sample=args.nested_sample,
            gc_sample=args.gc_sample,
            torn_mode=args.torn,
            recovery_threads=args.threads,
            idempotence_k=args.idempotence_k,
            artifact_dir=args.artifact_dir,
            progress=print,
        ),
        row=lambda result: {
            "total_writes": result.total_writes,
            "recovery_ops": result.recovery_ops_probed,
            "cases": [
                [c.key(), c.attempts, c.failure, c.fingerprint]
                for c in result.cases
            ],
        },
        line=line,
        total="nested total",
        passed="all nested cases atomically durable and recovery-idempotent",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crashtest",
        description="Crash-consistency sweep across NVM write boundaries.",
    )
    parser.add_argument(
        "--schemes", default="all",
        help="comma list of {%s} or 'all'" % ",".join(
            PERSISTENT_SCHEME_NAMES
        ),
    )
    parser.add_argument(
        "--sample", type=int, default=200,
        help="crash boundaries per scheme (0 = every write boundary)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--transactions", type=int, default=80,
        help="workload length per run",
    )
    parser.add_argument("--addresses", type=int, default=12)
    parser.add_argument(
        "--torn", choices=("never", "always", "alternate"),
        default="alternate",
        help="tear the fatal write at 8-byte granularity",
    )
    parser.add_argument("--threads", type=int, default=2,
                        help="recovery thread count")
    parser.add_argument(
        "--artifact-dir", default="crashtest_artifacts",
        help="where failing cases are saved as replayable JSON",
    )
    parser.add_argument(
        "--replay", metavar="ARTIFACT",
        help="replay one saved artifact instead of sweeping",
    )
    add_profile_argument(parser)
    parser.add_argument(
        "--verdicts", metavar="PATH",
        help="write per-boundary verdicts as JSON (for diffing two"
        " revisions' sweeps)",
    )
    parser.add_argument(
        "--nested", action="store_true",
        help="nested-fault sweep: crash recovery/GC too, and check"
        " recovery idempotence",
    )
    parser.add_argument(
        "--forward-sample", type=int, default=5,
        help="[--nested] forward crash boundaries per scheme",
    )
    parser.add_argument(
        "--nested-sample", type=int, default=4,
        help="[--nested] recovery-op cut points per forward boundary"
        " (0 = every recovery op)",
    )
    parser.add_argument(
        "--gc-sample", type=int, default=6,
        help="[--nested] write boundaries inside the GC pass"
        " (0 = every GC write)",
    )
    parser.add_argument(
        "--idempotence-k", type=int, default=2,
        help="[--nested] extra crash+recover cycles per case; durable"
        " state must stay bit-identical",
    )
    args = parser.parse_args(argv)
    for flag in ("threads", "transactions"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1")
    try:
        args.schemes = crashtest.resolve_schemes(args.schemes)
    except ValueError as exc:
        parser.error(str(exc))
    with profile_to(args.profile):
        return _run(args)


def _run(args) -> int:
    """Replay, nested sweep or forward sweep; returns the exit status."""
    if args.replay:
        return _replay(args.replay)
    mode = _nested(args) if args.nested else _forward(args)
    any_failures = False
    grand_cases = 0
    verdicts = {}
    started = time.time()
    for scheme in args.schemes:
        t0 = time.time()
        result = mode.sweep(scheme)
        grand_cases += len(result.cases)
        any_failures = any_failures or bool(result.failures)
        verdicts[scheme] = mode.row(result)
        print(f"[crashtest] {mode.line(result)} ({time.time() - t0:.1f}s)")
    if args.verdicts:
        path = pathlib.Path(args.verdicts)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(verdicts, indent=1, sort_keys=True))
        print(f"[crashtest] verdicts -> {path}")
    print(
        f"[crashtest] {mode.total}: {grand_cases} cases across "
        f"{len(args.schemes)} schemes in"
        f" {time.time() - started:.1f}s"
    )
    if any_failures:
        print(
            f"[crashtest] FAILURES — artifacts in {args.artifact_dir}/",
            file=sys.stderr,
        )
        return 1
    print(f"[crashtest] {mode.passed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
