"""Command-line entry point for the correctness checkers.

Usage::

    python -m repro.check [--schemes all|NAME,NAME...] [--seed N]
                          [--transactions N] [--slots N]
                          [--crash-sample N] [--fuzz N]
                          [--mutant] [--out FILE] [--profile PATH]

Default run: the differential oracle + persist-ordering sanitizer across
every scheme (``--schemes all``).  ``--fuzz N`` additionally fuzzes each
selected real scheme for N iterations (expected clean).  ``--mutant``
runs the self-test instead: the seeded fence-dropping mutant must be
caught and shrunk to a minimal reproducer — the exit code is 0 when the
checker *fires* and 1 when it fails to.

Exit status: 0 all checks clean (or the mutant caught), 1 otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.check.fuzz import fuzz_scheme
from repro.check.mutant import MUTANT_SCHEME
from repro.check.oracle import ORACLE_SCHEMES, REAL_SCHEMES, run_check_matrix
from repro.tools.profiling import add_profile_argument, profile_to

# Keep the self-test honest and bounded: the mutant must be caught
# within this many fuzz iterations, with a reproducer this small.
MUTANT_MAX_ITERATIONS = 8
MUTANT_MAX_EVENTS = 20


def _resolve(spec: str) -> list:
    if spec == "all":
        return list(ORACLE_SCHEMES)
    names = [token.strip() for token in spec.split(",") if token.strip()]
    for name in names:
        if name not in ORACLE_SCHEMES and name != MUTANT_SCHEME:
            known = ", ".join(ORACLE_SCHEMES)
            raise SystemExit(f"unknown scheme {name!r}; known: {known}")
    return names


def run_mutant_selftest(*, seed: int, progress=None) -> tuple:
    """Fuzz the mutant; returns ``(passed, rendered report)``."""
    result = fuzz_scheme(
        MUTANT_SCHEME,
        seed=seed,
        iterations=MUTANT_MAX_ITERATIONS,
        progress=progress,
    )
    problems = []
    if not result.found:
        problems.append(
            f"mutant NOT caught in {MUTANT_MAX_ITERATIONS} iterations —"
            " the sanitizer is blind"
        )
    elif result.shrunk_events > MUTANT_MAX_EVENTS:
        problems.append(
            f"reproducer has {result.shrunk_events} events"
            f" (> {MUTANT_MAX_EVENTS}); shrinking regressed"
        )
    lines = [result.render()]
    lines.extend(f"SELF-TEST FAIL: {p}" for p in problems)
    lines.append(
        "SELF-TEST: " + ("passed (checker fires)" if not problems else "FAILED")
    )
    return not problems, "\n".join(lines)


def main(argv=None) -> int:
    """CLI body; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Persist-ordering sanitizer + differential oracle.",
    )
    parser.add_argument(
        "--schemes",
        default="all",
        help="comma list of schemes, or 'all' (default)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--transactions", type=int, default=40,
        help="trace length for the differential matrix",
    )
    parser.add_argument(
        "--slots", type=int, default=10,
        help="distinct 64-byte objects the trace stores into",
    )
    parser.add_argument(
        "--crash-sample", type=int, default=12,
        help="sampled crash boundaries per scheme (0 disables)",
    )
    parser.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="additionally fuzz each selected real scheme N iterations",
    )
    parser.add_argument(
        "--mutant", action="store_true",
        help="run the fence-dropping-mutant self-test instead",
    )
    parser.add_argument(
        "--out", help="also write the report to this file"
    )
    add_profile_argument(parser)
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-scheme progress lines",
    )
    args = parser.parse_args(argv)
    with profile_to(args.profile):
        return _run(args)


def _run(args) -> int:
    """Run the selected checks, print the report; returns the exit status."""
    progress = None if args.quiet else print
    sections = []
    ok = True
    if args.mutant:
        passed, text = run_mutant_selftest(seed=args.seed, progress=progress)
        ok = passed
        sections.append(text)
    else:
        schemes = _resolve(args.schemes)
        result = run_check_matrix(
            schemes,
            seed=args.seed,
            transactions=args.transactions,
            slots=args.slots,
            crash_sample=args.crash_sample,
            progress=progress,
        )
        ok = result.ok
        sections.append(result.render())
        if args.fuzz:
            for scheme in schemes:
                if scheme not in REAL_SCHEMES:
                    continue
                fuzz = fuzz_scheme(
                    scheme, seed=args.seed, iterations=args.fuzz,
                    progress=progress,
                )
                sections.append(fuzz.render())
                if fuzz.found:
                    ok = False

    report = "\n\n".join(sections)
    print(report)
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
