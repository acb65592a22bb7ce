"""Trace fuzzer with delta-debugging shrinking.

Generates seeded random traces, replays each through a scheme with the
persist-ordering sanitizer attached, and — on the first trace that
produces a violation — shrinks it with the classic *ddmin* algorithm
(Zeller's delta debugging) to a 1-minimal reproducer: first over whole
transactions, then over the stores inside the survivors.  The shrunk
trace replays deterministically (``Trace`` is pure data), so a violation
report plus its trace is a complete bug report.

The standing self-test (``python -m repro.check --mutant``) fuzzes the
seeded fence-dropping :mod:`~repro.check.mutant` and must find and
shrink a violation within a handful of iterations — proving the whole
detection pipeline fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, TypeVar

from repro.check.oracle import build_system, run_trace
from repro.check.sanitizer import PersistOrderSanitizer, Violation
from repro.trace import Trace, TraceTxn, generate_trace

T = TypeVar("T")


def trace_violations(scheme: str, trace: Trace) -> List[Violation]:
    """Replay ``trace`` cold on ``scheme`` under a fresh sanitizer."""
    sanitizer = PersistOrderSanitizer()
    system = build_system(scheme, checker=sanitizer)
    run_trace(system, trace)
    return sanitizer.violations


def ddmin(items: List[T], failing: Callable[[List[T]], bool]) -> List[T]:
    """Zeller's ddmin: a 1-minimal sublist that still satisfies ``failing``.

    Precondition: ``failing(items)`` is true.  Complements of ever-finer
    chunk partitions are tried; any failing complement restarts the
    search on the smaller list.
    """
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            complement = items[:start] + items[start + chunk :]
            if complement and failing(complement):
                items = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    return items


def shrink_trace(scheme: str, trace: Trace) -> Trace:
    """Delta-debug ``trace`` down to a minimal still-violating trace."""

    def failing_txns(txns: List[TraceTxn]) -> bool:
        return bool(trace_violations(scheme, trace.with_txns(txns)))

    txns = ddmin(list(trace.txns), failing_txns)
    # Second stage: shrink each surviving transaction's store list.
    for index in range(len(txns)):
        txn = txns[index]
        if len(txn.stores) < 2:
            continue

        def failing_stores(stores, index=index, txn=txn):
            candidate = list(txns)
            candidate[index] = TraceTxn(txn.core, tuple(stores))
            return bool(trace_violations(scheme, trace.with_txns(candidate)))

        stores = ddmin(list(txn.stores), failing_stores)
        txns[index] = TraceTxn(txn.core, tuple(stores))
    return trace.with_txns(txns)


@dataclass
class FuzzResult:
    """Outcome of one fuzzing campaign against one scheme."""

    scheme: str
    found: bool
    iterations: int
    trace: Optional[Trace] = None  # the shrunk reproducer
    violations: List[Violation] = field(default_factory=list)

    @property
    def shrunk_events(self) -> int:
        """Size of the shrunk reproducer (begins + stores); 0 if clean."""
        return self.trace.num_events if self.trace else 0

    def render(self) -> str:
        """Campaign report: verdict, then reproducer and violations."""
        if not self.found:
            return (
                f"fuzz[{self.scheme}]: clean after"
                f" {self.iterations} iteration(s)"
            )
        lines = [
            f"fuzz[{self.scheme}]: violation found at iteration"
            f" {self.iterations}, shrunk to {self.shrunk_events} event(s)",
            self.trace.render(),
        ]
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)


def fuzz_scheme(
    scheme: str,
    *,
    seed: int = 7,
    iterations: int = 32,
    transactions: int = 8,
    slots: int = 4,
    cores: int = 4,
    progress=None,
) -> FuzzResult:
    """Fuzz ``scheme``; on the first violation, shrink and stop."""
    for i in range(iterations):
        trace = generate_trace(
            seed + i,
            transactions=transactions,
            slots=slots,
            cores=cores,
        )
        violations = trace_violations(scheme, trace)
        if progress:
            progress(
                f"fuzz[{scheme}] iter {i + 1}:"
                f" {len(violations)} violation(s)"
            )
        if violations:
            shrunk = shrink_trace(scheme, trace)
            return FuzzResult(
                scheme=scheme,
                found=True,
                iterations=i + 1,
                trace=shrunk,
                violations=trace_violations(scheme, shrunk),
            )
    return FuzzResult(scheme=scheme, found=False, iterations=iterations)
