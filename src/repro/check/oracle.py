"""Cross-scheme differential oracle.

One seeded :class:`~repro.trace.Trace` replays on every scheme;
three properties must hold (see ``docs/checker.md``):

1. **Sanitizer-clean** — the persist-ordering sanitizer attached to each
   run reports no violations against the scheme's declared discipline;
2. **Logical convergence** — after the full trace, reading every written
   word back *through the scheme's own read path* (mapping tables, log
   overlays, shadow pairs, caches) yields the scheme-independent
   last-write-wins model, identically across all schemes including
   ``native``;
3. **Crash-recovery convergence** — for every real scheme (``native``
   excluded: it promises nothing), a sampled sweep of power-cut points
   crashes, recovers, and checks atomic durability against the same
   model: committed transactions fully visible, the in-flight one
   all-or-nothing.

``mutant-redo`` (:mod:`repro.check.mutant`) resolves here and nowhere
else, so the deliberately broken scheme can never leak into the harness
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.check.sanitizer import PersistOrderSanitizer
from repro.common.config import FaultConfig, SystemConfig
from repro.crashtest import choose_boundaries, forward_cursor, sweep_cases
from repro.faults import make_device
from repro.schemes import ALL_SCHEME_NAMES, PERSISTENT_SCHEME_NAMES
from repro.trace import (
    SLOT_BYTES,
    RunOutcome,
    Trace,
    TxnRecord,
    expected_state,
    generate_trace,
    run_txns,
)
from repro.txn.system import MemorySystem

# Every registered scheme plus the ideal baseline; crash-recovery
# convergence runs on REAL_SCHEMES only (native promises nothing).
ORACLE_SCHEMES = ALL_SCHEME_NAMES
REAL_SCHEMES = PERSISTENT_SCHEME_NAMES


def build_system(
    scheme: str,
    *,
    faults: Optional[FaultConfig] = None,
    checker=None,
) -> MemorySystem:
    """A small-config system for ``scheme``, including ``mutant-redo``.

    The mutant is constructed directly (it is deliberately absent from
    the scheme registry); everything else goes through the normal
    registry path.
    """
    config = SystemConfig.small()
    if faults is not None:
        config = config.replace(faults=faults)
    if scheme == "mutant-redo":
        from repro.check.mutant import MutantRedoScheme

        device = make_device(config)
        return MemorySystem(
            config, MutantRedoScheme(config, device), checker=checker
        )
    return MemorySystem(config, scheme, checker=checker)


def bind_trace(
    system: MemorySystem, trace: Trace
) -> Tuple[List[int], List[TxnRecord]]:
    """Allocate ``trace``'s slots on ``system``; slots and bound records."""
    slot_addrs = [system.allocate(SLOT_BYTES) for _ in range(trace.slots)]
    return slot_addrs, trace.records(slot_addrs)


def run_trace(
    system: MemorySystem, trace: Trace
) -> Tuple[List[int], RunOutcome]:
    """Replay ``trace`` until done or power loss; slots and outcome."""
    slot_addrs, txns = bind_trace(system, trace)
    return slot_addrs, run_txns(system, txns)


@dataclass
class SchemeCheckReport:
    """One scheme's verdicts across the three oracle properties."""

    scheme: str
    discipline: str = "?"
    transactions_checked: int = 0
    violations: List[str] = field(default_factory=list)
    logical_mismatches: List[str] = field(default_factory=list)
    crash_cases: int = 0
    crash_failures: List[str] = field(default_factory=list)
    # Final logical words as read through this scheme's own read path —
    # the raw material for the cross-scheme divergence check.
    readback: Dict[int, bytes] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when all three oracle properties held for this scheme."""
        return not (
            self.violations
            or self.logical_mismatches
            or self.crash_failures
        )

    def render(self) -> str:
        """One summary line plus an indented line per failure."""
        status = "ok" if self.ok else "FAIL"
        line = (
            f"{self.scheme:<10} [{self.discipline:<18}] {status}:"
            f" {self.transactions_checked} txns sanitized,"
            f" {self.crash_cases} crash points"
        )
        details = []
        details.extend(f"  sanitizer: {v}" for v in self.violations)
        details.extend(f"  logical: {m}" for m in self.logical_mismatches)
        details.extend(f"  crash: {f}" for f in self.crash_failures)
        return "\n".join([line] + details)


def check_scheme(
    scheme: str,
    trace: Trace,
    *,
    crash_sample: int = 12,
    seed: int = 7,
    progress=None,
) -> SchemeCheckReport:
    """Run the sanitizer + logical + crash checks for one scheme."""
    report = SchemeCheckReport(scheme=scheme)

    # 1 + 2: instrumented fault-free run, then read-back convergence.
    sanitizer = PersistOrderSanitizer()
    system = build_system(scheme, checker=sanitizer)
    slot_addrs, outcome = run_trace(system, trace)
    assert not outcome.power_lost
    report.discipline = sanitizer.discipline
    report.transactions_checked = sanitizer.transactions_checked
    report.violations = [v.render() for v in sanitizer.violations]
    expected = expected_state(trace, slot_addrs)
    for addr in sorted(expected):
        got = system.load(addr, 8)
        report.readback[addr] = got
        if got != expected[addr]:
            report.logical_mismatches.append(
                f"word {addr:#x}: read {got.hex()} expected"
                f" {expected[addr].hex()}"
            )

    # 3: crash-recovery convergence (real schemes only), through the
    # crash sweep's own boundary loop over the trace's records.
    if scheme in REAL_SCHEMES and crash_sample:

        def build(faults: FaultConfig):
            machine = build_system(scheme, faults=faults)
            return machine, bind_trace(machine, trace)[1]

        cursor = forward_cursor(build, seed)
        boundaries = choose_boundaries(cursor.total_writes, crash_sample, seed)
        for _, case in sweep_cases(
            cursor, boundaries, seed=seed, torn_mode="alternate",
            recovery_threads=2,
        ):
            report.crash_cases += 1
            if case.failure:
                report.crash_failures.append(
                    f"@write {case.boundary}"
                    f"{' torn' if case.torn else ''}: {case.failure}"
                )
    if progress:
        progress(report.render())
    return report


@dataclass
class CheckMatrixResult:
    """The differential oracle's verdict across every scheme."""

    trace: Trace
    reports: List[SchemeCheckReport] = field(default_factory=list)
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every report passed and no two schemes diverged."""
        return not self.divergences and all(r.ok for r in self.reports)

    def render(self) -> str:
        """The full matrix report, ending with RESULT: clean|FAILURES."""
        lines = [
            f"differential oracle: trace seed={self.trace.seed}"
            f" txns={len(self.trace.txns)} events={self.trace.num_events}"
        ]
        lines.extend(r.render() for r in self.reports)
        lines.extend(f"DIVERGENCE: {d}" for d in self.divergences)
        lines.append("RESULT: " + ("clean" if self.ok else "FAILURES"))
        return "\n".join(lines)


def run_check_matrix(
    schemes: Optional[List[str]] = None,
    *,
    seed: int = 7,
    transactions: int = 40,
    slots: int = 10,
    crash_sample: int = 12,
    progress=None,
) -> CheckMatrixResult:
    """Run the full differential matrix over ``schemes`` (default: all).

    Besides the per-scheme model comparison, every scheme's actual
    read-back bytes are compared against the first scheme's, so a
    divergence names both parties even if the model itself were wrong.
    """
    trace = generate_trace(
        seed,
        transactions=transactions,
        slots=slots,
        cores=SystemConfig.small().num_cores,
    )
    result = CheckMatrixResult(trace=trace)
    for scheme in schemes or list(ORACLE_SCHEMES):
        report = check_scheme(
            scheme,
            trace,
            crash_sample=crash_sample,
            seed=seed,
            progress=progress,
        )
        result.reports.append(report)
    if result.reports:
        baseline = result.reports[0]
        for report in result.reports[1:]:
            if report.readback != baseline.readback:
                diff = sorted(
                    addr
                    for addr in set(report.readback) | set(baseline.readback)
                    if report.readback.get(addr) != baseline.readback.get(addr)
                )
                result.divergences.append(
                    f"{report.scheme} and {baseline.scheme} disagree on"
                    f" {len(diff)} word(s), e.g. {diff[0]:#x}"
                )
    return result
