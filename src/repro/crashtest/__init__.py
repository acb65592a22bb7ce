"""Systematic crash-consistency sweep across all persistence schemes.

The paper's core robustness claim (§III-E/F, Fig. 11) is that HOOP
survives a power failure at *any* instant — including mid-GC and
mid-recovery.  This module tests the claim mechanically, for HOOP *and*
every baseline, instead of at a handful of hand-picked points:

1. a **probe run** executes a seeded random transactional workload with
   the fault device armed but no fault scheduled, counting the total
   number of timed NVM writes ``W``;
2. for each chosen boundary ``k`` (all of ``1..W`` in exhaustive
   mode, a seeded sample in CI mode) the identical workload meets a
   power loss after its ``k``-th write — torn or clean cut — on a fork
   of the one machine that runs the workload forward
   (:class:`~repro.snapshot.replay.ForwardCursor`; a cold rerun per
   boundary under ``REPRO_SNAPSHOT_DISABLE=1``), then crashes,
   recovers, and verifies **atomic durability**: every committed
   transaction fully visible, the in-flight transaction
   all-or-nothing;
3. every failing case is written as a minimal repro artifact (scheme +
   workload parameters + fault plan JSON) that ``--replay`` re-runs
   exactly.

Determinism: workload generation, fault plans, and boundary sampling
all derive from explicit seeds, so a sweep is byte-reproducible and an
artifact replays to the identical failure or pass.

CLI: ``python -m repro.crashtest --schemes all --sample 200 --seed 7``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import FaultConfig, SystemConfig
from repro.common.errors import PowerLossError
from repro.faults.plan import CrashArtifact, save_artifact
# ``capture`` is re-exported, not used here: the benchmark's tracer
# resolves ``repro.crashtest.capture`` by name.
from repro.snapshot import capture, snapshots_enabled  # noqa: F401
from repro.snapshot.replay import ForwardCursor, TxnRecord
from repro.txn.system import MemorySystem

# The sweep's scheme vocabulary.  Keys are the CLI names (the paper's
# shorthand); values are registry names in repro.schemes.
SWEEP_SCHEMES: Dict[str, str] = {
    "hoop": "hoop",
    "undo": "opt-undo",
    "redo": "opt-redo",
    "osp": "osp",
    "lad": "lad",
    "lsm": "lsm",
    "logregion": "logregion",
    "hoopmc": "hoop-mc",
}

_ZERO_WORD = bytes(8)


def resolve_schemes(spec: str) -> List[str]:
    """Expand a ``--schemes`` argument to registry names."""
    if spec == "all":
        return list(SWEEP_SCHEMES.values())
    names = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        registry = SWEEP_SCHEMES.get(token, token)
        names.append(registry)
    if not names:
        raise ValueError("no schemes selected")
    return names


@dataclass
class RunOutcome:
    """One workload execution under one fault plan."""

    oracle: Dict[int, bytes]  # committed word -> value
    staged: Dict[int, bytes]  # in-flight transaction's words (may be {})
    power_lost: bool
    writes_at_cut: int


@dataclass
class CaseResult:
    """One verified crash/recovery case."""

    boundary: Optional[int]
    torn: bool
    failure: Optional[str]
    fingerprint: str
    committed: int


@dataclass
class SweepResult:
    scheme: str
    total_writes: int
    boundaries: List[int] = field(default_factory=list)
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseResult]:
        return [c for c in self.cases if c.failure]


def _build_system(scheme: str, faults: FaultConfig) -> MemorySystem:
    config = SystemConfig.small().replace(faults=faults)
    return MemorySystem(config, scheme=scheme)


def run_workload(
    system: MemorySystem,
    *,
    seed: int,
    transactions: int,
    addresses: int,
) -> RunOutcome:
    """Drive the seeded random workload until done or power loss.

    The oracle tracks words of transactions whose ``with`` block exited
    (commit returned); ``staged`` holds the one transaction that was
    open — or mid-commit, or whose post-commit GC tick died — when the
    power failed.  The verifier decides which side of the commit point
    that transaction landed on.
    """
    rng = random.Random(seed)
    addrs = [system.allocate(64) for _ in range(addresses)]
    oracle: Dict[int, bytes] = {}
    staged: Dict[int, bytes] = {}
    cores = system.config.num_cores
    try:
        for _ in range(transactions):
            staged = {}
            core = rng.randrange(cores)
            with system.transaction(core) as tx:
                for _ in range(rng.randint(1, 6)):
                    addr = rng.choice(addrs) + 8 * rng.randrange(8)
                    value = rng.getrandbits(64).to_bytes(8, "little")
                    tx.store(addr, value)
                    staged[addr] = value
            oracle.update(staged)
            staged = {}
    except PowerLossError:
        return RunOutcome(
            oracle, staged, True, system.device.stats.writes
        )
    return RunOutcome(oracle, {}, False, system.device.stats.writes)


def count_write_boundaries(
    scheme: str, *, seed: int, transactions: int, addresses: int
) -> int:
    """Probe run: total timed writes of the fault-free workload.

    Runs on the *fault device* with nothing armed so write counting
    (e.g. batched GC writes, decomposed per element) matches the armed
    runs write-for-write.
    """
    system = _build_system(scheme, FaultConfig(enabled=True, seed=seed))
    outcome = run_workload(
        system, seed=seed, transactions=transactions, addresses=addresses
    )
    assert not outcome.power_lost
    return system.device.stats.writes


def verify_atomic_durability(
    system: MemorySystem,
    oracle: Dict[int, bytes],
    staged: Dict[int, bytes],
) -> Optional[str]:
    """Check recovered NVM against the oracle; returns a failure message.

    Contract: every committed word durable; the in-flight transaction
    (if any) either fully applied or fully discarded — judged over the
    words whose staged value actually differs from the pre-crash
    committed value, since identical values are unobservable.
    """
    # Line-cached durable reads: the oracle's words cluster on a few
    # cache lines, so one 64-byte peek serves eight word checks.
    # Nothing writes between the checks, so the cache cannot go stale.
    peek = system.device.peek
    lines: Dict[int, bytes] = {}

    def durable_word(addr: int) -> bytes:
        base = addr & ~63
        buf = lines.get(base)
        if buf is None:
            buf = peek(base, 64)
            lines[base] = buf
        offset = addr - base
        return buf[offset : offset + 8]

    changed = {
        addr: value
        for addr, value in staged.items()
        if oracle.get(addr, _ZERO_WORD) != value
    }
    applied = [
        addr
        for addr, value in changed.items()
        if durable_word(addr) == value
    ]
    if changed and 0 < len(applied) < len(changed):
        return (
            f"in-flight transaction torn: {len(applied)}/{len(changed)} "
            f"of its words durable (e.g. {applied[0]:#x})"
        )
    inflight_committed = bool(changed) and len(applied) == len(changed)
    stale = []
    for addr, value in oracle.items():
        expect = value
        if inflight_committed and addr in staged:
            expect = staged[addr]
        if durable_word(addr) != expect:
            stale.append(addr)
    if stale:
        return (
            f"{len(stale)} committed words lost/stale after recovery "
            f"(e.g. {stale[0]:#x})"
        )
    return None


def _finish_case(
    system: MemorySystem,
    faults: FaultConfig,
    outcome: RunOutcome,
    recovery_threads: int,
) -> CaseResult:
    """Shared verdict tail: crash, recover, verify, fingerprint.

    Both the cold path (:func:`run_case`) and the forked path
    (:func:`sweep_scheme` over a cursor) end here, so their verdicts
    are computed by the same code — a bit-identity requirement, not
    just deduplication.
    """
    system.crash()
    report = system.recover(threads=recovery_threads)
    failure = verify_atomic_durability(
        system, outcome.oracle, outcome.staged
    )
    committed = getattr(
        report, "committed_transactions", len(outcome.oracle)
    )
    return CaseResult(
        boundary=faults.power_loss_after_write,
        torn=faults.torn,
        failure=failure,
        fingerprint=system.device.content_fingerprint(),
        committed=committed,
    )


def build_crashed_cold(
    scheme: str,
    faults: FaultConfig,
    *,
    seed: int,
    transactions: int,
    addresses: int,
) -> Tuple[MemorySystem, RunOutcome]:
    """Cold front half of a case: run the workload under ``faults``.

    Returns the system *before* ``crash()`` plus the observed outcome;
    shared by :func:`run_case` and the nested sweep (which crashes,
    snapshots, and re-crashes recovery itself).
    """
    system = _build_system(scheme, faults)
    outcome = run_workload(
        system, seed=seed, transactions=transactions, addresses=addresses
    )
    return system, outcome


def run_case(
    scheme: str,
    faults: FaultConfig,
    *,
    seed: int,
    transactions: int,
    addresses: int,
    recovery_threads: int = 2,
) -> CaseResult:
    """One full cold cycle: workload under faults, crash, recover, verify."""
    system, outcome = build_crashed_cold(
        scheme, faults, seed=seed, transactions=transactions,
        addresses=addresses,
    )
    return _finish_case(system, faults, outcome, recovery_threads)


def forward_cursor(
    scheme: str, *, seed: int, transactions: int, addresses: int
) -> ForwardCursor:
    """Record the seeded workload; a cursor poised before its first txn.

    Replicates :func:`run_workload`'s RNG call order exactly (same
    ``randrange``/``randint``/``choice``/``getrandbits`` sequence), so
    the recorded transactions are byte-for-byte what an armed rerun
    would execute.  The machine is built on the *fault device* with
    nothing armed, so the cursor's write counts match the armed runs
    write-for-write.
    """
    system = _build_system(scheme, FaultConfig(enabled=True, seed=seed))
    rng = random.Random(seed)
    addrs = [system.allocate(64) for _ in range(addresses)]
    cores = system.config.num_cores
    txns: List[TxnRecord] = []
    for _ in range(transactions):
        core = rng.randrange(cores)
        stores: List[Tuple[int, bytes]] = []
        for _ in range(rng.randint(1, 6)):
            addr = rng.choice(addrs) + 8 * rng.randrange(8)
            value = rng.getrandbits(64).to_bytes(8, "little")
            stores.append((addr, value))
        txns.append((core, stores))
    return ForwardCursor(system, txns)


def build_crashed(
    scheme: str,
    faults: FaultConfig,
    cursor: Optional[ForwardCursor],
    *,
    seed: int,
    transactions: int,
    addresses: int,
) -> Tuple[MemorySystem, RunOutcome]:
    """Front half of a case: a fork of ``cursor`` run into the cut.

    Returns the system before ``crash()`` plus the outcome, exactly as
    :func:`build_crashed_cold` produces them — which is what runs when
    there is no cursor (``REPRO_SNAPSHOT_DISABLE=1``) or the boundary
    precedes the cursor's first transaction.
    """
    forked = cursor.crash_at(faults) if cursor is not None else None
    if forked is None:
        return build_crashed_cold(
            scheme, faults, seed=seed, transactions=transactions,
            addresses=addresses,
        )
    system, oracle, staged = forked
    return system, RunOutcome(
        oracle,
        staged,
        system.device.injector.power_lost,
        system.device.stats.writes,
    )


def choose_boundaries(
    total_writes: int, sample: int, seed: int
) -> List[int]:
    """Deterministic boundary choice: exhaustive or seeded sample.

    ``sample=0`` (or a sample at least the population size) sweeps
    every boundary.  A sample always includes the first and last write
    — the cheapest and most commit-adjacent crash points.
    """
    population = list(range(1, total_writes + 1))
    if sample <= 0 or sample >= len(population):
        return population
    rng = random.Random(seed)
    chosen = set(rng.sample(population, sample))
    chosen.add(1)
    chosen.add(total_writes)
    return sorted(chosen)


def _torn_for(boundary: int, mode: str) -> bool:
    if mode == "always":
        return True
    if mode == "never":
        return False
    return boundary % 2 == 1  # alternate


def sweep_scheme(
    scheme: str,
    *,
    seed: int = 7,
    transactions: int = 80,
    addresses: int = 12,
    sample: int = 0,
    torn_mode: str = "alternate",
    recovery_threads: int = 2,
    artifact_dir: Optional[str] = None,
    progress=None,
) -> SweepResult:
    """Sweep one scheme across crash boundaries; returns all cases.

    By default the sweep does its forward work once: the seeded
    workload is recorded, a probe counts the timed writes before each
    transaction, and one live fault-free machine
    (:class:`~repro.snapshot.replay.ForwardCursor`) advances through
    the boundaries in ascending order, forked between transactions for
    each case — a case pays for one fork, the rest of the transaction
    the cut lands in, and its own recovery.
    ``REPRO_SNAPSHOT_DISABLE=1`` falls back to the original cold rerun
    per boundary; per-boundary verdicts are bit-identical either way.
    """
    cursor: Optional[ForwardCursor] = None
    if snapshots_enabled():
        cursor = forward_cursor(
            scheme, seed=seed, transactions=transactions, addresses=addresses
        )
        total = cursor.total_writes
    else:
        total = count_write_boundaries(
            scheme, seed=seed, transactions=transactions, addresses=addresses
        )
    boundaries = choose_boundaries(total, sample, seed)
    result = SweepResult(
        scheme=scheme, total_writes=total, boundaries=boundaries
    )
    for boundary in boundaries:
        faults = FaultConfig(
            enabled=True,
            seed=seed ^ (boundary << 8),
            power_loss_after_write=boundary,
            torn=_torn_for(boundary, torn_mode),
        )
        system, outcome = build_crashed(
            scheme, faults, cursor, seed=seed, transactions=transactions,
            addresses=addresses,
        )
        case = _finish_case(system, faults, outcome, recovery_threads)
        result.cases.append(case)
        if case.failure and artifact_dir:
            artifact = CrashArtifact(
                scheme=scheme,
                faults=faults,
                workload_seed=seed,
                transactions=transactions,
                addresses=addresses,
                recovery_threads=recovery_threads,
                failure=case.failure,
                fingerprint=case.fingerprint,
            )
            path = save_artifact(
                artifact,
                f"{artifact_dir}/crash_{scheme}_w{boundary}"
                f"{'_torn' if faults.torn else ''}.json",
            )
            if progress:
                progress(f"  artifact written: {path}")
        if progress and case.failure:
            progress(
                f"  FAIL {scheme} @write {boundary}"
                f"{' torn' if case.torn else ''}: {case.failure}"
            )
    return result


def replay_artifact(artifact: CrashArtifact) -> CaseResult:
    """Re-run one saved case exactly; the caller compares outcomes."""
    return run_case(
        artifact.scheme,
        artifact.faults,
        seed=artifact.workload_seed,
        transactions=artifact.transactions,
        addresses=artifact.addresses,
        recovery_threads=artifact.recovery_threads,
    )
