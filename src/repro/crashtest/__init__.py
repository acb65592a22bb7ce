"""Systematic crash-consistency sweep across all persistence schemes.

The paper's core robustness claim (§III-E/F, Fig. 11) is that HOOP
survives a power failure at *any* instant — including mid-GC and
mid-recovery.  This module tests the claim mechanically, for HOOP *and*
every baseline, instead of at a handful of hand-picked points:

1. a seeded random transactional workload is recorded once, as data,
   against a machine built on the fault device with no fault
   scheduled; a **probe run** of it counts the total number of timed
   NVM writes ``W``;
2. for each chosen boundary ``k`` (all of ``1..W`` in exhaustive
   mode, a seeded sample in CI mode) the identical workload meets a
   power loss after its ``k``-th write — torn or clean cut — on a fork
   of the one machine that runs the workload forward
   (:class:`~repro.snapshot.replay.ForwardCursor`), then crashes,
   recovers, and verifies **atomic durability**: every committed
   transaction fully visible, the in-flight transaction
   all-or-nothing;
3. every failing case is written as a minimal repro artifact (scheme +
   workload parameters + fault plan JSON) that ``--replay`` re-runs
   exactly, cold, on a fresh machine — the reference every forked
   verdict is tested against.

Determinism: workload generation, fault plans, and boundary sampling
all derive from explicit seeds, so a sweep is byte-reproducible and an
artifact replays to the identical failure or pass.

CLI: ``python -m repro.crashtest --schemes all --sample 200 --seed 7``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.config import FaultConfig, SystemConfig
from repro.faults.plan import CrashArtifact, save_artifact
# ``capture`` is re-exported, not used here: the benchmark's tracer
# resolves ``repro.crashtest.capture`` by name.
from repro.snapshot import capture  # noqa: F401
from repro.snapshot.replay import ForwardCursor, TxnRecord, run_txns
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
    """One workload execution under one fault plan (see ``run_txns``)."""

    oracle: Dict[int, bytes]  # committed word -> value
    staged: Dict[int, bytes]  # in-flight transaction's words (may be {})
    power_lost: bool


# A crash workload: a fresh machine under the given fault plan, heap
# allocated, plus the transactions recorded against that heap.
Build = Callable[[FaultConfig], Tuple[MemorySystem, List[TxnRecord]]]


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


def build_workload(
    scheme: str,
    faults: FaultConfig,
    *,
    seed: int,
    transactions: int,
    addresses: int,
) -> Tuple[MemorySystem, List[TxnRecord]]:
    """A fresh ``scheme`` machine under ``faults`` and its seeded workload.

    The one home of the workload's RNG call order (``randrange`` core,
    ``randint`` store count, then ``choice``/``randrange`` address and
    ``getrandbits`` value per store).  The workload RNG is private, so
    recording every transaction before running any is byte-for-byte
    what a run interleaving the two would execute.
    """
    system = _build_system(scheme, faults)
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
    return system, txns


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
    """Shared verdict tail of a crashed machine: recover, verify, fingerprint.

    The cold replay (:func:`run_case`), the forked sweep
    (:func:`sweep_cases`) and every attempt of a nested case end here,
    so their verdicts are computed by the same code — a bit-identity
    requirement, not just deduplication.
    """
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
    what artifact replay (:func:`replay_artifact`) starts from.
    """
    system, txns = build_workload(
        scheme, faults, seed=seed, transactions=transactions,
        addresses=addresses,
    )
    return system, RunOutcome(*run_txns(system, txns))


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
    system.crash()
    return _finish_case(system, faults, outcome, recovery_threads)


def forward_cursor(build: Build, seed: int) -> ForwardCursor:
    """A cursor over ``build``'s workload, poised before its first txn.

    The machine is built on the *fault device* with nothing armed, so
    the cursor's write counts match the armed runs write-for-write.
    """
    return ForwardCursor(*build(clean_faults(seed)))


def clean_faults(seed: int) -> FaultConfig:
    """The fault device with nothing armed: the sweeps' fault-free run."""
    return FaultConfig(enabled=True, seed=seed)


def build_crashed(
    build: Build, cursor: ForwardCursor, faults: FaultConfig
) -> Tuple[MemorySystem, RunOutcome]:
    """Front half of a case: ``cursor``'s fork at the cut.

    The boundary must be the next one announced to ``cursor.expect``.
    Returns the system to ``crash()`` plus the outcome: once crashed,
    exactly what running ``build(faults)``'s workload on its fresh
    machine produces — which is what runs when the boundary precedes
    the cursor's first transaction.
    """
    forked = cursor.crash_at(faults)
    if forked is None:
        system, txns = build(faults)
        return system, RunOutcome(*run_txns(system, txns))
    system, *outcome = forked
    return system, RunOutcome(*outcome)


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


def boundary_faults(seed: int, boundary: int, torn: bool) -> FaultConfig:
    """The fault plan of one forward crash boundary."""
    return FaultConfig(
        enabled=True,
        seed=seed ^ (boundary << 8),
        power_loss_after_write=boundary,
        torn=torn,
    )


def sweep_cases(
    build: Build,
    cursor: ForwardCursor,
    boundaries: List[int],
    *,
    seed: int,
    torn_mode: str,
    recovery_threads: int,
) -> Iterator[Tuple[FaultConfig, CaseResult]]:
    """The one boundary loop: each boundary's fault plan and verdict.

    ``boundaries`` must ascend; each case is the fork ``cursor`` took
    inside its cut write, then crashed, recovered and verified.
    """
    cursor.expect(boundaries)
    for boundary in boundaries:
        faults = boundary_faults(
            seed, boundary, _torn_for(boundary, torn_mode)
        )
        system, outcome = build_crashed(build, cursor, faults)
        system.crash()
        yield faults, _finish_case(system, faults, outcome, recovery_threads)


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

    The sweep does its forward work once: the seeded workload is
    recorded, a probe counts its timed writes, and one live fault-free
    machine (:class:`~repro.snapshot.replay.ForwardCursor`) advances
    through the boundaries in ascending order, forked inside each cut
    write — a case pays for one fork, the one write that cuts it, and
    its own recovery.  Every case equals :func:`run_case` under its own
    fault plan, the cold replay of its artifact.
    """
    build = partial(
        build_workload, scheme, seed=seed, transactions=transactions,
        addresses=addresses,
    )
    cursor = forward_cursor(build, seed)
    total = cursor.total_writes
    result = SweepResult(
        scheme=scheme,
        total_writes=total,
        boundaries=choose_boundaries(total, sample, seed),
    )
    for faults, case in sweep_cases(
        build, cursor, result.boundaries, seed=seed, torn_mode=torn_mode,
        recovery_threads=recovery_threads,
    ):
        result.cases.append(case)
        if case.failure:
            report_failure(
                CrashArtifact(
                    scheme=scheme,
                    faults=faults,
                    workload_seed=seed,
                    transactions=transactions,
                    addresses=addresses,
                    recovery_threads=recovery_threads,
                    failure=case.failure,
                    fingerprint=case.fingerprint,
                ),
                artifact_dir,
                progress,
            )
    return result


def report_failure(
    artifact: CrashArtifact, artifact_dir: Optional[str], progress
) -> None:
    """Print a failing case and save it as a replayable artifact."""
    faults = artifact.faults
    boundary = faults.power_loss_after_write
    if artifact.phase == "forward":
        where = f"@write {boundary}"
        name = f"crash_{artifact.scheme}_w{boundary}"
        name += "_torn" if faults.torn else ""
    else:
        where = (
            f"[{artifact.phase}] fwd={boundary}"
            f" nested={artifact.nested_after_ops}"
        )
        name = (
            f"nested_{artifact.scheme}_{artifact.phase}_f{boundary}"
            f"_n{artifact.nested_after_ops}"
        )
    if progress:
        progress(
            f"  FAIL {artifact.scheme} {where}"
            f"{' torn' if faults.torn else ''}: {artifact.failure}"
        )
    if artifact_dir:
        path = save_artifact(artifact, f"{artifact_dir}/{name}.json")
        if progress:
            progress(f"  artifact written: {path}")


def replay_artifact(artifact: CrashArtifact):
    """Re-run one saved case cold, any phase; the caller compares outcomes.

    Builds the case's start point on a fresh machine and computes the
    verdict with the sweep's own code: a forward case returns a
    :class:`CaseResult`, a nested one a
    :class:`~repro.crashtest.nested.NestedCaseResult`.
    """
    if artifact.phase == "forward":
        return run_case(
            artifact.scheme,
            artifact.faults,
            seed=artifact.workload_seed,
            transactions=artifact.transactions,
            addresses=artifact.addresses,
            recovery_threads=artifact.recovery_threads,
        )
    # Imported here: ``import repro.crashtest`` stays free of the nested
    # sweep, which the benchmark never runs.
    from repro.crashtest.nested import run_nested_case

    system, outcome = build_crashed_cold(
        artifact.scheme,
        artifact.faults
        if artifact.phase == "recovery"
        else clean_faults(artifact.workload_seed),
        seed=artifact.workload_seed,
        transactions=artifact.transactions,
        addresses=artifact.addresses,
    )
    return run_nested_case(
        system,
        outcome,
        artifact.phase,
        artifact.faults,
        nested_boundary=artifact.nested_after_ops,
        nested_torn=artifact.nested_torn,
        threads=artifact.recovery_threads,
        idempotence_k=artifact.idempotence_k,
    )
