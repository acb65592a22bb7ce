"""Nested-fault sweep: crash the crash recovery (and GC) too.

The forward sweep (:mod:`repro.crashtest`) injects power loss during
normal execution and then lets recovery run on healthy hardware.  Real
NVM recovery must itself survive power loss and media errors and be
idempotent on re-execution — the property NVTraverse demands of its
post-crash fix-up traversals and optimistic persistent buffer managers
require of their redo passes.  This module sweeps exactly that:

* **recovery phase** — for sampled forward boundaries, cut the run
  (a fork of the forward sweep's cursor), snapshot the cut machine
  (``repro.snapshot``), probe how many mutation ops (home-region pokes
  *and* timed metadata writes — log headers, slot rewrites, region
  clears) one recovery pass performs, then re-crash recovery at
  sampled op boundaries (clean or torn) and re-run it until it
  converges;
* **gc phase** — run the workload to completion, snapshot, then cut the
  power at sampled write boundaries inside the GC/coalescing pass
  (``quiesce``), recover, and verify no home-region or OOP copy of a
  committed word was lost;
* **gc-media phase** — rearm the device with a transient-read burst and
  drive the same GC pass through the port's bounded retry path.

Every case ends with the atomic-durability oracle *and* an idempotence
oracle: after the first converged recovery, ``k`` further
crash+recover cycles must leave the durable NVM image bit-identical
(compared by :meth:`~repro.nvm.device.NVMDevice.content_fingerprint`).

A case is a start point (its phase) and a fault schedule.  One
function, :func:`run_nested_case`, rearms a machine at the start point
with the case's plan and computes the verdict: the sweep restores that
machine from a snapshot, ``--replay``
(:func:`repro.crashtest.replay_artifact`) builds it cold.

A sweep keeps its verdicts in memory and writes only the artifacts of
failing cases; ``--verdicts`` dumps the rest.

CLI: ``python -m repro.crashtest --nested`` (see ``--forward-sample``,
``--nested-sample``, ``--gc-sample``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.common.config import OPS, Cut, FaultConfig, FaultSchedule
from repro.common.errors import MediaError, PowerLossError
from repro.crashtest import (
    _finish_case,
    _torn_for,
    boundary_faults,
    build_crashed_cold,
    build_workload,
    choose_boundaries,
    clean_faults,
    forward_cursor,
    report_failure,
)
from repro.faults.plan import (
    CrashArtifact,
    phase_coordinates,
    phase_schedule,
)
from repro.snapshot import capture, crash_image, power_cut
from repro.trace import RunOutcome
from repro.txn.system import MemorySystem

# A recovery that needs more attempts than this never converges under a
# single recovery-op cut (one interrupted attempt + one clean rerun is
# the expected shape; the slack absorbs schedules with more cuts).
MAX_RECOVERY_ATTEMPTS = 5

# The probe's recovery-op count: more than any recovery pass performs.
_PROBE_OPS = 1 << 30

# Media-burst parameters for the gc-media phase.
_MEDIA_RATE = 0.2
_MEDIA_RETRIES = 8


def case_key(phase: str, cuts: FaultSchedule) -> str:
    """A nested case's key, in the numbers the sweep prints."""
    boundary, after_ops, torn, ops_torn = phase_coordinates(phase, cuts)
    return f"{phase}:{boundary}:{after_ops}:{int(torn)}:{int(ops_torn)}"


@dataclass
class NestedCaseResult:
    """One verified nested-fault case."""

    phase: str  # "recovery", "gc", or "gc-media"
    cuts: FaultSchedule  # the case's fault schedule, in firing order
    attempts: int  # recovery attempts until convergence
    failure: Optional[str]
    fingerprint: str

    def key(self) -> str:
        """Stable identity of this case inside one sweep's parameters."""
        return case_key(self.phase, self.cuts)


@dataclass
class NestedSweepResult:
    """All cases of one scheme's nested sweep."""

    scheme: str
    total_writes: int
    recovery_ops_probed: int = 0
    cases: List[NestedCaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[NestedCaseResult]:
        """The cases whose oracle (durability or idempotence) failed."""
        return [c for c in self.cases if c.failure]


# -- the per-case machinery ---------------------------------------------------


def check_idempotence(
    system: MemorySystem,
    fingerprint: str,
    *,
    threads: int = 2,
    k: int = 2,
) -> Optional[str]:
    """Crash + recover ``k`` more times; durable state must not move."""
    for cycle in range(1, k + 1):
        system.crash()
        system.recover(threads=threads)
        now = system.device.content_fingerprint()
        if now != fingerprint:
            return (
                f"recovery not idempotent: durable fingerprint diverged "
                f"on re-run {cycle} of {k}"
            )
    return None


def probe_recovery_ops(system: MemorySystem, *, threads: int = 2) -> int:
    """How many mutation ops one full recovery of this crashed system does.

    Arms a recovery-op cut too far away to fire (so both mutation
    planes are counted) and runs recovery to completion; the count is
    the nested sweep's boundary population.
    """
    system.device.injector.arm_power_loss_at(Cut(OPS, _PROBE_OPS))
    system.recover(threads=threads)
    ops = system.device.injector.stats.recovery_ops
    system.device.injector.restore_power()
    return ops


def phase_faults(phase: str, seed: int, cuts: FaultSchedule) -> FaultConfig:
    """A nested case's plan: its cuts, or a read burst (``gc-media``)."""
    if phase == "recovery":
        forward = boundary_faults(seed, cuts[0].at, cuts[0].torn)
        return dataclasses.replace(forward, schedule=cuts)
    if phase == "gc-media":
        return FaultConfig(
            enabled=True,
            seed=seed,
            read_error_rate=_MEDIA_RATE,
            max_read_retries=_MEDIA_RETRIES,
        )
    return FaultConfig(enabled=True, seed=seed, schedule=cuts)


def run_nested_case(
    system: MemorySystem,
    outcome: RunOutcome,
    phase: str,
    faults: FaultConfig,
    *,
    threads: int = 2,
    idempotence_k: int = 2,
) -> NestedCaseResult:
    """One nested case, from a machine at its phase's start point.

    The start point is the machine before ``crash()``: cut inside the
    workload by ``faults``' first cut (``recovery``), or the completed
    workload, whose GC pass ``faults`` then cuts or bursts (``gc``,
    ``gc-media``).  The sweep restores it from a snapshot (a recovery
    case from a power-cut image), the artifact replay builds it cold;
    both end here.  The machine is rearmed with ``faults``, its GC pass
    run unless recovery is the phase, crashed, and recovery re-run
    through the schedule's later cuts until it converges, then checked
    for atomic durability against the outcome's oracle and for
    idempotence.
    """
    cut_failure = None
    system.device.rearm(faults)
    if phase != "recovery":
        try:
            system.scheme.quiesce(system.now_ns)
        except PowerLossError:
            pass
        except MediaError as exc:
            cut_failure = f"media burst not absorbed by retries: {exc}"
    system.crash()
    for attempts in range(1, MAX_RECOVERY_ATTEMPTS + 1):
        try:
            failure = _finish_case(system, faults, outcome, threads).failure
            break
        except PowerLossError:
            system.crash()
    else:
        failure = (
            f"recovery did not converge within {MAX_RECOVERY_ATTEMPTS}"
            " attempts"
        )
    fingerprint = system.device.content_fingerprint()
    if failure is None:
        failure = check_idempotence(
            system, fingerprint, threads=threads, k=idempotence_k
        )
    return NestedCaseResult(
        phase=phase,
        cuts=faults.schedule,
        attempts=attempts,
        failure=failure or cut_failure,
        fingerprint=fingerprint,
    )


# -- the sweep ----------------------------------------------------------------


def nested_sweep_scheme(
    scheme: str,
    *,
    seed: int = 7,
    transactions: int = 48,
    addresses: int = 12,
    forward_sample: int = 5,
    nested_sample: int = 4,
    gc_sample: int = 6,
    torn_mode: str = "alternate",
    recovery_threads: int = 2,
    idempotence_k: int = 2,
    artifact_dir: Optional[str] = None,
    progress=None,
) -> NestedSweepResult:
    """Run the nested-fault sweep for one scheme.

    Phase 1 (recovery): for ``forward_sample`` forward write boundaries,
    crash, probe the recovery-op count, and re-crash recovery at
    ``nested_sample`` op boundaries each.  Phase 2 (gc): cut the power
    at ``gc_sample`` write boundaries inside the post-workload GC pass.
    Phase 3 (gc-media): drive the same GC pass under a transient-read
    burst.  Every case checks atomic durability plus ``idempotence_k``
    extra crash+recover cycles for bit-identical durable state.
    """
    artifact_args = dict(
        seed=seed, transactions=transactions, addresses=addresses,
        recovery_threads=recovery_threads, idempotence_k=idempotence_k,
    )

    def _settle(phase, start, outcome, cuts=()) -> None:
        """One case, computed from the machine ``start()`` returns."""
        case = run_nested_case(
            start(),
            outcome,
            phase,
            phase_faults(phase, seed, cuts),
            threads=recovery_threads,
            idempotence_k=idempotence_k,
        )
        if case.failure:
            report_failure(
                nested_case_artifact(scheme, case, **artifact_args),
                artifact_dir,
                progress,
            )
        result.cases.append(case)

    # Phase 1's boundaries ascend, so it runs on the forward sweep's
    # cursor.
    build = partial(
        build_workload, scheme, seed=seed, transactions=transactions,
        addresses=addresses,
    )
    cursor = forward_cursor(build, seed)
    total = cursor.total_writes
    result = NestedSweepResult(scheme=scheme, total_writes=total)

    # -- phase 1: crash during recovery -------------------------------------
    forward_boundaries = choose_boundaries(total, forward_sample, seed)
    cursor.expect(forward_boundaries)
    for boundary in forward_boundaries:
        torn = _torn_for(boundary, torn_mode)
        system, outcome = cursor.crash_at(
            boundary_faults(seed, boundary, torn)
        )
        # Each case of this boundary starts from a power-cut image.
        cut = partial(power_cut, system)
        # Probe: ops one clean recovery performs from this state.
        ops = probe_recovery_ops(crash_image(system), threads=recovery_threads)
        result.recovery_ops_probed = max(result.recovery_ops_probed, ops)
        nested_boundaries: List[Optional[int]]
        if ops > 0:
            # choose_boundaries samples 1..ops; a cut at j-1 makes
            # the j-th recovery op the cut instant.
            nested_boundaries = [
                j - 1
                for j in choose_boundaries(
                    ops, nested_sample, seed ^ (boundary << 4)
                )
            ]
        else:
            # Recovery performs no mutations (e.g. LAD): nothing to
            # cut, but convergence + idempotence still get checked.
            nested_boundaries = [None]
        for after_ops in nested_boundaries:
            _settle("recovery", cut, outcome, phase_schedule(
                "recovery", boundary, torn, after_ops,
                after_ops is not None and _torn_for(after_ops + 1, torn_mode),
            ))

    # -- phase 2: crash during GC / coalescing ------------------------------
    system, outcome = build_crashed_cold(
        scheme, clean_faults(seed), seed=seed,
        transactions=transactions, addresses=addresses,
    )
    assert not outcome.power_lost
    base_writes = system.device.stats.writes
    quiesced = capture(system)
    # Probe: writes one GC pass issues from the completed workload.
    system.scheme.quiesce(system.now_ns)
    gc_writes = system.device.stats.writes - base_writes
    if gc_writes > 0:
        for boundary in choose_boundaries(gc_writes, gc_sample, seed ^ 0x6C):
            _settle("gc", quiesced.restore, outcome, phase_schedule(
                "gc", boundary, _torn_for(boundary, torn_mode)
            ))

    # -- phase 3: media-error burst during GC -------------------------------
    _settle("gc-media", quiesced.restore, outcome)
    return result


def nested_case_artifact(
    scheme: str,
    case: NestedCaseResult,
    *,
    seed: int = 7,
    transactions: int = 48,
    addresses: int = 12,
    recovery_threads: int = 2,
    idempotence_k: int = 2,
) -> CrashArtifact:
    """Fault-plan artifact for one nested case (``--replay`` input)."""
    return CrashArtifact(
        scheme=scheme,
        faults=phase_faults(case.phase, seed, case.cuts),
        workload_seed=seed,
        transactions=transactions,
        addresses=addresses,
        recovery_threads=recovery_threads,
        failure=case.failure,
        fingerprint=case.fingerprint,
        phase=case.phase,
        idempotence_k=idempotence_k,
    )
