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

Sweep state is resumable: verdicts are journaled to a JSON state file
after every case, and ``--resume`` skips cases already decided — the
nested boundary product is much larger than the forward sweep's.

CLI: ``python -m repro.crashtest --nested`` (see ``--forward-sample``,
``--nested-sample``, ``--gc-sample``, ``--resume``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.common.config import OPS, Cut, FaultConfig, FaultSchedule
from repro.common.errors import MediaError, PowerLossError
from repro.crashtest import (
    _finish_case,
    _torn_for,
    boundary_faults,
    build_crashed,
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

# Version 2 journals each case's cuts instead of its coordinates.
STATE_VERSION = 2


def case_key(phase: str, cuts: FaultSchedule) -> str:
    """A nested case's journal key, in the numbers the sweep prints."""
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

    def to_dict(self) -> dict:
        """JSON-safe dict for the sweep-state journal."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "NestedCaseResult":
        """Rebuild from :meth:`to_dict` output; unknown keys ignored."""
        known = {f.name for f in dataclasses.fields(cls)}
        fields = {k: v for k, v in payload.items() if k in known}
        fields["cuts"] = tuple(Cut(**cut) for cut in fields["cuts"])
        return cls(**fields)


@dataclass
class NestedSweepResult:
    """All cases of one scheme's nested sweep."""

    scheme: str
    total_writes: int
    recovery_ops_probed: int = 0
    cases: List[NestedCaseResult] = field(default_factory=list)
    skipped: int = 0  # cases satisfied from resumed state
    exhausted: bool = False  # stopped by ``max_new_cases``

    @property
    def failures(self) -> List[NestedCaseResult]:
        """The cases whose oracle (durability or idempotence) failed."""
        return [c for c in self.cases if c.failure]


class SweepState:
    """Journal of decided cases, written after every verdict.

    The file is rewritten atomically (temp + rename), so a killed sweep
    leaves a loadable journal; ``--resume`` skips every recorded case
    whose sweep parameters match exactly and re-runs the rest.
    """

    def __init__(self, path, params: dict) -> None:
        self.path = pathlib.Path(path) if path else None
        self.params = params
        self.cases: Dict[str, Dict[str, dict]] = {}

    @classmethod
    def open(cls, path, params: dict, *, resume: bool) -> "SweepState":
        """Create (or resume) the journal at ``path``.

        Resuming against a journal written with different sweep
        parameters is an error — its verdicts answer different cases.
        """
        state = cls(path, params)
        if not resume or state.path is None or not state.path.exists():
            return state
        payload = json.loads(state.path.read_text())
        if payload.get("version") != STATE_VERSION:
            raise ValueError(
                f"state file {path} has version {payload.get('version')}, "
                f"expected {STATE_VERSION}"
            )
        if payload.get("params") != params:
            raise ValueError(
                f"state file {path} was written by a sweep with different "
                f"parameters; rerun without --resume (or delete it)"
            )
        state.cases = payload.get("cases", {})
        return state

    def lookup(self, scheme: str, key: str) -> Optional[NestedCaseResult]:
        """A previously journaled verdict for this case, if any."""
        payload = self.cases.get(scheme, {}).get(key)
        if payload is None:
            return None
        return NestedCaseResult.from_dict(payload)

    def record(self, scheme: str, case: NestedCaseResult) -> None:
        """Journal one verdict and flush the file immediately."""
        self.cases.setdefault(scheme, {})[case.key()] = case.to_dict()
        self.save()

    def save(self) -> None:
        """Atomically rewrite the journal (write temp, then rename)."""
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "version": STATE_VERSION,
                    "params": self.params,
                    "cases": self.cases,
                },
                indent=1,
                sort_keys=True,
            )
        )
        os.replace(tmp, self.path)


class SweepBudgetExhausted(Exception):
    """Raised internally when ``max_new_cases`` verdicts were computed."""


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


def sweep_params(
    *,
    seed: int,
    transactions: int,
    addresses: int,
    forward_sample: int,
    nested_sample: int,
    gc_sample: int,
    torn_mode: str,
    recovery_threads: int,
    idempotence_k: int,
) -> dict:
    """The parameter fingerprint a resumable state file is keyed by."""
    return {
        "seed": seed,
        "transactions": transactions,
        "addresses": addresses,
        "forward_sample": forward_sample,
        "nested_sample": nested_sample,
        "gc_sample": gc_sample,
        "torn_mode": torn_mode,
        "recovery_threads": recovery_threads,
        "idempotence_k": idempotence_k,
    }


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
    state: Optional[SweepState] = None,
    max_new_cases: Optional[int] = None,
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

    ``state`` (a :class:`SweepState`) makes the sweep resumable.
    ``max_new_cases`` (``None`` = unlimited) stops the sweep before its
    first fresh verdict beyond that many and sets ``exhausted`` on the
    result — the CLI's ``--max-cases`` smoke/resume hook.
    """
    remaining = max_new_cases
    artifact_args = dict(
        seed=seed, transactions=transactions, addresses=addresses,
        recovery_threads=recovery_threads, idempotence_k=idempotence_k,
    )

    def _settle(phase, start, outcome, cuts=()) -> None:
        """One case: its journaled verdict, or computed from ``start()``."""
        nonlocal remaining
        key = case_key(phase, cuts)
        case = state.lookup(scheme, key) if state is not None else None
        if case is not None:
            result.skipped += 1
        else:
            if remaining is not None:
                if remaining <= 0:
                    raise SweepBudgetExhausted()
                remaining -= 1
            case = run_nested_case(
                start(),
                outcome,
                phase,
                phase_faults(phase, seed, cuts),
                threads=recovery_threads,
                idempotence_k=idempotence_k,
            )
            if state is not None:
                state.record(scheme, case)
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

    try:
        # -- phase 1: crash during recovery ---------------------------------
        forward_boundaries = choose_boundaries(total, forward_sample, seed)
        cursor.expect(forward_boundaries)
        for boundary in forward_boundaries:
            torn = _torn_for(boundary, torn_mode)
            system, outcome = build_crashed(
                build, cursor, boundary_faults(seed, boundary, torn)
            )
            # Each case of this boundary starts from a power-cut image.
            cut = partial(power_cut, system)
            # Probe: ops one clean recovery performs from this state.
            ops = probe_recovery_ops(
                crash_image(system), threads=recovery_threads
            )
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
                    after_ops is not None
                    and _torn_for(after_ops + 1, torn_mode),
                ))

        # -- phase 2: crash during GC / coalescing --------------------------
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
            for boundary in choose_boundaries(
                gc_writes, gc_sample, seed ^ 0x6C
            ):
                _settle("gc", quiesced.restore, outcome, phase_schedule(
                    "gc", boundary, _torn_for(boundary, torn_mode)
                ))

        # -- phase 3: media-error burst during GC ---------------------------
        _settle("gc-media", quiesced.restore, outcome)
    except SweepBudgetExhausted:
        result.exhausted = True

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
