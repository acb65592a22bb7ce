"""Nested faults: crash-during-recovery, GC cuts, recovery idempotence.

Three contracts of :mod:`repro.crashtest.nested`:

* **Idempotence** — for every registered persistence scheme, once
  recovery has converged, re-running crash+recover any number of times
  leaves the durable NVM image bit-identical (checked at k=2 and k=5).
* **Nested survival** — a power cut *during* recovery, at any mutation
  boundary, leaves a state from which the next recovery converges to an
  atomically-durable image; same for cuts inside the GC pass.
* **Clean sweeps leave nothing behind** — a sweep without failures
  writes no file to ``--artifact-dir``.

``tests/data/nested_golden.json`` pins every sweep scheme's nested
verdicts; print a fresh record with ``PYTHONPATH=src python
tests/test_nested_faults.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import OPS, WRITES, Cut, FaultConfig
from repro.common.errors import PowerLossError
from repro.crashtest import (
    _torn_for,
    boundary_faults,
    build_crashed_cold,
    verify_atomic_durability,
)
from repro.crashtest.__main__ import main
from repro.crashtest.nested import (
    check_idempotence,
    nested_sweep_scheme,
    phase_faults,
    probe_recovery_ops,
    run_nested_case,
)
from repro.faults.plan import phase_schedule
from repro.schemes import PERSISTENT_SCHEME_NAMES
from repro.snapshot import crash_image, power_cut

ALL_SCHEMES = sorted(PERSISTENT_SCHEME_NAMES)

# Small but non-trivial workloads: enough transactions that every
# scheme's log/region structures are exercised, small enough to keep the
# whole module fast.
_TXNS = 20
_ADDRS = 8


_FAULTS = FaultConfig(
    enabled=True, seed=11, schedule=(Cut(WRITES, 15, torn=True),)
)


def _cut(scheme: str, faults: FaultConfig = _FAULTS):
    """The machine at the forward cut, before ``crash()``."""
    return build_crashed_cold(
        scheme, faults, seed=7, transactions=_TXNS, addresses=_ADDRS
    )


def _crashed(scheme: str, boundary: int = 15, *, torn: bool = True):
    system, outcome = _cut(
        scheme,
        FaultConfig(
            enabled=True, seed=11, schedule=(Cut(WRITES, boundary, torn),)
        ),
    )
    system.crash()
    return system, outcome


class TestRecoveryIdempotence:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_twice_is_bit_identical(self, scheme):
        system, outcome = _crashed(scheme)
        system.recover(threads=2)
        assert verify_atomic_durability(
            system, outcome.oracle, outcome.staged
        ) is None
        fingerprint = system.device.content_fingerprint()
        assert check_idempotence(system, fingerprint, k=2) is None

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_k5_is_bit_identical(self, scheme):
        system, _ = _crashed(scheme, boundary=30, torn=False)
        system.recover(threads=2)
        fingerprint = system.device.content_fingerprint()
        assert check_idempotence(system, fingerprint, k=5) is None

    def test_attempt_counters_surface_on_the_system(self):
        system, _ = _crashed("hoop")
        assert system.recovery_attempts == 0
        system.recover(threads=2)
        system.crash()
        system.recover(threads=2)
        assert system.recovery_attempts == 2
        assert system.recovery_interruptions == 0


class TestNestedCut:
    def test_armed_recovery_fault_fires_during_recovery(self):
        system, _ = _crashed("hoop")
        system.device.injector.arm_power_loss_at(Cut(OPS, 2))
        with pytest.raises(PowerLossError):
            system.recover(threads=2)
        assert system.recovery_interruptions == 1
        assert system.device.fault_stats.recovery_ops == 2

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_nested_boundary_converges(self, scheme):
        """Exhaustive over recovery ops at one forward boundary."""
        probe, _ = _crashed(scheme)
        ops = probe_recovery_ops(probe, threads=2)
        for after_ops in range(ops):
            faults = FaultConfig(
                enabled=True,
                seed=11,
                schedule=(
                    *_FAULTS.schedule,
                    Cut(OPS, after_ops, torn=bool(after_ops % 2)),
                ),
            )
            system, outcome = _cut(scheme, faults)
            case = run_nested_case(
                system,
                outcome,
                "recovery",
                faults,
                threads=2,
                idempotence_k=1,
            )
            assert case.failure is None, (
                f"{scheme} nested at op {after_ops}: {case.failure}"
            )

    @pytest.mark.parametrize(
        "seed, boundary", [(7, 110), (7, 114), (7, 215), (2, 91), (2, 187)]
    )
    def test_hoop_mc_cleanup_cut_keeps_the_global_commit(self, seed, boundary):
        """Every recovery op cut at five forward cuts of hoop-mc.

        At seed 7 the in-flight transaction's commit entry reached
        controller 0 only; a cut that tore controller 1's first
        region-clear write, after controller 0's cleanup, once left a
        rerun that re-poked older versions of its words.  At seed 2 the
        forward cut tore controller 1's log page, so only controller 0's
        log named the transactions that touched it alone; a cut in its
        cleanup once dropped them from the rerun's agreed set.
        """
        torn = _torn_for(boundary, "alternate")
        system, outcome = build_crashed_cold(
            "hoop-mc", boundary_faults(seed, boundary, torn),
            seed=seed, transactions=80, addresses=12,
        )
        failures = []
        for after_ops in range(probe_recovery_ops(crash_image(system))):
            cuts = phase_schedule(
                "recovery", boundary, torn, after_ops,
                _torn_for(after_ops + 1, "alternate"),
            )
            case = run_nested_case(
                power_cut(system), outcome, "recovery",
                phase_faults("recovery", seed, cuts),
            )
            if case.failure:
                failures.append(f"nested={after_ops}: {case.failure}")
        assert failures == []

    def test_nth_fault_rearms_after_each_firing(self):
        """A third (and fourth) cut, then the case still converges."""
        faults = FaultConfig(
            enabled=True,
            seed=11,
            schedule=(*_FAULTS.schedule, *[Cut(OPS, 3)] * 3),
        )
        system, outcome = _cut("hoop", faults)
        attempts = 0
        for _ in range(3):  # fault #2, #3, #4
            # The reboot arms the schedule's next cut.
            system.crash()
            attempts += 1
            with pytest.raises(PowerLossError):
                system.recover(threads=2)
        # The schedule is spent: the case's own recovery converges.
        case = run_nested_case(
            system, outcome, "recovery", faults, threads=2, idempotence_k=0
        )
        assert (case.attempts, case.failure) == (1, None)
        assert system.recovery_attempts == attempts + 1
        assert system.recovery_interruptions == attempts


class TestNestedSweep:
    def test_smoke_sweep_passes(self):
        result = nested_sweep_scheme(
            "hoop",
            seed=7,
            transactions=_TXNS,
            addresses=_ADDRS,
            forward_sample=2,
            nested_sample=2,
            gc_sample=2,
            idempotence_k=1,
        )
        assert result.cases
        assert not result.failures
        phases = {c.phase for c in result.cases}
        assert phases == {"recovery", "gc", "gc-media"}

    def test_clean_sweep_writes_no_file(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        code = main([
            "--nested", "--schemes", "hoop,osp", "--seed", "7",
            "--transactions", str(_TXNS), "--addresses", str(_ADDRS),
            "--forward-sample", "2", "--nested-sample", "2",
            "--gc-sample", "2", "--idempotence-k", "1",
            "--artifact-dir", str(artifacts),
        ])
        assert code == 0
        assert not artifacts.exists() or not any(artifacts.iterdir())


# -- pinned verdicts ------------------------------------------------------------

NESTED_GOLDEN = Path(__file__).parent / "data" / "nested_golden.json"
NESTED_SWEEP = {
    "seed": 11,
    "transactions": 24,
    "forward_sample": 3,
    "nested_sample": 3,
    "gc_sample": 3,
}


def nested_record(scheme: str) -> dict:
    """Digest of one scheme's nested sweep at :data:`NESTED_SWEEP`."""
    result = nested_sweep_scheme(scheme, **NESTED_SWEEP)
    cases = [
        [c.key(), c.attempts, c.failure, c.fingerprint]
        for c in result.cases
    ]
    text = json.dumps(cases, sort_keys=True)
    return {
        "cases": len(cases),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "total_writes": result.total_writes,
        "recovery_ops_probed": result.recovery_ops_probed,
    }


_NESTED = (
    json.loads(NESTED_GOLDEN.read_text()) if NESTED_GOLDEN.exists() else {}
)


class TestNestedGolden:
    @pytest.mark.parametrize("scheme", sorted(_NESTED.get("schemes", {})))
    def test_nested_verdicts_match_golden(self, scheme):
        assert nested_record(scheme) == _NESTED["schemes"][scheme]

    def test_golden_covers_the_sweep_schemes(self):
        assert sorted(_NESTED["schemes"]) == ALL_SCHEMES


if __name__ == "__main__":
    print(json.dumps(
        {
            "sweep": NESTED_SWEEP,
            "schemes": {s: nested_record(s) for s in ALL_SCHEMES},
        },
        indent=2,
    ))
