"""Nested faults: crash-during-recovery, GC cuts, recovery idempotence.

Three contracts of :mod:`repro.crashtest.nested`:

* **Idempotence** — for every registered persistence scheme, once
  recovery has converged, re-running crash+recover any number of times
  leaves the durable NVM image bit-identical (checked at k=2 and k=5).
* **Nested survival** — a power cut *during* recovery, at any mutation
  boundary, leaves a state from which the next recovery converges to an
  atomically-durable image; same for cuts inside the GC pass.
* **Resumability** — a sweep interrupted after N verdicts and resumed
  produces exactly the verdicts of an uninterrupted run.

``tests/data/nested_golden.json`` pins every sweep scheme's nested
verdicts; print a fresh record with ``PYTHONPATH=src python
tests/test_nested_faults.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import FaultConfig
from repro.common.errors import PowerLossError
from repro.crashtest import (
    SWEEP_SCHEMES,
    build_crashed_cold,
    verify_atomic_durability,
)
from repro.crashtest.nested import (
    SweepState,
    check_idempotence,
    nested_sweep_scheme,
    probe_recovery_ops,
    run_nested_case,
    sweep_params,
)

ALL_SCHEMES = sorted(SWEEP_SCHEMES.values())

# Small but non-trivial workloads: enough transactions that every
# scheme's log/region structures are exercised, small enough to keep the
# whole module fast.
_TXNS = 20
_ADDRS = 8


_FAULTS = FaultConfig(
    enabled=True, seed=11, power_loss_after_write=15, torn=True
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
            enabled=True, seed=11, power_loss_after_write=boundary,
            torn=torn,
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
        system.device.injector.arm_recovery_fault(after_ops=2)
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
            system, outcome = _cut(scheme)
            case = run_nested_case(
                system,
                outcome,
                "recovery",
                _FAULTS,
                nested_boundary=after_ops,
                nested_torn=bool(after_ops % 2),
                threads=2,
                idempotence_k=1,
            )
            assert case.failure is None, (
                f"{scheme} nested at op {after_ops}: {case.failure}"
            )

    def test_nth_fault_rearms_after_each_firing(self):
        """A third (and fourth) cut, then the case still converges."""
        system, outcome = _crashed("hoop")
        system.device.injector.arm_recovery_fault(after_ops=3)
        attempts = 0
        for _ in range(3):  # fault #2, #3, #4
            attempts += 1
            with pytest.raises(PowerLossError):
                system.recover(threads=2)
            system.crash()
            system.device.injector.arm_recovery_fault(after_ops=3)
        # The case's own crash() disarms the last, unfired budget.
        case = run_nested_case(
            system, outcome, "recovery", _FAULTS, threads=2, idempotence_k=0
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

    def test_resume_reproduces_cold_verdicts(self, tmp_path):
        kwargs = dict(
            seed=7,
            transactions=_TXNS,
            addresses=_ADDRS,
            forward_sample=2,
            nested_sample=2,
            gc_sample=2,
            idempotence_k=1,
        )
        params = sweep_params(
            torn_mode="alternate", recovery_threads=2, **kwargs
        )
        cold = nested_sweep_scheme("osp", **kwargs)

        # Interrupted sweep: stop after 3 fresh verdicts...
        state_path = tmp_path / "state.json"
        state = SweepState.open(state_path, params, resume=False)
        partial = nested_sweep_scheme(
            "osp", state=state, max_new_cases=3, **kwargs
        )
        assert len(partial.cases) == 3
        assert partial.exhausted
        # ...then resume from the journal on disk.
        state = SweepState.open(state_path, params, resume=True)
        resumed = nested_sweep_scheme("osp", state=state, **kwargs)
        assert resumed.skipped == 3
        assert not resumed.exhausted
        assert [c.to_dict() for c in resumed.cases] == [
            c.to_dict() for c in cold.cases
        ]

    def test_resume_rejects_mismatched_params(self, tmp_path):
        params = sweep_params(
            seed=7, transactions=10, addresses=4, forward_sample=1,
            nested_sample=1, gc_sample=1, torn_mode="never",
            recovery_threads=2, idempotence_k=1,
        )
        state = SweepState.open(tmp_path / "s.json", params, resume=False)
        state.save()
        other = dict(params, seed=8)
        with pytest.raises(ValueError):
            SweepState.open(tmp_path / "s.json", other, resume=True)


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
