"""The crash-point sweep harness and its repro artifacts.

Exercises the machinery behind ``python -m repro.crashtest``: boundary
selection, case determinism, artifact round-trips and replay, the
atomic-durability verifier, and — the §III-F property the harness
exists to check — that parallel recovery is byte-identical to
single-threaded recovery under the same fault plan, including plans
that tear the commit-log tail.
"""

import json

import pytest

from repro import FaultConfig, crashtest
from repro.common.config import AT_NS, OPS, WRITES, Cut
from repro.crashtest import nested
from repro.crashtest.__main__ import main
from repro.faults.plan import (
    CrashArtifact,
    load_artifact,
    phase_schedule,
    plan_from_dict,
    plan_to_dict,
    save_artifact,
)
from repro.schemes import PERSISTENT_SCHEME_NAMES
from repro.trace import run_txns


def _plan(boundary, *, seed=7, torn=False):
    return FaultConfig(
        enabled=True,
        seed=seed ^ (boundary << 8),
        schedule=(Cut(WRITES, boundary, torn),),
    )


def _total_writes(scheme, *, seed, transactions, addresses):
    """Timed writes of the fault-free workload on a fresh armed system."""
    system, txns = crashtest.build_workload(
        scheme, FaultConfig(enabled=True, seed=seed), seed=seed,
        transactions=transactions, addresses=addresses,
    )
    _, _, power_lost = run_txns(system, txns)
    assert not power_lost
    return system.device.stats.writes


class TestBoundaries:
    def test_exhaustive_when_sample_zero(self):
        assert crashtest.choose_boundaries(10, 0, seed=7) == list(
            range(1, 11)
        )

    def test_sample_is_deterministic_and_anchored(self):
        a = crashtest.choose_boundaries(500, 20, seed=7)
        b = crashtest.choose_boundaries(500, 20, seed=7)
        assert a == b
        assert 1 in a and 500 in a
        assert len(a) <= 22

    def test_probe_counts_are_stable(self):
        w1 = _total_writes("hoop", seed=7, transactions=20, addresses=8)
        w2 = _total_writes("hoop", seed=7, transactions=20, addresses=8)
        assert w1 == w2 > 0


class TestCaseDeterminism:
    def test_same_plan_same_fingerprint(self):
        kwargs = dict(seed=7, transactions=30, addresses=8)
        a = crashtest.run_case("hoop", _plan(20, torn=True), **kwargs)
        b = crashtest.run_case("hoop", _plan(20, torn=True), **kwargs)
        assert a.failure == b.failure
        assert a.fingerprint == b.fingerprint

    def test_different_boundary_different_outcome_stream(self):
        kwargs = dict(seed=7, transactions=30, addresses=8)
        a = crashtest.run_case("hoop", _plan(5), **kwargs)
        b = crashtest.run_case("hoop", _plan(25), **kwargs)
        # Different crash points commit different prefixes.
        assert (a.committed, a.fingerprint) != (b.committed, b.fingerprint)


class TestVerifier:
    def test_detects_lost_committed_word(self):
        kwargs = dict(seed=7, transactions=30, addresses=8)
        system, txns = crashtest.build_workload("hoop", _plan(20), **kwargs)
        oracle, staged, _ = run_txns(system, txns)
        system.crash()
        system.recover(threads=2)
        verify = crashtest.verify_atomic_durability
        assert verify(system, oracle, staged) is None
        # Corrupt one committed word behind recovery's back: the
        # verifier must notice.
        victim = next(iter(oracle))
        system.device.poke(victim, b"\xff" * 8)
        failure = verify(system, oracle, staged)
        assert failure and "committed words lost" in failure


class TestParallelRecovery:
    @pytest.mark.parametrize("torn", [False, True])
    def test_threaded_recovery_matches_single_threaded(self, torn):
        """recover(threads=N) must be byte-identical to threads=1 for
        the same fault plan — including plans whose power cut tears the
        commit-log tail mid-flush (torn=True sweeps every boundary, so
        commit-log writes are among the fatal ones)."""
        kwargs = dict(seed=7, transactions=30, addresses=8)
        total = _total_writes("hoop", **kwargs)
        boundaries = crashtest.choose_boundaries(total, 12, seed=3)
        for boundary in boundaries:
            plan = _plan(boundary, torn=torn)
            single = crashtest.run_case(
                "hoop", plan, recovery_threads=1, **kwargs
            )
            threaded = crashtest.run_case(
                "hoop", plan, recovery_threads=4, **kwargs
            )
            assert single.failure is None
            assert threaded.failure is None
            assert threaded.fingerprint == single.fingerprint, (
                f"threads=4 diverged from threads=1 at boundary "
                f"{boundary} (torn={torn})"
            )


class TestArtifacts:
    def test_plan_round_trip(self):
        plan = FaultConfig(
            enabled=True, seed=9, read_error_rate=0.25,
            schedule=(
                Cut(WRITES, 42, torn=True),
                Cut(OPS, 3),
                Cut(AT_NS, 1e6, target=(1, "backup")),
            ),
        )
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_plan_rejects_unknown_fields(self):
        payload = plan_to_dict(FaultConfig(enabled=True))
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            plan_from_dict(payload)

    def test_artifact_round_trip_and_replay(self, tmp_path):
        kwargs = dict(seed=7, transactions=30, addresses=8)
        plan = _plan(18, torn=True)
        case = crashtest.run_case("hoop", plan, **kwargs)
        artifact = CrashArtifact(
            scheme="hoop",
            faults=plan,
            workload_seed=7,
            transactions=30,
            addresses=8,
            recovery_threads=2,
            failure=case.failure,
            fingerprint=case.fingerprint,
        )
        path = save_artifact(artifact, tmp_path / "case.json")
        loaded = load_artifact(path)
        assert loaded.faults == plan
        replayed = crashtest.replay_artifact(loaded)
        assert replayed.failure == case.failure
        assert replayed.fingerprint == case.fingerprint

    @pytest.mark.parametrize(
        "phase", ["forward", "recovery", "gc", "gc-media"]
    )
    def test_cli_replay_reports_and_exit_status(self, phase, tmp_path, capsys):
        kwargs = dict(seed=7, transactions=12, addresses=6)
        if phase == "forward":
            plan = _plan(9, torn=True)
            case = crashtest.run_case("hoop", plan, **kwargs)
            artifact = CrashArtifact(
                scheme="hoop", faults=plan, workload_seed=7,
                transactions=12, addresses=6, failure=case.failure,
                fingerprint=case.fingerprint,
            )
        else:
            boundary, after_ops = {
                "recovery": (9, 2), "gc": (2, None), "gc-media": (None, None),
            }[phase]
            cuts = phase_schedule(
                phase, boundary, phase != "gc-media", after_ops
            )
            case = nested.NestedCaseResult(phase, cuts, 0, None, "")
            artifact = nested.nested_case_artifact("hoop", case, **kwargs)
        path = save_artifact(artifact, tmp_path / "case.json")
        assert main(["--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[crashtest]   recorded: pass" in out
        assert "[crashtest]   replayed: pass" in out
        assert "replay reproduced the recorded outcome" in out
        artifact.fingerprint = "tampered"
        save_artifact(artifact, path)
        assert main(["--replay", str(path)]) == 1
        assert "REPLAY DIVERGED" in capsys.readouterr().err

    def test_version_2_gc_artifact_still_replays(self, tmp_path, capsys):
        # As version 2 wrote a gc case: the boundary only in a note, and
        # the verdict that code recorded for it.
        payload = {
            "addresses": 6,
            "failure": None,
            "faults": {
                "enabled": True,
                "max_read_retries": 3,
                "power_loss_after_write": None,
                "read_error_rate": 0.0,
                "retry_backoff_ns": 200.0,
                "seed": 7,
                "torn": True,
            },
            "fingerprint": "76c0f24f13e476140ed6e6ae5d0d4e1f"
            "ce1daec82d81cde40b364dc4692168a8",
            "idempotence_k": 2,
            "nested_after_ops": None,
            "nested_torn": False,
            "notes": [
                "gc boundary counts writes after the workload completed",
                "gc write boundary 2",
            ],
            "phase": "gc",
            "recovery_threads": 2,
            "scheme": "hoop",
            "transactions": 12,
            "version": 2,
            "workload_seed": 7,
        }
        path = tmp_path / "v2_gc.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        # The note's boundary names the GC pass's fatal write.
        assert load_artifact(path).faults.schedule == (
            Cut(WRITES, 1, torn=True),
        )
        assert main(["--replay", str(path)]) == 0
        assert "replay reproduced the recorded outcome" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize(
        "phase, seed, boundary, after_ops, cuts, fingerprint",
        [
            (
                "forward", 2311, 9, None, (Cut(WRITES, 9, torn=True),),
                "71ddb210fd84ca0ec883809b0cfd2be1"
                "45fd7f583a7867a51d87377fc33ee069",
            ),
            (
                "recovery", 2311, 9, 2,
                (Cut(WRITES, 9, torn=True), Cut(OPS, 2, torn=True)),
                "71ddb210fd84ca0ec883809b0cfd2be1"
                "45fd7f583a7867a51d87377fc33ee069",
            ),
            (
                "gc", 7, 2, None, (Cut(WRITES, 1, torn=True),),
                "76c0f24f13e476140ed6e6ae5d0d4e1f"
                "ce1daec82d81cde40b364dc4692168a8",
            ),
        ],
    )
    def test_version_3_artifact_loads_to_its_cuts_and_replays(
        self, phase, seed, boundary, after_ops, cuts, fingerprint
    ):
        # As version 3 wrote each phase's case, with the verdict that
        # code recorded for it: the cuts as plan and artifact fields.
        payload = {
            "addresses": 6,
            "failure": None,
            "faults": {
                "enabled": True,
                "max_read_retries": 3,
                "power_loss_after_write": boundary,
                "read_error_rate": 0.0,
                "retry_backoff_ns": 200.0,
                "seed": seed,
                "torn": True,
            },
            "fingerprint": fingerprint,
            "idempotence_k": 0 if phase == "forward" else 2,
            "nested_after_ops": after_ops,
            "nested_torn": after_ops is not None,
            "phase": phase,
            "recovery_threads": 2,
            "scheme": "hoop",
            "transactions": 12,
            "version": 3,
            "workload_seed": 7,
        }
        artifact = CrashArtifact.from_dict(payload)
        assert artifact.version == 4
        assert artifact.faults.schedule == cuts
        replayed = crashtest.replay_artifact(artifact)
        assert (replayed.failure, replayed.fingerprint) == (None, fingerprint)

    # The bad-block remap fields every artifact carried until the remap
    # model was retired, at the values such an artifact holds on disk.
    _RETIRED = {
        "stuck_blocks": [],
        "spare_blocks": 4,
        "fault_block_bytes": 2 * 1024 * 1024,
        "remap_penalty_ns": 10000.0,
    }

    def test_artifact_written_before_the_remap_retired_still_replays(
        self, tmp_path
    ):
        kwargs = dict(seed=7, transactions=30, addresses=8)
        plan = _plan(18, torn=True)
        case = crashtest.run_case("hoop", plan, **kwargs)
        payload = CrashArtifact(
            scheme="hoop", faults=plan, workload_seed=7, transactions=30,
            addresses=8, failure=case.failure, fingerprint=case.fingerprint,
        ).to_dict()
        payload["faults"].update(self._RETIRED)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        loaded = load_artifact(path)
        assert loaded.faults == plan
        replayed = crashtest.replay_artifact(loaded)
        assert (replayed.failure, replayed.fingerprint) == (
            case.failure, case.fingerprint,
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("stuck_blocks", [3]),
            ("spare_blocks", 0),
            ("fault_block_bytes", 4096),
            ("remap_penalty_ns", 1.0),
        ],
    )
    def test_artifact_asking_for_a_retired_remap_is_refused(self, key, value):
        payload = plan_to_dict(FaultConfig(enabled=True))
        payload.update(self._RETIRED)
        payload[key] = value
        with pytest.raises(ValueError, match=key):
            plan_from_dict(payload)

    def test_newer_artifact_version_is_refused(self):
        payload = CrashArtifact(
            scheme="hoop", faults=FaultConfig(enabled=True)
        ).to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            CrashArtifact.from_dict(payload)

    def test_unknown_phase_is_refused(self):
        payload = CrashArtifact(
            scheme="hoop", faults=FaultConfig(enabled=True)
        ).to_dict()
        payload["phase"] = "gc-typo"
        with pytest.raises(ValueError, match="phase"):
            CrashArtifact.from_dict(payload)


# A typo, the scheme that promises nothing, and a deleted scheme.
_UNSWEEPABLE = ["bogus", "native", "logregion"]


class TestSweep:
    def test_resolve_schemes(self):
        assert crashtest.resolve_schemes("hoop, opt-undo") == [
            "hoop", "opt-undo",
        ]
        assert crashtest.resolve_schemes("all") == list(
            PERSISTENT_SCHEME_NAMES
        )
        with pytest.raises(ValueError):
            crashtest.resolve_schemes(",")

    @pytest.mark.parametrize("spec", _UNSWEEPABLE)
    def test_resolve_schemes_refuses_what_it_cannot_sweep(self, spec):
        with pytest.raises(ValueError, match="hoop-mc"):
            crashtest.resolve_schemes(f"hoop,{spec}")

    @pytest.mark.parametrize("spec", _UNSWEEPABLE)
    def test_cli_refuses_an_unsweepable_scheme(self, spec, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--schemes", spec, "--artifact-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"unknown sweep scheme {spec!r}" in err.splitlines()[-1]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--threads", "--transactions"])
    def test_cli_refuses_a_count_below_one(self, flag, tmp_path, capsys):
        # Exit 1 means a failing case; a bad count is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main([flag, "0", "--artifact-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{flag} must be at least 1" in err.splitlines()[-1]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scheme", ["hoop", "opt-redo"])
    def test_sampled_sweep_passes(self, scheme, tmp_path):
        result = crashtest.sweep_scheme(
            scheme,
            seed=7,
            transactions=20,
            addresses=8,
            sample=10,
            artifact_dir=str(tmp_path),
        )
        assert result.total_writes > 0
        assert result.cases
        assert not result.failures
        assert not list(tmp_path.iterdir())  # no artifacts on success
