"""Snapshot capture/restore correctness and incremental-replay equivalence.

The snapshot engine's hard gate: a system restored from a snapshot and
run forward must be *bit-identical* to one that never stopped — same
NVM content fingerprint, same device counters, same sanitizer verdicts.
These tests pin that gate for every registry scheme, exercise the
fault-injector countdown (a snapshot captured mid-fault must replay the
same remaining-writes budget, torn-word RNG included), cover the
boundary-equals-a-transaction's-starting-write-count edge (a fork
inside a transaction's first write), and check that the forked crash
sweep, the nested sweep and the oracle's crash phase all match their
cold counterparts — the artifact replay each forked verdict must
reproduce (``tests/test_forward_cursor.py`` holds the
cursor's own properties).
"""

import dataclasses
import random
from unittest import mock

import pytest

from repro import FaultConfig, crashtest, snapshot
from repro.check import oracle
from repro.check.oracle import build_system, run_trace
from repro.check.sanitizer import PersistOrderSanitizer
from repro.trace import generate_trace
from repro.common.config import WRITES, Cut, SystemConfig
from repro.common.errors import PowerLossError
from repro.core.oop_region import BlockState
from repro.crashtest import nested
from repro.faults.injector import FaultyNVMDevice
from repro.faults.plan import CrashArtifact
from repro.schemes import ALL_SCHEME_NAMES, PERSISTENT_SCHEME_NAMES
from repro.snapshot import capture, clone_state
from repro.trace import run_txns


def _apply(system, addrs, txns):
    """Replay trace transactions against pre-allocated slot addresses."""
    for txn in txns:
        with system.transaction(txn.core) as tx:
            for store in txn.stores:
                tx.store(
                    addrs[store.slot] + 8 * store.offset,
                    store.value.to_bytes(8, "little"),
                )


def _state(system):
    """Everything the bit-identity gate compares."""
    stats = system.device.stats
    return (
        system.device.content_fingerprint(),
        (stats.reads, stats.writes, stats.bytes_read, stats.bytes_written),
        list(system.check.violations),
    )


class TestCaptureRestoreProperty:
    """capture -> mutate -> restore -> run == cold run, per scheme."""

    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    def test_restore_then_run_matches_cold(self, scheme):
        trace = generate_trace(21, transactions=12, slots=6)
        half = len(trace.txns) // 2

        cold = build_system(scheme, checker=PersistOrderSanitizer())
        cold_addrs = [cold.allocate(64) for _ in range(trace.slots)]
        _apply(cold, cold_addrs, trace.txns)
        want = _state(cold)

        live = build_system(scheme, checker=PersistOrderSanitizer())
        addrs = [live.allocate(64) for _ in range(trace.slots)]
        assert addrs == cold_addrs  # heap allocation is deterministic
        _apply(live, addrs, trace.txns[:half])
        snap = capture(live)
        # Mutate the live system well past the capture point; none of
        # it may leak into the snapshot (NVM pages are shared
        # copy-on-write between the live system and the snapshot).
        _apply(live, addrs, trace.txns[half:])
        _apply(live, addrs, trace.txns[:3])

        restored = snap.restore()
        _apply(restored, addrs, trace.txns[half:])
        assert _state(restored) == want

    def test_one_snapshot_seeds_independent_replays(self):
        trace = generate_trace(4, transactions=8, slots=4)
        system = build_system("hoop", checker=PersistOrderSanitizer())
        addrs = [system.allocate(64) for _ in range(trace.slots)]
        _apply(system, addrs, trace.txns[:4])
        snap = capture(system)
        first = snap.restore()
        _apply(first, addrs, trace.txns[4:])
        second = snap.restore()
        _apply(second, addrs, trace.txns[4:])
        assert _state(first) == _state(second)

    def test_every_repro_class_declares_snapshot_state(self):
        snapshot.reset_unregistered()
        trace = generate_trace(5, transactions=4, slots=4)
        for scheme in ALL_SCHEME_NAMES:
            system = build_system(scheme, checker=PersistOrderSanitizer())
            addrs = [system.allocate(64) for _ in range(trace.slots)]
            _apply(system, addrs, trace.txns)
            capture(system)
        assert snapshot.unregistered_classes() == frozenset()

    def test_a_cloned_prng_draws_what_its_source_draws(self):
        source = random.Random(17)
        source.random()
        source.gauss(0.0, 1.0)  # leaves a cached second normal variate
        twin = clone_state(source)
        assert [twin.random() for _ in range(1000)] == [
            source.random() for _ in range(1000)
        ]
        assert twin.gauss(0.0, 1.0) == source.gauss(0.0, 1.0)

    def test_enum_members_are_shared_without_an_engine_call(self):
        states = [BlockState.UNUSED, BlockState.FULL] * 50
        clone_state(states)  # first encounter: the class joins the atoms
        with mock.patch.object(
            snapshot, "_clone", wraps=snapshot._clone
        ) as engine:
            cloned = clone_state(states)
        assert cloned == states and cloned is not states
        assert all(a is b for a, b in zip(cloned, states))
        # One call for the list itself, none for its hundred members.
        assert [call.args[0] for call in engine.call_args_list] == [states]


class TestMidFaultCountdown:
    """Snapshots of an armed injector replay the exact same countdown."""

    @staticmethod
    def _device(budget, *, torn=False, seed=3):
        return FaultyNVMDevice(
            faults=FaultConfig(
                enabled=True,
                seed=seed,
                schedule=(Cut(WRITES, budget, torn),),
            )
        )

    @staticmethod
    def _write_until_dead(device, start, limit=64):
        for index in range(start, limit):
            try:
                device.write(64 * index, bytes([index % 251 + 1]) * 64)
            except PowerLossError:
                return index
        raise AssertionError("power-loss budget never expired")

    def test_clone_mid_fault_replays_remaining_budget(self):
        # Budget 10: writes 0..9 succeed, write 10 is the fatal one.
        # Cloning after 6 writes must carry the residual budget of 4
        # AND the injector's RNG position, so the torn-word subset of
        # the fatal write matches too (checked via the fingerprint).
        device = self._device(10, torn=True)
        for index in range(6):
            device.write(64 * index, bytes([index + 1]) * 64)
        twin = clone_state(device)
        assert self._write_until_dead(device, 6) == 10
        assert self._write_until_dead(twin, 6) == 10
        assert device.content_fingerprint() == twin.content_fingerprint()
        # Both stay dead until power is restored.
        for dev in (device, twin):
            with pytest.raises(PowerLossError):
                dev.write(0, b"\x07" * 64)

    def test_clone_after_restore_power_stays_disarmed(self):
        device = self._device(3)
        self._write_until_dead(device, 0)
        device.restore_power()
        twin = clone_state(device)
        for index in range(20):
            twin.write(64 * index, b"\x07" * 64)
        assert not twin.injector.power_lost

    def test_rearm_zero_residual_kills_next_write(self):
        # How the sweep cuts a fork taken inside a write: it rearms the
        # fork with a zero budget and re-issues that write, which must
        # be the fatal one.
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True, seed=5))
        for index in range(5):
            device.write(64 * index, b"\x01" * 64)
        twin = clone_state(device)
        twin.rearm(
            dataclasses.replace(device.faults, schedule=(Cut(WRITES, 0),))
        )
        with pytest.raises(PowerLossError):
            twin.write(0, b"\x02" * 64)
        # The live device was never armed and keeps accepting writes.
        device.write(0, b"\x03" * 64)


def _assert_cases_equal_run_case(scheme, sample, **kwargs):
    """Every forked sweep case equals the cold replay of its own plan."""
    result = crashtest.sweep_scheme(scheme, sample=sample, **kwargs)
    assert result.cases
    for case in result.cases:
        faults = crashtest.boundary_faults(
            kwargs["seed"], case.boundary, case.torn
        )
        assert crashtest.run_case(scheme, faults, **kwargs) == case
    return result


class TestIncrementalSweepEquivalence:
    """Forked verdicts are bit-identical to the cold artifact replay."""

    KWARGS = dict(seed=11, transactions=12, addresses=6)

    def test_exhaustive_sweep_matches_cold(self):
        result = _assert_cases_equal_run_case("hoop", 0, **self.KWARGS)
        assert len(result.cases) == result.total_writes
        assert not result.failures

    @pytest.mark.parametrize(
        "scheme", sorted(PERSISTENT_SCHEME_NAMES)
    )
    def test_sampled_sweep_matches_cold_on_every_scheme(self, scheme):
        _assert_cases_equal_run_case(
            scheme, 40, seed=11, transactions=24, addresses=12
        )

    @pytest.mark.parametrize("scheme", ["hoop", "hoop-mc", "osp"])
    def test_nested_cases_replay_from_their_artifacts(self, scheme):
        # Every phase's artifact must survive the JSON form and replay
        # cold, through the one replay entry point, to the same case.
        kwargs = dict(
            seed=11,
            transactions=24,
            addresses=12,
            recovery_threads=2,
            idempotence_k=2,
        )
        result = nested.nested_sweep_scheme(
            scheme, forward_sample=3, nested_sample=3, gc_sample=3,
            **kwargs,
        )
        assert {c.phase for c in result.cases} == {
            "recovery", "gc", "gc-media",
        }
        for case in result.cases:
            artifact = CrashArtifact.from_dict(
                nested.nested_case_artifact(scheme, case, **kwargs).to_dict()
            )
            assert crashtest.replay_artifact(artifact) == case

    def test_some_boundary_equals_a_tx_start_count(self):
        # The exhaustive sweep above includes every write boundary, so
        # proving some boundary coincides with a transaction's starting
        # write count shows a fork inside a transaction's very first
        # write was exercised end to end.
        system, txns = crashtest.build_workload(
            "hoop", FaultConfig(enabled=True, seed=11), **self.KWARGS
        )
        starts = []
        for txn in txns:
            starts.append(system.device.stats.writes)
            run_txns(system, (txn,))
        total = system.device.stats.writes
        assert len(starts) == self.KWARGS["transactions"]
        exact = [writes for writes in starts if 1 <= writes <= total]
        assert exact, "no boundary equals a transaction's starting count"

    def test_oracle_matrix_matches_cold(self):
        # Each forked crash case of the oracle equals the trace rerun
        # cold on a fresh machine under the same plan.
        trace = generate_trace(
            7, transactions=10, slots=6, cores=SystemConfig.small().num_cores
        )
        for scheme in ("hoop", "opt-undo"):
            forked = []

            def spy(*args, **kwargs):
                for faults, case in crashtest.sweep_cases(*args, **kwargs):
                    forked.append(case)
                    yield faults, case

            with mock.patch.object(oracle, "sweep_cases", spy):
                report = oracle.check_scheme(
                    scheme, trace, crash_sample=5, seed=7
                )
            assert report.ok
            assert report.crash_cases == len(forked) > 0
            for case in forked:
                faults = crashtest.boundary_faults(7, case.boundary, case.torn)
                system = build_system(scheme, faults=faults)
                _, outcome = run_trace(system, trace)
                system.crash()
                got = crashtest._finish_case(system, faults, outcome, 2)
                assert got == case
