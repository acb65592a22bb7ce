"""The fault-injection layer: device-level semantics.

Covers the contract the crash sweep and the robustness features rely on:
deterministic power cuts and torn writes, transient-read retry with
backoff in the memory port, and — critically — that a fault-free faulty
device behaves exactly like the plain device (the zero-perturbation
guarantee's functional half).
"""

import pytest

from repro import FaultConfig, SystemConfig
from repro.common.errors import MediaError, PowerLossError
from repro.faults import FaultyNVMDevice, ReadRetryExhaustedError, make_device
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice


def test_make_device_plain_when_disabled():
    config = SystemConfig.small()
    device = make_device(config)
    assert type(device) is NVMDevice


def test_make_device_faulty_when_enabled():
    config = SystemConfig.small().replace(faults=FaultConfig(enabled=True))
    device = make_device(config)
    assert isinstance(device, FaultyNVMDevice)


def test_faultfree_faulty_device_matches_plain_content():
    plain = NVMDevice()
    faulty = FaultyNVMDevice(faults=FaultConfig(enabled=True, seed=3))
    for i in range(32):
        addr = 4096 + 64 * i
        data = bytes([i]) * 64
        plain.write(addr, data, 0.0)
        faulty.write(addr, data, 0.0)
    assert faulty.peek(4096, 64 * 32) == plain.peek(4096, 64 * 32)
    assert faulty.content_fingerprint() == plain.content_fingerprint()


class TestPowerLoss:
    def test_budget_counts_timed_writes(self):
        device = FaultyNVMDevice(
            faults=FaultConfig(enabled=True, power_loss_after_write=3)
        )
        for i in range(3):
            device.write(4096 + 64 * i, b"x" * 64, 0.0)
        with pytest.raises(PowerLossError):
            device.write(4096 + 192, b"y" * 64, 0.0)
        # The machine stays dead until power is restored.
        with pytest.raises(PowerLossError):
            device.write(4096, b"z" * 64, 0.0)
        assert device.fault_stats.power_cuts == 1
        assert device.fault_stats.writes_lost == 1
        device.restore_power()
        device.write(4096, b"z" * 64, 0.0)
        assert device.peek(4096, 1) == b"z"

    def test_clean_cut_drops_fatal_write_entirely(self):
        device = FaultyNVMDevice(
            faults=FaultConfig(
                enabled=True, power_loss_after_write=1, torn=False
            )
        )
        device.write(4096, b"a" * 64, 0.0)
        with pytest.raises(PowerLossError):
            device.write(8192, b"b" * 64, 0.0)
        assert device.peek(8192, 64) == bytes(64)

    def test_torn_cut_applies_seeded_word_subset(self):
        def run(seed):
            device = FaultyNVMDevice(
                faults=FaultConfig(
                    enabled=True, seed=seed,
                    power_loss_after_write=0, torn=True,
                )
            )
            with pytest.raises(PowerLossError):
                device.write(4096, bytes(range(64)), 0.0)
            return device.peek(4096, 64)

        torn = run(seed=1)
        assert torn == run(seed=1)  # deterministic for a fixed seed
        expect = bytes(range(64))
        words = [
            (torn[i : i + 8], expect[i : i + 8]) for i in range(0, 64, 8)
        ]
        # Every word is atomic: either fully applied or still zero.
        assert all(got in (want, bytes(8)) for got, want in words)


class TestDeadlinePowerLoss:
    """arm_power_loss_at: a wall of simulated time instead of a budget."""

    def test_first_write_at_or_past_deadline_is_fatal(self):
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        device.injector.arm_power_loss_at(1000.0)
        device.write(4096, b"a" * 64, 500.0)       # before the wall: fine
        with pytest.raises(PowerLossError):
            device.write(4160, b"b" * 64, 1000.0)  # at the wall: fatal
        assert device.fault_stats.power_cuts == 1
        # Dead until power is restored, which also clears the deadline.
        with pytest.raises(PowerLossError):
            device.write(4096, b"c" * 64, 2000.0)
        device.restore_power()
        device.write(4096, b"d" * 64, 3000.0)
        assert device.peek(4096, 1) == b"d"

    def test_negative_deadline_rejected(self):
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        with pytest.raises(ValueError):
            device.injector.arm_power_loss_at(-1.0)

    def test_torn_flag_passes_through(self):
        device = FaultyNVMDevice(
            faults=FaultConfig(enabled=True, seed=9)
        )
        device.injector.arm_power_loss_at(100.0, torn=True)
        with pytest.raises(PowerLossError):
            device.write(4096, b"x" * 64, 150.0)
        # Torn cut: some seeded word subset of the dying write landed.
        landed = device.peek(4096, 64)
        assert landed != bytes(64) or device.fault_stats.writes_lost


class TestTransientReads:
    def test_port_retries_and_succeeds(self):
        faults = FaultConfig(
            enabled=True, seed=5, read_error_rate=0.4, max_read_retries=8
        )
        device = FaultyNVMDevice(faults=faults)
        device.write(4096, b"q" * 64, 0.0)
        port = MemoryPort(device)
        for _ in range(40):
            data, _ = port.read(4096, 64, 0.0)
            assert data == b"q" * 64
        assert device.fault_stats.transient_read_faults > 0
        assert port.stats.read_retries > 0
        assert port.stats.retry_wait_ns > 0.0
        assert port.stats.reads_failed == 0

    def test_retry_pushes_completion_out(self):
        faults = FaultConfig(
            enabled=True, seed=5, read_error_rate=0.4, max_read_retries=8
        )
        device = FaultyNVMDevice(faults=faults)
        device.write(4096, b"q" * 64, 0.0)
        port = MemoryPort(device)
        clean = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        clean.write(4096, b"q" * 64, 0.0)
        clean_port = MemoryPort(clean)
        worst = baseline = 0.0
        for _ in range(40):
            _, completion = port.read(4096, 64, 0.0)
            _, clean_completion = clean_port.read(4096, 64, 0.0)
            worst = max(worst, completion)
            baseline = max(baseline, clean_completion)
        assert worst > baseline  # backoff showed up in simulated time

    def test_media_error_after_retry_budget(self):
        # With the retry budget at zero, the first injected fault is
        # terminal; seed 5's first random draw is below the rate.
        faults = FaultConfig(
            enabled=True, seed=5, read_error_rate=0.9, max_read_retries=0
        )
        device = FaultyNVMDevice(faults=faults)
        device.write(4096, b"q" * 64, 0.0)
        port = MemoryPort(device)
        with pytest.raises(MediaError):
            for _ in range(10):
                port.read(4096, 64, 0.0)
        assert port.stats.reads_failed == 1


class TestRetryExhaustion:
    def test_exhaustion_error_carries_address_and_attempts(self):
        # Retry budget 2, rate ~1: the op burns its initial read plus
        # both retries, then surfaces a typed error naming the address.
        faults = FaultConfig(
            enabled=True, seed=5, read_error_rate=0.95, max_read_retries=2
        )
        device = FaultyNVMDevice(faults=faults)
        device.write(4096, b"q" * 64, 0.0)
        port = MemoryPort(device)
        with pytest.raises(ReadRetryExhaustedError) as info:
            for _ in range(50):
                port.read(4096, 64, 0.0)
        assert info.value.addr == 4096
        assert info.value.attempts == 3  # initial + max_read_retries
        # Subclass: existing MediaError handlers keep working.
        assert isinstance(info.value, MediaError)

    def test_retry_budget_is_per_operation_not_cumulative(self):
        # Many operations each fault a little; the *sum* of transient
        # faults far exceeds one op's budget, yet no read is abandoned
        # because each operation's attempt counter starts fresh.
        faults = FaultConfig(
            enabled=True, seed=5, read_error_rate=0.25, max_read_retries=6
        )
        device = FaultyNVMDevice(faults=faults)
        device.write(4096, b"q" * 64, 0.0)
        port = MemoryPort(device)
        for _ in range(200):
            data, _ = port.read(4096, 64, 0.0)
            assert data == b"q" * 64
        assert device.fault_stats.transient_read_faults > 6
        assert port.stats.reads_failed == 0
        assert 0 < port.stats.max_attempts_one_read <= 7


class TestNestedFaultArming:
    def test_recovery_budget_counts_both_mutation_planes(self):
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        device.injector.arm_recovery_fault(after_ops=3)
        device.write(4096, b"a" * 64, 0.0)  # op 1: timed write
        device.poke(8192, b"b")  # op 2: functional poke
        device.write(4160, b"c" * 64, 0.0)  # op 3: timed write
        with pytest.raises(PowerLossError):
            device.poke(8200, b"d")  # op 4 is the cut instant
        assert device.fault_stats.recovery_ops == 3
        assert device.fault_stats.power_cuts == 1
        # Dead until power is restored, like any power cut.
        with pytest.raises(PowerLossError):
            device.write(4096, b"e" * 64, 0.0)
        device.restore_power()
        device.write(4096, b"e" * 64, 0.0)

    def test_zero_budget_cuts_the_next_op(self):
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        device.injector.arm_recovery_fault(after_ops=0)
        with pytest.raises(PowerLossError):
            device.poke(4096, b"x")

    def test_rearm_cannot_silently_disarm_pending_nested_fault(self):
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        device.injector.arm_recovery_fault(after_ops=5)
        with pytest.raises(AssertionError):
            device.rearm(FaultConfig(enabled=True))
        # Explicitly disarming first makes rearm legal again.
        device.restore_power()
        device.rearm(FaultConfig(enabled=True))
        device.write(4096, b"x" * 64, 0.0)

    def test_rearm_tripwire_covers_zero_residual_budget(self):
        # A zero budget is still pending (it fires on the *next* op) —
        # the invariant must not treat it as already spent.
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        device.injector.arm_recovery_fault(after_ops=0)
        with pytest.raises(AssertionError):
            device.rearm(FaultConfig(enabled=True))

    def test_rearm_legal_after_nested_fault_fired(self):
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True))
        device.injector.arm_recovery_fault(after_ops=0)
        with pytest.raises(PowerLossError):
            device.poke(4096, b"x")
        # Fired: the pending flag clears with the power loss.
        device.rearm(FaultConfig(enabled=True))
        device.write(4096, b"x" * 64, 0.0)


class TestFaultReport:
    def test_counters_surface_in_figure(self):
        from repro import MemorySystem
        from repro.stats import fault_tolerance_figure

        config = SystemConfig.small().replace(
            faults=FaultConfig(enabled=True, seed=5, read_error_rate=0.2)
        )
        system = MemorySystem(config, scheme="hoop")
        addr = system.allocate(64)
        with system.transaction() as tx:
            tx.store(addr, b"z" * 64)
        fig = fault_tolerance_figure(system)
        counters = fig.by_key("Counter")
        assert "power cuts" in counters
        assert "read retries" in counters
        assert fig.render()

    def test_plain_device_reports_port_rows_only(self):
        from repro import MemorySystem
        from repro.stats import fault_tolerance_figure

        system = MemorySystem(SystemConfig.small(), scheme="hoop")
        fig = fault_tolerance_figure(system)
        counters = fig.by_key("Counter")
        assert "power cuts" not in counters
        assert "read retries" in counters
        assert fig.notes


class TestEndToEnd:
    def test_system_survives_power_loss_and_recovers(self):
        from repro import MemorySystem

        config = SystemConfig.small().replace(
            faults=FaultConfig(enabled=True, seed=2, power_loss_after_write=40)
        )
        system = MemorySystem(config, scheme="hoop")
        addr = system.allocate(64)
        committed = attempted = None
        with pytest.raises(PowerLossError):
            for i in range(500):
                attempted = i.to_bytes(8, "little")
                with system.transaction() as tx:
                    tx.store(addr, attempted)
                committed = attempted
        system.crash()
        system.recover(threads=2)
        # Atomic durability: the last committed value, or the in-flight
        # one if its commit had passed the durability point.
        assert system.durable_state(addr, 8) in (committed, attempted)
