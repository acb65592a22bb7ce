"""Memory port and periodic trigger."""

import pytest

from repro.common.config import NVMConfig
from repro.common.units import MB
from repro.memctrl.port import MemoryPort
from repro.memctrl.scheduler import PeriodicTrigger
from repro.nvm.device import NVMDevice


@pytest.fixture
def port():
    return MemoryPort(NVMDevice(NVMConfig(capacity=16 * MB)))


class TestMemoryPort:
    def test_sync_write_waits(self, port):
        done = port.sync_write(0, b"x" * 64, 100.0)
        assert done >= 100.0 + port.device.config.write_latency_ns
        assert port.stats.sync_writes == 1
        assert port.stats.sync_wait_ns > 0

    def test_async_write_content_lands(self, port):
        port.async_write(0, b"hello", 0.0)
        assert port.device.peek(0, 5) == b"hello"
        assert port.stats.async_writes == 1

    def test_read_round_trip(self, port):
        port.sync_write(64, b"data!", 0.0)
        data, done = port.read(64, 5, 500.0)
        assert data == b"data!"
        assert done > 500.0

    def test_drain_waits_for_queued_writes(self, port):
        base = port.drain(0.0)
        assert base == 0.0
        port.async_write(0, b"y" * 4096, 0.0)
        drained = port.drain(0.0)
        assert drained > 0.0

    def test_traffic_accounting(self, port):
        port.sync_write(0, b"a" * 10, 0.0)
        port.async_write(0, b"b" * 20, 0.0)
        port.read(0, 30, 0.0)
        assert (port.stats.sync_bytes, port.stats.async_bytes) == (10, 20)
        assert port.stats.read_bytes == 30
        port.reset_stats()
        assert (port.stats.sync_bytes, port.stats.async_bytes) == (0, 0)


class TestPeriodicTrigger:
    def test_not_due_before_period(self):
        trigger = PeriodicTrigger(100.0)
        assert not trigger.due(99.0)
        assert trigger.due(100.0)

    def test_fire_consumes_periods(self):
        trigger = PeriodicTrigger(100.0)
        assert trigger.fire(50.0) == 0
        assert trigger.fire(100.0) == 1
        assert not trigger.due(150.0)
        assert trigger.due(200.0)

    def test_fire_counts_missed_periods(self):
        trigger = PeriodicTrigger(100.0)
        assert trigger.fire(550.0) == 5
        assert trigger.next_fire_ns == 600.0
        assert trigger.fire_count == 5
        # One servicing consumed five due periods: four were skipped.
        assert trigger.missed_periods == 4

    def test_missed_periods_accumulate_across_fires(self):
        trigger = PeriodicTrigger(100.0)
        assert trigger.fire(100.0) == 1
        assert trigger.missed_periods == 0
        assert trigger.fire(450.0) == 3
        assert trigger.missed_periods == 2
        assert trigger.fire(460.0) == 0
        assert trigger.missed_periods == 2
        assert trigger.fire_count == 4

    def test_start_offset(self):
        trigger = PeriodicTrigger(100.0, start_ns=1000.0)
        assert not trigger.due(1099.0)
        assert trigger.due(1100.0)

    def test_start_offset_fire_counts_from_offset(self):
        trigger = PeriodicTrigger(100.0, start_ns=1000.0)
        # Simulated time well past zero but before the first deadline:
        # nothing is due, nothing is "missed".
        assert trigger.fire(1050.0) == 0
        assert trigger.missed_periods == 0
        assert trigger.fire(1350.0) == 3
        assert trigger.next_fire_ns == 1400.0
        assert trigger.missed_periods == 2

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTrigger(0)
