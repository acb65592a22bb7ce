"""Failure injection: crashes inside GC, torn writes, partial persists.

§III-E claims GC is crash-safe ("HOOP can simply replay all committed
transactions in the OOP region") and §III-F claims the same for recovery
itself.  These tests interrupt both at arbitrary NVM-write boundaries and
verify the claims hold.

Power loss is injected through the first-class fault layer
(:mod:`repro.faults`) — the system is built with ``FaultConfig`` enabled
and the budget armed on the device's injector — rather than by
monkeypatching device methods, so the tests exercise the same code path
as ``python -m repro.crashtest``.
"""

import random

import pytest

from repro import FaultConfig, MemorySystem, SystemConfig
from repro.common.config import OPS, WRITES, Cut
from repro.common.errors import PowerLossError
from repro.core.slices import SLICE_BYTES


def build_system(seed=11, transactions=120, faults=None):
    rng = random.Random(seed)
    config = SystemConfig.small()
    if faults is not None:
        config = config.replace(faults=faults)
    system = MemorySystem(config, scheme="hoop")
    addrs = [system.allocate(64) for _ in range(16)]
    oracle = {}
    for _ in range(transactions):
        with system.transaction(rng.randrange(4)) as tx:
            for _ in range(rng.randint(1, 5)):
                addr = rng.choice(addrs) + 8 * rng.randrange(8)
                value = rng.getrandbits(64).to_bytes(8, "little")
                tx.store(addr, value)
                oracle[addr] = value
    return system, oracle


def build_faulty_system(seed=11, transactions=120):
    """A system on the fault device with no fault armed yet."""
    return build_system(
        seed, transactions, faults=FaultConfig(enabled=True, seed=seed)
    )


def verify(system, oracle):
    for addr, value in oracle.items():
        assert system.durable_state(addr, 8) == value, hex(addr)


@pytest.mark.parametrize("fail_after", [1, 3, 7, 15, 40])
def test_crash_during_gc_is_safe(fail_after):
    """Power fails after N device writes inside a GC pass."""
    system, oracle = build_faulty_system(seed=fail_after)
    system.device.injector.arm_power_loss_at(Cut(WRITES, fail_after))
    try:
        system.scheme.controller.gc.run(system.now_ns, on_demand=True)
    except PowerLossError:
        pass
    system.crash()
    system.recover(threads=2)
    verify(system, oracle)
    assert system.device.fault_stats.power_cuts <= 1


@pytest.mark.parametrize("fail_after", [2, 10, 33])
def test_crash_during_recovery_is_restartable(fail_after):
    """§III-F: recovery interrupted by another crash simply restarts."""
    system, oracle = build_faulty_system(seed=fail_after * 7)
    system.crash()
    # Recovery restores the home region through the functional plane and
    # persists metadata through the timed one; a crash *during recovery*
    # is a cut that counts both.
    system.device.injector.arm_power_loss_at(Cut(OPS, fail_after))
    try:
        system.recover(threads=2)
        interrupted = False
    except PowerLossError:
        interrupted = True
    system.crash()
    system.recover(threads=2)
    verify(system, oracle)
    assert interrupted == (system.device.fault_stats.power_cuts == 1)


def test_torn_final_slice_drops_only_that_transaction():
    """Corrupting the newest slice (a torn write) must not affect older
    committed transactions."""
    system, oracle = build_system(seed=3, transactions=60)
    controller = system.scheme.controller
    region = controller.region
    # The most recently written data slice is the active block's last
    # allocated slot; tear it.
    active = region.active_block("data")
    assert active is not None
    cursor = region._cursor["data"] - 1
    victim = region.slice_index(active, cursor)
    addr = region.slice_addr(victim)
    raw = bytearray(system.device.peek(addr, SLICE_BYTES))
    raw[40] ^= 0xFF
    system.device.poke(addr, bytes(raw))
    # The torn slice belonged to the newest transaction; recovery must
    # keep everything the tear did not touch.
    from repro.core.slices import SliceCodec
    from repro.common.errors import CorruptionError

    torn_tx = None
    try:
        controller.codec.decode_data(bytes(raw))
    except CorruptionError:
        pass  # expected: it no longer parses
    system.crash()
    system.recover(threads=1)
    # At most the words of the single torn transaction may be stale.
    stale = [
        addr
        for addr, value in oracle.items()
        if system.durable_state(addr, 8) != value
    ]
    assert len(stale) <= 6  # one transaction's worth


def test_torn_commit_log_page_loses_at_most_newest_entries():
    system, oracle = build_system(seed=5, transactions=40)
    controller = system.scheme.controller
    # Flush pages, then corrupt the newest page on NVM.
    controller.commit_log.flush_dirty(0.0)
    pages = controller.commit_log._pages
    victim = pages[-1]
    addr = controller.region.slice_addr(victim.slice_index)
    raw = bytearray(system.device.peek(addr, SLICE_BYTES))
    raw[8] ^= 0xA5
    system.device.poke(addr, bytes(raw))
    system.crash()
    system.recover(threads=2)
    # The STATE_LAST region scan backstops the torn page: all committed
    # data survives because commit entries are an accelerator, not the
    # commit point.
    verify(system, oracle)


def test_stray_bitflip_in_free_space_is_harmless():
    system, oracle = build_system(seed=9, transactions=50)
    region = system.scheme.controller.region
    # Flip bytes in a never-allocated block.
    free_block = region.num_blocks - 1
    addr = region.block_base(free_block) + 4 * SLICE_BYTES
    system.device.poke(addr, b"\xde\xad\xbe\xef" * 32)
    system.crash()
    system.recover(threads=2)
    verify(system, oracle)
