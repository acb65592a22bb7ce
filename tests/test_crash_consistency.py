"""THE property: atomic durability under crashes, for every scheme.

A random transactional workload runs against each persistence scheme; the
machine power-fails at a random transaction boundary (and, separately,
*inside* a transaction); recovery must restore exactly the committed
prefix — every committed write visible, no uncommitted write visible.

Native is the control group: with eviction pressure it must *fail* this
property, which validates that the test can actually detect torn state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemorySystem, SystemConfig

PERSISTENT_SCHEMES = ["hoop", "opt-redo", "opt-undo", "osp", "lsm", "lad"]


def run_random_workload(
    scheme,
    *,
    seed,
    transactions,
    crash_mid_tx=False,
    gc_every=0,
    addresses=24,
):
    """Returns (system, oracle of committed writes, uncommitted writes)."""
    rng = random.Random(seed)
    system = MemorySystem(SystemConfig.small(), scheme=scheme)
    addrs = [system.allocate(64) for _ in range(addresses)]
    oracle = {}
    for i in range(transactions):
        core = rng.randrange(system.config.num_cores)
        staged = {}
        with system.transaction(core) as tx:
            for _ in range(rng.randint(1, 6)):
                addr = rng.choice(addrs) + 8 * rng.randrange(8)
                value = rng.getrandbits(64).to_bytes(8, "little")
                tx.store(addr, value)
                staged[addr] = value
        oracle.update(staged)
        if gc_every and i % gc_every == gc_every - 1:
            system.scheme.tick(system.now_ns)
    uncommitted = {}
    if crash_mid_tx:
        doomed = system.transaction(0)
        doomed.__enter__()
        for _ in range(rng.randint(1, 6)):
            addr = rng.choice(addrs) + 8 * rng.randrange(8)
            value = rng.getrandbits(64).to_bytes(8, "little")
            doomed.store(addr, value)
            uncommitted[addr] = value
    return system, oracle, uncommitted


def verify_oracle(system, oracle):
    bad = [
        hex(addr)
        for addr, value in oracle.items()
        if system.durable_state(addr, 8) != value
    ]
    assert not bad, f"{len(bad)} committed words lost/stale: {bad[:5]}"


@pytest.mark.parametrize("scheme", PERSISTENT_SCHEMES)
def test_crash_at_boundary_preserves_all_commits(scheme):
    system, oracle, _ = run_random_workload(
        scheme, seed=101, transactions=250
    )
    system.crash()
    system.recover(threads=2)
    verify_oracle(system, oracle)


@pytest.mark.parametrize("scheme", PERSISTENT_SCHEMES)
def test_crash_mid_transaction_discards_it(scheme):
    system, oracle, uncommitted = run_random_workload(
        scheme, seed=202, transactions=120, crash_mid_tx=True
    )
    system.crash()
    system.recover(threads=2)
    verify_oracle(system, oracle)
    # No uncommitted write may be visible unless an *earlier committed*
    # transaction stored the same value there.
    for addr, value in uncommitted.items():
        durable = system.durable_state(addr, 8)
        if durable == value:
            assert oracle.get(addr) == value, (
                f"uncommitted write leaked at {addr:#x}"
            )


@pytest.mark.parametrize("scheme", ["hoop", "lsm", "opt-redo"])
def test_crash_after_background_activity(scheme):
    """GC/checkpoint cadence between transactions must stay crash-safe."""
    system, oracle, _ = run_random_workload(
        scheme, seed=303, transactions=400, gc_every=40
    )
    system.crash()
    system.recover(threads=4)
    verify_oracle(system, oracle)


def test_hoop_double_crash_recovery_idempotent():
    system, oracle, _ = run_random_workload(
        "hoop", seed=404, transactions=150
    )
    system.crash()
    system.recover(threads=1)
    # Crash again immediately: recovery cleared the OOP region, so the
    # second pass replays nothing but must leave the data intact.
    system.crash()
    system.recover(threads=2)
    verify_oracle(system, oracle)


def test_recovery_thread_count_does_not_change_content():
    images = []
    for threads in (1, 3, 8):
        system, oracle, _ = run_random_workload(
            "hoop", seed=505, transactions=200
        )
        system.crash()
        system.recover(threads=threads)
        images.append(
            {addr: system.durable_state(addr, 8) for addr in oracle}
        )
        verify_oracle(system, oracle)
    assert images[0] == images[1] == images[2]


def test_native_is_not_crash_consistent():
    """The control: without persistence support, commits can be lost."""
    system, oracle, _ = run_random_workload(
        "native", seed=606, transactions=250
    )
    system.crash()
    system.recover()
    lost = sum(
        1
        for addr, value in oracle.items()
        if system.durable_state(addr, 8) != value
    )
    assert lost > 0, "native unexpectedly survived the crash"


@settings(max_examples=10, deadline=None)
@given(
    scheme=st.sampled_from(PERSISTENT_SCHEMES),
    seed=st.integers(min_value=0, max_value=2**20),
    transactions=st.integers(min_value=5, max_value=120),
)
def test_crash_consistency_fuzz(scheme, seed, transactions):
    system, oracle, _ = run_random_workload(
        scheme, seed=seed, transactions=transactions
    )
    system.crash()
    system.recover(threads=2)
    verify_oracle(system, oracle)
