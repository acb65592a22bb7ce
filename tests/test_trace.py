"""A workload as data: recording, seeded traces, and cross-scheme replay."""

import pytest

from repro import MemorySystem, SystemConfig
from repro.crashtest import verify_atomic_durability
from repro.schemes import PERSISTENT_SCHEME_NAMES
from repro.trace import RecordingSystem, generate_trace, run_txns
from repro.workloads import WorkloadDriver, make_workload

_SMALL = {
    "hashmap": dict(keyspace=512, buckets=128),
    "rbtree": dict(keyspace=512),
    "tpcc": dict(items=512, customers_per_district=16),
}


def record(workload, transactions, seed=17):
    """Record ``workload`` on native; returns the system and its setup mark."""
    system = RecordingSystem(SystemConfig.small(), scheme="native")
    wl = make_workload(workload, system, seed=seed, **_SMALL[workload])
    wl.setup(core=0)
    mark = len(system.txns)
    driver = WorkloadDriver(system, threads=4, seed=seed)
    driver.run(wl, transactions, setup=False, warmup=0, quiesce=False)
    return system, mark


def final_words(txns):
    """Last-write-wins value of every address the records store to."""
    final = {}
    for _, stores in txns:
        final.update(stores)
    return final


class TestFormat:
    def test_summary_accessors(self):
        trace = generate_trace(5, transactions=7, slots=3, cores=2)
        assert len(trace.txns) == 7
        assert trace.num_events == 7 + sum(len(t.stores) for t in trace.txns)
        assert {t.core for t in trace.txns} <= {0, 1}
        listing = trace.render().splitlines()
        assert listing[0] == (
            f"trace seed=5 slots=3 txns=7 events={trace.num_events}"
        )
        assert len(listing) == 1 + trace.num_events


class TestRecording:
    def test_setup_is_sliced_off(self):
        system, mark = record("hashmap", 10)
        assert mark > 0  # the load phase committed transactions too
        txns = system.txns[mark:]
        assert len(txns) == 10
        assert all(stores for _, stores in txns)
        assert {core for core, _ in txns} <= {0, 1, 2, 3}

    def test_recorded_system_behaves_normally(self):
        system = RecordingSystem(SystemConfig.small(), scheme="hoop")
        addr = system.allocate(8)
        with system.transaction() as tx:
            tx.store_u64(addr, 99)
        system.crash()
        system.recover()
        assert int.from_bytes(system.durable_state(addr, 8), "little") == 99
        assert system.txns == [(0, [(addr, (99).to_bytes(8, "little"))])]


class TestReplay:
    def test_replay_reproduces_committed_state(self):
        recorded, mark = record("hashmap", 50)
        txns = recorded.txns[mark:]
        target = MemorySystem(SystemConfig.small(), scheme="hoop")
        outcome = run_txns(target, txns)
        assert not outcome.power_lost and not outcome.staged
        assert target.committed_transactions == 50
        target.scheme.quiesce(target.now_ns)
        for addr, data in final_words(txns).items():
            assert target.durable_state(addr, len(data)) == data

    def test_same_trace_across_schemes_same_state(self):
        recorded, mark = record("hashmap", 40)
        txns = recorded.txns[mark:]
        final = final_words(txns)
        images = []
        for scheme in ("hoop", "opt-undo", "lsm"):
            target = MemorySystem(SystemConfig.small(), scheme=scheme)
            run_txns(target, txns)
            target.scheme.quiesce(target.now_ns)
            images.append(
                {a: target.durable_state(a, len(d)) for a, d in final.items()}
            )
        assert images[0] == images[1] == images[2]

    def test_replay_metrics(self):
        recorded, mark = record("hashmap", 30)
        target = MemorySystem(SystemConfig.small(), scheme="hoop")
        run_txns(target, recorded.txns[mark:])
        assert target.committed_transactions == 30
        assert target.mean_latency_ns > 0
        assert target.device.stats.bytes_written > 0


@pytest.fixture(scope="module", params=["rbtree", "tpcc"])
def recorded_workload(request):
    system, mark = record(request.param, 40, seed=42)
    return system.txns[mark:]


@pytest.mark.parametrize("scheme", PERSISTENT_SCHEME_NAMES)
def test_record_once_crash_everywhere(recorded_workload, scheme):
    """A recorded paper workload, replayed, survives crash and recovery."""
    system = MemorySystem(SystemConfig.small(), scheme=scheme)
    outcome = run_txns(system, recorded_workload)
    assert not outcome.power_lost
    system.crash()
    system.recover()
    assert verify_atomic_durability(system, outcome.oracle, {}) is None
