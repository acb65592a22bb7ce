"""The telemetry subsystem: histograms, event ordering, exporters, CLI."""

from __future__ import annotations

import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.telemetry import (
    NULL_TELEMETRY,
    EpochSeries,
    Log2Histogram,
    Telemetry,
    to_perfetto,
    validate_perfetto,
    write_perfetto,
)
from repro.telemetry.__main__ import main as telemetry_main
from repro.txn.system import MemorySystem
from repro.workloads.driver import WorkloadDriver, make_workload


# -- histograms -----------------------------------------------------------------


def _brute_percentile(values, fraction):
    """Nearest-rank percentile over the raw sample."""
    ordered = sorted(values)
    rank = max(1, -(-int(fraction * len(ordered) * 1_000_000) // 1_000_000))
    return ordered[min(rank, len(ordered)) - 1]


class TestLog2Histogram:
    @pytest.mark.parametrize("seed", [11, 42, 777])
    def test_percentiles_bracket_brute_force(self, seed):
        rng = random.Random(seed)
        hist = Log2Histogram()
        values = [rng.expovariate(1 / 500.0) for _ in range(2000)]
        for v in values:
            hist.record(v)
        for fraction in (0.5, 0.95, 0.99):
            exact = _brute_percentile(values, fraction)
            lo, hi = hist.percentile_bounds(fraction)
            assert lo <= exact <= hi
            assert hist.percentile(fraction) == hi

    def test_min_max_mean_exact(self):
        hist = Log2Histogram()
        for v in (3.0, 100.0, 7.0):
            hist.record(v)
        assert hist.max_value == 100.0
        assert hist.min_value == 3.0
        assert hist.mean == pytest.approx(110.0 / 3)
        assert hist.summary()["count"] == 3

    def test_empty_histogram(self):
        hist = Log2Histogram()
        assert hist.percentile(0.5) == 0.0
        assert hist.summary()["count"] == 0

    def test_bucket_index_boundaries(self):
        assert Log2Histogram.bucket_index(0.0) == 0
        assert Log2Histogram.bucket_index(1.0) == 0
        assert Log2Histogram.bucket_index(2.0) == 1
        assert Log2Histogram.bucket_index(2.5) == 2
        assert Log2Histogram.bucket_index(4.0) == 2
        lo, hi = Log2Histogram.bucket_bounds(2)
        assert (lo, hi) == (2.0, 4.0)


# Where bucket arithmetic can slip: 0, 1, powers of two and their
# neighbouring floats, negatives, and values at or past the 2^63 cap.
_BUCKET_EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0, 1]),
    st.integers(0, 70).flatmap(
        lambda e: st.sampled_from(
            [
                math.nextafter(2.0**e, 0.0),
                2.0**e,
                math.nextafter(2.0**e, math.inf),
                2**e - 1,
                2**e,
                2**e + 1,
            ]
        )
    ),
    st.floats(max_value=0.0, allow_nan=False),
    st.integers(max_value=0),
    st.floats(min_value=2.0**63),
    st.integers(min_value=2**63),
)


class TestSinkProperties:
    @given(_BUCKET_EDGES)
    def test_record_lands_in_the_bucket_index_bucket(self, value):
        hist = Log2Histogram()
        hist.record(value)
        index = Log2Histogram.bucket_index(value)
        assert hist.buckets[index] == 1 and hist.count == 1
        lo, hi = Log2Histogram.bucket_bounds(index)
        clamped = max(value, 0.0)
        assert clamped > lo or index == 0
        assert clamped <= hi or index == len(hist.buckets) - 1

    def test_infinity_is_capped_and_nan_rejected(self):
        hist = Log2Histogram()
        hist.record(math.inf)
        assert Log2Histogram.bucket_index(math.inf) == len(hist.buckets) - 1
        assert hist.buckets[-1] == 1 and hist.max_value == math.inf
        with pytest.raises(ValueError):
            hist.record(math.nan)
        with pytest.raises(ValueError):
            Log2Histogram.bucket_index(math.nan)
        assert hist.count == 1

    @settings(max_examples=60)
    @given(
        st.integers(2, 6),
        st.lists(
            st.tuples(
                st.floats(-50.0, 5_000.0, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            max_size=60,
        ),
    )
    def test_add_matches_the_coalescing_path(self, max_epochs, samples):
        def add_slowly(series, ts_ns, value):
            # EpochSeries.add without its existing-epoch shortcut.
            index = int(ts_ns // series.epoch_ns) if ts_ns > 0 else 0
            while index >= series.max_epochs:
                series._coalesce()
                index = int(ts_ns // series.epoch_ns) if ts_ns > 0 else 0
            if index >= len(series.values):
                series.values.extend([0.0] * (index + 1 - len(series.values)))
            series.values[index] += value

        fast = EpochSeries(epoch_ns=10.0, max_epochs=max_epochs)
        slow = EpochSeries(epoch_ns=10.0, max_epochs=max_epochs)
        for ts_ns, value in samples:
            fast.add(ts_ns, value)
            add_slowly(slow, ts_ns, value)
            assert (fast.epoch_ns, fast.values) == (slow.epoch_ns, slow.values)

    def test_reset_metrics_gives_record_a_fresh_sink(self):
        tel = Telemetry()
        tel.record("h", 9.0)
        old_hist = tel.histograms["h"]
        tel.reset_metrics()
        tel.record("h", 3.0)
        assert tel.histograms["h"] is not old_hist
        assert (tel.hist("h").count, tel.hist("h").total) == (1, 3.0)
        assert old_hist.count == 1


class TestEpochSeries:
    def test_coalescing_preserves_total(self):
        series = EpochSeries(epoch_ns=100.0, max_epochs=4)
        for ts in range(0, 10_000, 50):
            series.add(float(ts), 1.0)
        assert series.total == 200.0
        assert len(series.values) <= 4
        # Coalescing doubles the epoch until the window fits.
        assert series.epoch_ns >= 100.0 * (10_000 / (4 * 100.0))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            EpochSeries(epoch_ns=0.0)
        with pytest.raises(ValueError):
            EpochSeries(max_epochs=1)


# -- the hub -------------------------------------------------------------------


class TestHub:
    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.emit(1.0, "txn_begin", "core0", {"tx": 1})
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.record("h", 5.0)
        NULL_TELEMETRY.on_commit(0, 1, 0.0, 10.0)
        NULL_TELEMETRY.reset_metrics()
        assert NULL_TELEMETRY.summary() == {}
        assert not NULL_TELEMETRY.enabled

    def test_event_bound_counts_drops(self):
        tel = Telemetry(max_events=3)
        for i in range(5):
            tel.emit(float(i), "txn_begin", "core0", {"tx": i})
        assert len(tel.events) == 3
        assert tel.dropped_events == 2
        assert tel.summary()["events"]["dropped"] == 2

    def test_reset_metrics_keeps_events(self):
        tel = Telemetry()
        tel.emit(1.0, "txn_begin", "core0", {"tx": 1})
        tel.count("c", 5)
        tel.record("h", 9.0)
        tel.on_commit(0, 1, 0.0, 4.0)
        tel.reset_metrics()
        assert len(tel.events) == 2  # txn_begin + txn_commit survive
        assert tel.counters == {}
        assert tel.hist("h").count == 0
        assert tel.commit_series.total == 0


# -- a real run: ordering + exporters ------------------------------------------


@pytest.fixture(scope="module")
def recorded():
    telemetry = Telemetry()
    system = MemorySystem(
        SystemConfig.small(), scheme="hoop", telemetry=telemetry
    )
    wl = make_workload(
        "hashmap",
        system,
        seed=3,
        keyspace=1024,
        buckets=256,
    )
    driver = WorkloadDriver(system, threads=1, seed=3)
    driver.run(wl, 120, warmup=10)
    return telemetry


class TestEventOrdering:
    def test_start_and_instant_events_monotone_per_track(self, recorded):
        """Single-threaded runs emit in nondecreasing simulated time.

        ``*_end`` events are stamped at asynchronous completion horizons
        and may legitimately overlap the next start; everything else on
        one track must be monotone.
        """
        last = {}
        for ts, kind, track, _payload in recorded.events:
            if kind.endswith("_end") or kind == "txn_commit":
                continue
            assert ts >= last.get(track, 0.0), (kind, track, ts)
            last[track] = ts

    def test_expected_kinds_present(self, recorded):
        counts = recorded.event_counts()
        for kind in ("txn_begin", "txn_commit", "commit_log_append"):
            assert counts.get(kind, 0) > 0, kind
        assert recorded.hist("commit_latency_ns").count == 120


class TestPerfettoExport:
    def test_round_trips_through_json(self, recorded, tmp_path):
        path = tmp_path / "trace.json"
        write_perfetto(recorded, path)
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert validate_perfetto(events) == []
        phases = {e["ph"] for e in events}
        assert "M" in phases and "X" in phases
        names = {e["name"] for e in events if e["ph"] != "M"}
        assert "txn" in names
        assert "commit_log_append" in names
        # Complete events carry simulated-time spans in microseconds.
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in spans)
        # Timestamps are sorted for stream-friendly consumers.
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_gc_spans_present_when_gc_ran(self, recorded, tmp_path):
        if recorded.event_counts().get("gc_start", 0) == 0:
            pytest.skip("run too small to trigger GC")
        trace = to_perfetto(recorded)
        gc_spans = [
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "gc"
        ]
        assert gc_spans
        assert all("scanned" in e["args"] for e in gc_spans)


# -- zero overhead when disabled -------------------------------------------------


def _run_cell(telemetry=None):
    system = MemorySystem(
        SystemConfig.small(), scheme="hoop", telemetry=telemetry
    )
    wl = make_workload("queue", system, seed=5)
    driver = WorkloadDriver(system, threads=2, seed=5)
    return driver.run(wl, 80, warmup=8)


def test_enabled_run_is_bit_identical_to_disabled():
    """Telemetry observes; it must never perturb simulated results."""
    plain = _run_cell()
    observed = _run_cell(Telemetry())
    assert plain.makespan_ns == observed.makespan_ns
    assert plain.mean_latency_ns == observed.mean_latency_ns
    assert plain.max_latency_ns == observed.max_latency_ns
    assert plain.bytes_written == observed.bytes_written
    assert plain.bytes_read == observed.bytes_read
    assert plain.energy_pj == observed.energy_pj
    assert plain.telemetry is None
    assert observed.telemetry is not None
    assert observed.telemetry["histograms"]["commit_latency_ns"]["count"] > 0


# -- per-run mapping events ------------------------------------------------------


def _replicated(hub, **overrides):
    from repro.serve import ServeConfig
    from repro.serve.cluster import ServeCluster

    cfg = dict(
        shards=4, replicas=1, read_fraction=0.1, rate_per_s=1.6e6,
        duration_ms=1.5, lease_us=500.0, queue_depth=256,
    )
    cfg.update(overrides)
    cluster = ServeCluster(ServeConfig(**cfg), telemetry=hub)
    cluster.run()
    return cluster


@pytest.fixture(scope="module")
def failover():
    """A replicated cluster whose shard-1 primary dies torn at 0.5 ms."""
    return _replicated(
        Telemetry(max_events=40_000),
        kill_shard=1, kill_primary_at_ms=0.5, torn_kill=True,
    )


def test_failover_timeline_is_not_drowned_by_mapping_events(failover):
    # Per-word mapping events made this run 153 813 events long: a hub
    # this size dropped 113 813 of them, the failover marks included.
    hub = failover.telemetry
    assert hub.dropped_events == 0
    kinds = [kind for _, kind, _, _ in hub.events]
    assert not [kind for kind in kinds if kind.startswith("mapping_")]
    for mark in ("shard_kill", "promotion", "rejoin_complete"):
        assert kinds.count(mark) == 1


MACHINE_KINDS = (
    "oop_evict", "commit_log_append", "port_stall", "power_cut", "crash"
)


def test_a_serve_hub_observes_the_serving_layer_only(failover):
    # Every replica writes the same machine tracks, so a pooled machine
    # event could not be traced back to its replica: none reach the hub.
    hub = failover.telemetry
    # No commit/load/store latency or GC pause histogram, for one.
    assert all(name.startswith("shard") for name in hub.histograms)
    assert all(name.startswith("serve.") for name in hub.counters)
    assert hub.commit_series.values == []
    assert hub.write_traffic_series.values == []
    kinds = hub.event_counts()
    assert not [
        kind for kind in kinds
        if kind.startswith(("txn_", "gc_", "mapping_")) or kind in MACHINE_KINDS
    ]
    assert {kind: kinds[kind] for kind in (
        "shard_kill", "promotion", "rejoin_complete"
    )} == {"shard_kill": 1, "promotion": 1, "rejoin_complete": 1}
    replicas = [r for g in failover.groups.values() for r in g.replicas]
    assert not any(replica.system._tel_on for replica in replicas)
    assert not replicas[0].durable_projection()._tel_on


def test_mapping_events_are_per_run_and_sum_to_the_word_counters():
    from repro.core.controller import HoopScheme

    hub = Telemetry()
    system = MemorySystem(SystemConfig.small(), scheme="hoop", telemetry=hub)
    controller = system.scheme.controller
    lines = 64
    base = system.allocate(64 * lines)
    rng = random.Random(7)
    with mock.patch.object(
        HoopScheme, "on_store", autospec=True, side_effect=HoopScheme.on_store
    ) as on_store:
        # Full-line and partial word-aligned stores, one line each, until
        # a GC pass has migrated something home.
        for _ in range(10_000):
            if controller.gc.stats.words_migrated:
                break
            stores = []
            for _ in range(4):
                words = rng.choice((8, 1, 2, 3, 5))
                addr = base + 64 * rng.randrange(lines)
                addr += 8 * rng.randrange(9 - words)
                stores.append((addr, rng.randbytes(8 * words)))
            system.run_batch(stores)
    assert controller.gc.stats.words_migrated
    inserts = [p for _, kind, _, p in hub.events if kind == "mapping_insert"]
    evicts = [p for _, kind, _, p in hub.events if kind == "mapping_evict"]
    assert len(inserts) == on_store.call_count > 0
    assert sum(p["words"] for p in inserts) == (
        controller.buffer.stats.words_buffered
        + controller.buffer.stats.words_deduped
    )
    assert {p["words"] for p in inserts} == {1, 2, 3, 5, 8}
    assert all(p["addr"] % 8 == 0 for p in inserts)
    assert evicts
    assert sum(p["words"] for p in evicts) == controller.mapping.stats.removes
    assert all(p["addr"] % 64 == 0 and 1 <= p["words"] <= 8 for p in evicts)


# -- CLI -------------------------------------------------------------------------


class TestCLI:
    def test_record_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = telemetry_main(
            [
                "--scheme",
                "hoop",
                "--workload",
                "ycsb_a",
                "--scale",
                "smoke",
                "--transactions",
                "40",
                "--threads",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        trace = json.loads(out.read_text())
        assert validate_perfetto(trace["traceEvents"]) == []
        capsys.readouterr()
        assert telemetry_main(["--summary", str(out)]) == 0
        summary_text = capsys.readouterr().out
        assert "commit_latency_ns" in summary_text
        assert "structure: OK" in summary_text

    def test_record_requires_out(self, capsys):
        with pytest.raises(SystemExit):
            telemetry_main(["--scheme", "hoop"])

    def test_summary_flags_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"traceEvents": [{"ph": "X", "ts": 1.0}]})
        )
        assert telemetry_main(["--summary", str(bad)]) == 1
