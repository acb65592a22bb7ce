"""The telemetry subsystem: histograms, event ordering, exporters, CLI."""

from __future__ import annotations

import json
import random
from unittest import mock

import pytest

from repro.common.config import SystemConfig
from repro.telemetry import (
    NULL_TELEMETRY,
    EpochSeries,
    Log2Histogram,
    Telemetry,
    load_trace,
    to_perfetto,
    validate_perfetto,
    write_jsonl,
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

    def test_jsonl_export_greppable(self, recorded, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(recorded, path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(recorded.events)
        first = json.loads(lines[0])
        assert {"ts_ns", "kind", "track"} <= set(first)
        loaded = load_trace(path)
        assert loaded["format"] == "jsonl"
        assert len(loaded["events"]) == count


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


def test_failover_timeline_is_not_drowned_by_mapping_events():
    # Per-word mapping events made this run 153 813 events long: a hub
    # this size dropped 113 813 of them, the failover marks included.
    hub = Telemetry(max_events=40_000)
    _replicated(hub, kill_shard=1, kill_primary_at_ms=0.5, torn_kill=True)
    assert hub.dropped_events == 0
    kinds = [kind for _, kind, _, _ in hub.events]
    for mark in ("shard_kill", "promotion", "rejoin_complete"):
        assert kinds.count(mark) == 1


def test_mapping_events_are_per_run_and_sum_to_the_word_counters():
    from repro.core.controller import HoopScheme

    hub = Telemetry()
    with mock.patch.object(
        HoopScheme, "on_store", autospec=True, side_effect=HoopScheme.on_store
    ) as on_store:
        # No final verify: its scratch clones replay stores into this hub
        # but keep their own counters.
        cluster = _replicated(hub, duration_ms=1.0, verify_final=False)
    controllers = [
        replica.system.scheme.controller
        for group in cluster.groups.values()
        for replica in group.replicas
    ]
    inserts = [p for _, kind, _, p in hub.events if kind == "mapping_insert"]
    evicts = [p for _, kind, _, p in hub.events if kind == "mapping_evict"]
    assert len(inserts) == on_store.call_count > 0
    assert sum(p["words"] for p in inserts) == sum(
        c.buffer.stats.words_buffered + c.buffer.stats.words_deduped
        for c in controllers
    )
    assert all(p["addr"] % 8 == 0 and 1 <= p["words"] <= 8 for p in inserts)
    assert evicts
    assert sum(p["words"] for p in evicts) == sum(
        c.mapping.stats.removes for c in controllers
    )
    assert all(p["addr"] % 64 == 0 and 1 <= p["words"] <= 8 for p in evicts)


# -- CLI -------------------------------------------------------------------------


class TestCLI:
    def test_record_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
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
                "--jsonl",
                str(jsonl),
            ]
        )
        assert rc == 0
        trace = json.loads(out.read_text())
        assert validate_perfetto(trace["traceEvents"]) == []
        assert jsonl.exists()
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
