"""Tests of the benchmark itself: ``python -m pytest perf/``.

Not part of the tier-1 ``testpaths``: the name-coverage tests run every
workload at ``--quick`` size, traced and untraced (about 20 s).
"""

from __future__ import annotations

import json
import re

import pytest

from perf import capture, compare, hostspeed, run
from perf.trace import LAYERS, ROOT_LAYER, TARGETS, Tracer, _resolve, tracing
from perf.workloads import COUNT_NAMES, WORKLOADS

BENCHMARK = run.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- tracer arithmetic -----------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def nested_trace() -> Tracer:
    """root[ a[ b ] a[ ] c ]: every begin and finish costs one tick."""
    tracer = Tracer(clock=FakeClock())
    with tracer.span(ROOT_LAYER, "root"):
        with tracer.span("a", "f"):
            with tracer.span("b", "g"):
                pass
        with tracer.span("a", "f"):
            pass
        with tracer.span("c", "h"):
            pass
    return tracer


def test_self_times_sum_to_the_root():
    tracer = nested_trace()
    own = tracer.self_times()
    root_duration = tracer.end[0] - tracer.start[0]
    assert root_duration == 9.0
    assert sum(own) == root_duration
    assert list(tracer.parent) == [-1, 0, 1, 0, 0]
    folded = tracer.by_layer()
    assert folded["a"] == (3.0, 2)  # (3 - 1) + 1
    assert folded["b"] == (1.0, 1)
    assert folded["c"] == (1.0, 1)
    assert folded[ROOT_LAYER] == (4.0, 1)


def test_by_layer_folds_only_the_given_ranges():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("setup", "build"):
        with tracer.span("a", "f"):
            pass
    with tracer.span(ROOT_LAYER, "unit") as first:
        with tracer.span("a", "f"):
            pass
    folded = tracer.by_layer([(first, len(tracer))])
    assert folded == {ROOT_LAYER: (2.0, 1), "a": (1.0, 1)}


def test_an_exception_unwinds_the_stack():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("a", "boom", boom)
    with tracer.span(ROOT_LAYER, "root"):
        with pytest.raises(KeyError):
            traced()
        assert tracer.stack == [0]
        traced_ok = tracer.wrap("a", "ok", lambda: 7)
        assert traced_ok() == 7
    assert tracer.stack == []
    assert all(end > start for start, end in zip(tracer.start, tracer.end))
    assert list(tracer.parent) == [-1, 0, 0]


def test_perfetto_export_is_capped_and_says_so(tmp_path):
    tracer = nested_trace()
    path = tmp_path / "trace.json"
    assert tracer.write_perfetto(path, [(1, 5)], limit=3) == 3
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == 3
    assert document["metadata"] == {
        "spans_recorded": 5, "spans_in_ranges": 4, "spans_written": 3,
    }
    event = document["traceEvents"][1]
    assert event["ph"] == "X" and event["cat"] == "b"
    assert event["args"] == {"span": 2, "parent": 1}


def _originals():
    return {
        (owner_path, name): vars(_resolve(owner_path)).get(name)
        for owners in TARGETS.values()
        for owner_path, names in owners.items()
        for name in names
    }


def test_tracing_patches_then_restores_and_leaves_outputs_identical():
    before = _originals()
    workload = WORKLOADS["crash-sweep"](seed=7, quick=True)
    plain = run.run_round(workload)
    with tracing() as tracer:
        from repro.txn.transaction import Transaction

        assert Transaction.store.__wrapped__ is before[
            ("repro.txn.transaction:Transaction", "store")
        ]
        traced = run.run_round(workload, tracer)
    assert _originals() == before  # inherited names are gone again too
    again = run.run_round(workload)
    assert len(tracer) > 1000
    assert set(tracer.by_layer(traced.spans)) <= set(LAYERS) | {ROOT_LAYER}
    for other in (traced, again):
        assert run.first_difference(
            plain.summary.outputs, other.summary.outputs
        ) is None
        assert run.digest(other.summary.outputs) == run.digest(
            plain.summary.outputs
        )


def test_first_difference_names_the_field():
    base = {"a/x": 1, "a/y": [1.0, 2.0]}
    assert run.first_difference(base, dict(base)) is None
    assert run.first_difference(base, {"a/x": 1, "a/y": [1.0, 2.5]}) == "a/y"
    assert run.first_difference(base, {"a/x": 1}) == "a/y"


# -- host speed ------------------------------------------------------------------


def test_reference_seconds_scale_wall_time_by_the_rounds_speed():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.speed_factor([nominal] * 4) == pytest.approx(1.0)
    assert hostspeed.speed_factor([2 * nominal, 2 * nominal]) == pytest.approx(0.5)
    assert [hostspeed.samples_per_boundary(u) for u in (1, 3, 4, 8)] == [3, 2, 2, 1]
    slow = run.Round(
        setup_s={"a": 1.0, "b": 1.0},
        measure_s={"a": 3.0, "b": 1.0},
        reference_s=[2 * nominal] * 6,
        summary=None,
        spans=[],
    )
    assert slow.reference_seconds("measure_s") == pytest.approx(2.0)
    assert slow.reference_seconds("setup_s") == pytest.approx(1.0)
    assert hostspeed.reference_sample() > 0


# -- percentile rule -------------------------------------------------------------


def test_order_statistics_are_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert capture.order_statistic(samples, 0.5) == 50.0
    assert capture.order_statistic(samples, 0.99) == 99.0
    assert capture.order_statistic(samples, 1.0) == 100.0
    assert capture.order_statistic([3.0], 0.99) == 3.0
    with pytest.raises(ValueError):
        capture.order_statistic([], 0.5)


def test_percentile_needs_ten_samples_beyond_it():
    assert capture.samples_beyond(3946, 0.99) == 39
    assert capture.samples_beyond(100, 0.99) == 1
    assert capture.highest_supported(3946) == 0.99
    assert capture.highest_supported(999) == 0.9
    assert capture.highest_supported(1000) == 0.99
    assert capture.highest_supported(20) == 0.5
    with pytest.raises(ValueError):
        capture.highest_supported(19)


def test_capture_keeps_raw_latencies_and_failover_marks():
    hub = capture.CaptureTelemetry()
    hub.record("shard3/request_latency_ns", 1234.5)
    hub.record("shard3/queue_depth", 9)
    hub.emit(10.0, "promotion", "serve", {"shard": 1})
    hub.emit(11.0, "serve_reject", "serve", {"shard": 1})
    assert hub.latencies == [1234.5]
    assert hub.hist("shard3/request_latency_ns").count == 1
    assert hub.mark_ns("promotion", 1) == 10.0
    assert len(hub.events) == 2
    with pytest.raises(LookupError):
        hub.mark_ns("promotion", 2)


# -- BENCHMARK.json and the names the runs print ---------------------------------


def test_benchmark_file_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_per_layer_names_are_the_layers_and_the_counts():
    expected = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
    expected += ["trace.overhead_ratio", "trace.covered_share", *COUNT_NAMES]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == expected
    assert set(TARGETS) == set(LAYERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_quick_run_prints_exactly_the_declared_names(
    workload, trace, tmp_path, capsys
):
    code = run.main(
        [
            "--workload", workload, "--seed", "11", "--quick",
            "--trace", str(trace), "--out", str(tmp_path),
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        # The human-readable report names every metric with its unit too.
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line
            for line in lines
        ), metric["name"]
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())
    record = tmp_path / (
        f"{workload}.seed11{'.trace' if trace else ''}.json"
    )
    assert json.loads(record.read_text())["metrics"] == result["metrics"]
    if trace:
        serve_time = sum(
            v["value"]
            for name, v in result["metrics"].items()
            if name.startswith("serve.") and name.endswith(".self_s")
        )
        assert (serve_time > 0) == workload.startswith("serve-")


# -- compare ---------------------------------------------------------------------

WALL = {"name": "wall_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
SIM = {"name": "sim_p99_latency_ns", "unit": "sim_ns", "better": "lower", "bound": 0.1}


def _by_seed(values):
    return dict(enumerate(values, start=1))


def test_compare_reports_unresolved_not_unchanged_when_runs_scatter():
    steady = _by_seed([100, 101, 99, 100, 102, 98])
    noisy = _by_seed([100, 130, 80, 100, 125, 75])
    assert compare.compare_metric(WALL, steady, steady)["verdict"] == "unchanged"
    assert compare.compare_metric(WALL, steady, noisy)["verdict"] == "unresolved"
    slower = _by_seed([80, 81, 79, 80, 82, 78])
    row = compare.compare_metric(WALL, steady, slower)
    assert row["verdict"] == "regressed"
    assert row["ratio"] == pytest.approx(0.8)
    faster = _by_seed([v * 2 for v in noisy.values()])
    assert compare.compare_metric(WALL, noisy, faster)["verdict"] == "improved"


def test_compare_holds_simulated_metrics_to_equality_seed_by_seed():
    a = _by_seed([1800.5, 1790.25, 1811.0])
    assert compare.compare_metric(SIM, a, dict(a))["verdict"] == "identical"
    moved = dict(a)
    moved[2] += 0.5
    verdict = compare.compare_metric(SIM, a, moved)["verdict"]
    assert verdict == "differs (seeds [2]); medians unchanged"
    placeholder = _by_seed([run.NOT_APPLICABLE] * 3)
    assert compare.compare_metric(SIM, placeholder, placeholder)["verdict"] == "n/a"
