"""The experiment harness: scales, cells, tables, reports."""

import os

import pytest

from repro.harness import SCALES, run_cell, run_table1
from repro.harness.experiments import get_scale
from repro.stats.report import FigureData, format_table


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_paper_scale_matches_evaluation_setup(self):
        paper = SCALES["paper"]
        assert paper.threads == 8  # §IV-A: eight threads per workload
        config = paper.system_config()
        assert config.num_cores == 16

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_workload_kwargs(self):
        smoke = SCALES["smoke"]
        assert smoke.kwargs_for("hashmap")["keyspace"] == 2048
        assert smoke.kwargs_for("queue") == {}


class TestRunCell:
    def test_cell_runs_and_caches(self):
        first = run_cell("native", "queue", "smoke", seed=3)
        second = run_cell("native", "queue", "smoke", seed=3)
        assert first is second  # memoized
        assert first.transactions > 0

    def test_hoop_cell_carries_extras(self):
        result = run_cell("hoop", "queue", "smoke", seed=3)
        assert "gc_passes" in result.extras
        assert "parallel_reads" in result.extras


class TestTable1:
    def test_rows_cover_all_schemes(self):
        figure = run_table1()
        schemes = figure.column("Scheme")
        assert set(schemes) == {
            "hoop",
            "hoop-mc",
            "native",
            "opt-redo",
            "opt-undo",
            "osp",
            "lsm",
            "lad",
            "logregion",
        }

    def test_hoop_row_matches_paper(self):
        figure = run_table1()
        hoop = figure.by_key("Scheme")["hoop"]
        assert hoop[2:] == ["Low", "No", "No", "Low"]


class TestReportRendering:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 1000.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_figure_render_includes_notes(self):
        fig = FigureData("Fig X", "demo", ["k", "v"])
        fig.add_row("a", 1.0)
        fig.add_note("hello")
        text = fig.render()
        assert "Fig X" in text
        assert "note: hello" in text

    def test_column_and_by_key(self):
        fig = FigureData("F", "t", ["k", "v"])
        fig.add_row("a", 1)
        fig.add_row("b", 2)
        assert fig.column("v") == [1, 2]
        assert fig.by_key("k")["b"] == ["b", 2]

    def test_empty_table_renders(self):
        fig = FigureData("F", "t", ["k", "v"])
        assert "F" in fig.render()


@pytest.mark.parametrize("before", [None, "", "1"])
def test_no_cache_flag_leaves_environment_as_found(before, tmp_path, monkeypatch):
    """``--no-cache`` is for that run only, not the rest of the process."""
    from repro.harness import __main__ as cli
    from repro.harness import diskcache

    if before is None:
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_CACHE", before)
    seen = []
    monkeypatch.setitem(
        cli.RUNNERS,
        "table1",
        lambda scale: seen.append(diskcache.enabled()) or run_table1(),
    )
    environ = dict(os.environ)
    argv = ["--scale", "smoke", "--only", "table1", "--out", str(tmp_path)]
    assert cli.main(argv + ["--no-cache"]) == 0
    assert seen == [False]  # off while the run was in progress
    assert dict(os.environ) == environ
