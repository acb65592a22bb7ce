"""The experiment harness: scales, cells, tables, reports."""

import dataclasses

import pytest

from repro.common.config import SystemConfig
from repro.harness import SCALES, experiments, run_cell, run_table1
from repro.harness.experiments import cell_key, get_scale
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
    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        experiments._CELL_CACHE.clear()
        yield
        experiments._CELL_CACHE.clear()

    def test_cell_runs_and_caches(self):
        first = run_cell("native", "queue", "smoke", seed=3)
        second = run_cell("native", "queue", "smoke", seed=3)
        assert first is second  # memoized
        assert first.transactions > 0

    def test_hoop_cell_carries_extras(self):
        result = run_cell("hoop", "queue", "smoke", seed=3)
        assert "gc_passes" in result.extras
        assert "parallel_reads" in result.extras

    def test_cell_is_a_pure_function_of_its_key(self):
        """What lets the memo stand in for a run: same key, same values."""
        first = run_cell("hoop", "vector", "smoke")
        experiments._CELL_CACHE.clear()
        second = run_cell("hoop", "vector", "smoke")
        assert first is not second
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_memo_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(experiments, "_CELL_CACHE_MAX", 2)
        oldest = run_cell("native", "queue", "smoke", seed=1)
        run_cell("native", "queue", "smoke", seed=2)
        # A hit refreshes seed 1, so seed 2 is now the least recently used.
        assert run_cell("native", "queue", "smoke", seed=1) is oldest
        run_cell("native", "queue", "smoke", seed=3)
        assert len(experiments._CELL_CACHE) == 2
        # Seed 2 fell out; seed 1, though older, survived.
        assert run_cell("native", "queue", "smoke", seed=1) is oldest
        key_2 = cell_key("native", "queue", "smoke", 2, 64, None, None)
        assert key_2 not in experiments._CELL_CACHE


class TestCellKey:
    def test_explicit_config_keys_by_field_values(self):
        cfg_a = SystemConfig.small()
        cfg_b = SystemConfig.small()
        key_a = cell_key("hoop", "vector", "smoke", 7, 64, cfg_a, None)
        key_b = cell_key("hoop", "vector", "smoke", 7, 64, cfg_b, None)
        assert cfg_a is not cfg_b
        assert key_a == key_b

        nvm = dataclasses.replace(cfg_b.nvm, read_latency_ns=999.0)
        key_c = cell_key(
            "hoop", "vector", "smoke", 7, 64, cfg_b.replace(nvm=nvm), None
        )
        assert key_c != key_a

    def test_no_extra_kwargs_is_one_key_and_seeds_differ(self):
        key_1 = cell_key("hoop", "vector", "smoke", 7, 64, None, None)
        key_2 = cell_key("hoop", "vector", "smoke", 7, 64, None, {})
        key_3 = cell_key("hoop", "vector", "smoke", 8, 64, None, None)
        assert key_1 == key_2
        assert key_1 != key_3


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


@pytest.mark.parametrize(
    "scale, expected", [("smoke", "results"), ("default", "results_default")]
)
def test_out_defaults_to_the_scales_own_directory(
    scale, expected, tmp_path, monkeypatch
):
    """Only a smoke run may land in ``results/``, which CI diffs."""
    from repro.harness import __main__ as cli

    monkeypatch.chdir(tmp_path)
    assert cli.main(["--scale", scale, "--only", "table1"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [expected]
    assert (tmp_path / expected / "table1.txt").exists()


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--no-cache"]])
def test_removed_flags_are_rejected(flag, tmp_path, capsys):
    from repro.harness import __main__ as cli

    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--only", "table1", "--out", str(tmp_path)] + flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
