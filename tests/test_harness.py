"""The experiment harness: scales, cells, tables, reports, claims."""

import dataclasses
import pathlib
import re

import pytest

from repro.common.config import SystemConfig
from repro.harness import experiments
from repro.harness.__main__ import RUNNERS
from repro.harness.claims import CLAIMS
from repro.harness.experiments import (
    SCALES,
    cell_key,
    get_scale,
    run_cell,
    run_table1,
)
from repro.stats.report import FigureData, format_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIRS = ("results", "results_default")


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


@pytest.mark.parametrize(
    "flag", [["--jobs", "2"], ["--no-cache"], ["--faults"]]
)
def test_removed_flags_are_rejected(flag, tmp_path, capsys):
    from repro.harness import __main__ as cli

    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--only", "table1", "--out", str(tmp_path)] + flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- every figure has a golden and a claim ---------------------------------


@pytest.mark.parametrize("golden_dir", GOLDEN_DIRS)
def test_every_runner_has_a_golden_and_every_golden_a_runner(golden_dir):
    stems = {path.stem for path in (ROOT / golden_dir).glob("*.txt")}
    assert stems == set(RUNNERS)


def test_every_runner_has_claims():
    assert set(CLAIMS) == set(RUNNERS)


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text.replace(",", ""))
        except ValueError:
            pass
    return text


def _golden(golden_dir, name):
    """A committed figure parsed back into a :class:`FigureData`."""
    path = ROOT / golden_dir / f"{name}.txt"
    header, columns, rule, *lines = path.read_text().splitlines()
    spans = [match.span() for match in re.finditer("-+", rule)]
    figure, title = header.strip("= ").split(": ", 1)
    fig = FigureData(figure, title, [columns[a:b].strip() for a, b in spans])
    for line in lines:
        if not line.startswith("  note: "):
            fig.add_row(*(_cell(line[a:b].strip()) for a, b in spans))
    return fig


def _set(fig, row, column, value=None, like_row=None):
    """Set one cell, to ``value`` or to the same column of ``like_row``."""
    index = fig.columns.index(column)
    source = fig.rows[like_row][index] if value is None else value
    fig.rows[row][index] = source


def _swap_geomeans(fig, a, b):
    row, i, j = fig.rows[-1], fig.columns.index(a), fig.columns.index(b)
    row[i], row[j] = row[j], row[i]


# One doctoring per figure, each breaking one of its claims.
DOCTORED = {
    "table1": lambda fig: _set(fig, 0, "On critical path", "Yes"),
    "fig7a": lambda fig: _swap_geomeans(fig, "hoop", "opt-redo"),
    "fig7b": lambda fig: _set(fig, -1, "opt-undo", 0.5),
    "fig8": lambda fig: _set(fig, -1, "opt-redo (xHOOP)", 1.0),
    "fig9": lambda fig: _set(fig, -1, "opt-undo (xHOOP)", 1.0),
    "table4": lambda fig: _set(fig, -1, "hashmap", 0.4),
    "fig10": lambda fig: _set(fig, 0, "on-demand GCs", 10**6),
    "fig11": lambda fig: _set(fig, -1, "25 GB/s (ms)", 250.0),
    "fig12": lambda fig: fig.rows.reverse(),
    "fig13": lambda fig: _set(fig, 0, "tx/ms", 0.0),
    "datasets": lambda fig: _set(fig, 0, "traffic ratio", 0.5),
    "threads": lambda fig: _set(fig, -1, "hoop", like_row=0),
    "regions": lambda fig: _set(fig, -1, "on-demand GCs", 10**6),
    "profile": lambda fig: _set(fig, 0, "parallel-read fraction", 0.9),
    "ablation_packing": lambda fig: _set(fig, 1, "B/tx", like_row=0),
    "ablation_coalescing": lambda fig: _set(fig, 1, "B/tx", like_row=0),
    "ablation_condensing": lambda fig: _set(
        fig, 1, "peak entries", like_row=0
    ),
    # The last row is the last scheme's "reads failed".
    "faults": lambda fig: _set(fig, -1, "Value", 1),
}


@pytest.mark.parametrize("golden_dir", GOLDEN_DIRS)
@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_committed_figure_meets_its_claims(golden_dir, name):
    assert CLAIMS[name](_golden(golden_dir, name)) == []


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_claims_catch_a_doctored_figure(name):
    fig = _golden("results", name)
    DOCTORED[name](fig)
    assert CLAIMS[name](fig)


def test_fig7a_names_the_broken_claim():
    fig = _golden("results", "fig7a")
    DOCTORED["fig7a"](fig)
    assert CLAIMS["fig7a"](fig)[0].startswith("hoop 1.000 > opt-redo ")


def test_a_broken_claim_fails_the_run_after_writing(
    tmp_path, monkeypatch, capsys
):
    from repro.harness import __main__ as cli

    def doctored_table1():
        fig = run_table1()
        DOCTORED["table1"](fig)
        return fig

    monkeypatch.setattr(experiments, "run_table1", doctored_table1)
    out = tmp_path / "figures"
    argv = ["--scale", "smoke", "--only", "table1", "--out", str(out)]
    assert cli.main(argv) == 1
    written = (out / "table1.txt").read_text()
    assert written == doctored_table1().render() + "\n"
    err = capsys.readouterr().err
    assert "table1: claim failed: hoop On critical path is No" in err
