"""The shared ``--profile PATH``: the helper and the four CLIs that use it."""

import importlib

import pytest

from repro.tools.profiling import profile_to


def _busy():
    return sum(i * i for i in range(2000))


def test_writes_a_table_and_creates_parent_directories(tmp_path):
    out = tmp_path / "deep" / "er" / "profile.txt"
    with profile_to(str(out)):
        _busy()
    text = out.read_text()
    assert "cumulative" in text
    assert "_busy" in text


def test_still_writes_when_the_block_raises_and_reraises(tmp_path):
    out = tmp_path / "profile.txt"
    with pytest.raises(KeyError, match="boom"):
        with profile_to(str(out)):
            _busy()
            raise KeyError("boom")
    assert "_busy" in out.read_text()


def test_no_path_is_a_no_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with profile_to(None):
        assert _busy() > 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "module, argv",
    [
        (
            "repro.harness.__main__",
            "--scale smoke --only table1 --out {tmp}/figures",
        ),
        (
            "repro.crashtest.__main__",
            "--schemes hoop --sample 4 --transactions 12"
            " --artifact-dir {tmp}/artifacts",
        ),
        ("repro.check.__main__", "--schemes hoop --crash-sample 2"),
        ("repro.serve.__main__", "--shards 1 --duration-ms 1"),
    ],
)
def test_every_cli_takes_profile_path(module, argv, tmp_path, capsys):
    main = importlib.import_module(module).main
    out = tmp_path / "profiles" / "run.txt"
    args = argv.format(tmp=tmp_path).split()
    assert main(args + ["--profile", str(out)]) == 0
    assert "cumulative" in out.read_text()
    with pytest.raises(SystemExit):
        main(args + ["--profile"])  # the old boolean form is gone
    assert "expected one argument" in capsys.readouterr().err


def test_harness_writes_only_the_figure_text(tmp_path):
    from repro.harness.__main__ import main

    out = tmp_path / "figures"
    assert main(["--scale", "smoke", "--only", "table1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["table1.txt"]
