"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark regenerates one paper figure/table at the scale named by
``REPRO_SCALE`` (default ``smoke`` so ``pytest benchmarks/`` finishes in
minutes).  The rendered tables are printed and written where the harness
CLI would put them — ``results/`` at smoke scale, ``results_<scale>/``
otherwise — so a benchmark run leaves the reproduced evaluation behind
as text without overwriting another scale's.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.experiments import get_scale


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_SCALE", "smoke")


@pytest.fixture(scope="session")
def results_dir(scale) -> pathlib.Path:
    root = pathlib.Path(__file__).resolve().parent.parent
    out = root / get_scale(scale).results_dir
    out.mkdir(exist_ok=True)
    return out


@pytest.fixture
def record_figure(results_dir, capsys):
    """Print a figure and persist its text rendering."""

    def _record(name: str, figure) -> None:
        text = figure.render()
        with capsys.disabled():
            print()
            print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record
