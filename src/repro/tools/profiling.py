"""The one ``--profile PATH`` every CLI shares.

``python -m repro.harness``, ``repro.crashtest``, ``repro.check`` and
``repro.serve`` all take ``--profile PATH`` and wrap their run in
:func:`profile_to`.  This is a candidate finder, not a measurement:
cProfile taxes every Python call, so wall-clock numbers come from
``perf/run.py`` with profiling off (``docs/internals.md``,
"Performance").
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pathlib
import pstats
from typing import Iterator, Optional

TOP_FUNCTIONS = 40


def add_profile_argument(parser: argparse.ArgumentParser) -> None:
    """Give ``parser`` the shared ``--profile PATH`` flag and its epilog."""
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="cProfile the run; the top functions by cumulative time"
        " are written to PATH",
    )
    parser.epilog = (
        "--profile finds candidates; measure with perf/run.py"
        " (docs/internals.md, 'Performance')."
    )


@contextlib.contextmanager
def profile_to(path: Optional[str]) -> Iterator[None]:
    """Profile the ``with`` block; write the cumulative table to ``path``.

    A no-op when ``path`` is ``None``.  Parent directories are created,
    and the table is written even when the block raises (the exception
    propagates): a run that dies is often the one worth profiling.
    """
    if path is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        table = io.StringIO()
        stats = pstats.Stats(profiler, stream=table)
        stats.sort_stats("cumulative").print_stats(TOP_FUNCTIONS)
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table.getvalue())
