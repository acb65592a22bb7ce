"""The repository's benchmark: see ``perf/README.md``.

A package so that ``perf/trace.py`` is imported as ``perf.trace`` and
never shadows the standard library's ``trace`` module.  Importing it
puts the repository's ``src/`` on ``sys.path``, because the benchmark
command (``python3 perf/run.py``) must work without ``PYTHONPATH``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
