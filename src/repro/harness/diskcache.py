"""On-disk result cache for experiment cells.

Every simulated cell is deterministic in ``(code, scheme, workload,
scale, seed, item_bytes, config, extra_kwargs)``, so its
:class:`~repro.workloads.driver.RunResult` can be reused across
processes and across benchmark/pytest invocations.  Entries live under::

    .bench_cache/<code-fingerprint>/<key-digest>.json

The *code fingerprint* is a SHA-256 over every ``src/repro/**/*.py``
file (path + content), so any source edit — not just ones that change a
config — invalidates the whole cache directory at once.  Old fingerprint
directories are pruned lazily.  Invalidation is therefore conservative:
a stale hit is impossible as long as the simulation is deterministic,
which the seeded PRNGs guarantee.

Set ``REPRO_NO_CACHE=1`` to bypass the disk entirely (the in-process
memo in :mod:`repro.harness.experiments` still applies), and
``REPRO_BENCH_CACHE=<dir>`` to relocate the cache root (tests use a
temp dir).  All I/O failures degrade to cache misses — a read-only
checkout must never break a simulation — but abnormal ones (corrupt
entries, failed stores, failed prunes) are counted in
``CacheStats.degraded``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Optional

_SRC_ROOT = pathlib.Path(__file__).resolve().parents[1]  # src/repro
_REPO_ROOT = _SRC_ROOT.parents[1]
_KEEP_FINGERPRINTS = 3  # old code versions pruned beyond this many


@dataclass
class CacheStats:
    """Disk-cache traffic for one process."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    # I/O or decode failures the cache absorbed (corrupt entry, full or
    # read-only disk, permission error).  Each still degrades to a miss
    # or a skipped store — the simulation is unaffected — but a non-zero
    # count says the cache is not actually caching.
    degraded: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.degraded = 0


stats = CacheStats()

_fingerprint: Optional[str] = None


def enabled() -> bool:
    """Disk caching is on unless ``REPRO_NO_CACHE`` is set non-empty."""
    return not os.environ.get("REPRO_NO_CACHE")


def cache_root() -> pathlib.Path:
    override = os.environ.get("REPRO_BENCH_CACHE")
    if override:
        return pathlib.Path(override)
    return _REPO_ROOT / ".bench_cache"


def code_fingerprint() -> str:
    """SHA-256 over every tracked source file (memoized per process)."""
    global _fingerprint
    if _fingerprint is None:
        digest = hashlib.sha256()
        for path in sorted(_SRC_ROOT.rglob("*.py")):
            digest.update(str(path.relative_to(_SRC_ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()[:20]
    return _fingerprint


def key_digest(key: tuple) -> str:
    """Stable digest of a :func:`repro.harness.experiments.cell_key`.

    Cell keys are nested tuples of primitives, so ``repr`` is
    deterministic across processes (no ids, no unordered containers).
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()[:32]


def _entry_path(key: tuple) -> pathlib.Path:
    return cache_root() / code_fingerprint() / (key_digest(key) + ".json")


def load(key: tuple) -> Optional[dict]:
    """Fetch a cached cell as a plain dict, or None on any miss/error."""
    if not enabled():
        return None
    try:
        with open(_entry_path(key)) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        stats.misses += 1  # the ordinary cold-cache miss
        return None
    except (OSError, ValueError):
        # Unreadable or corrupt entry (torn concurrent write, bad disk):
        # a miss, but a counted abnormal one.
        stats.misses += 1
        stats.degraded += 1
        return None
    stats.hits += 1
    return payload.get("result")


def store(key: tuple, result) -> None:
    """Persist a finished cell (dataclass instance or plain dict)."""
    if not enabled():
        return
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        result = dataclasses.asdict(result)
    path = _entry_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        with open(tmp, "w") as fh:
            json.dump({"key": repr(key), "result": result}, fh)
        os.replace(tmp, path)  # atomic: concurrent workers can race here
        stats.stores += 1
        _prune()
    except OSError:
        # Read-only checkout or full disk: the result is simply not
        # cached; nothing to clean up beyond the counter (the tmp file,
        # if it was created, is inside the pruned cache dir).
        stats.degraded += 1


def _prune() -> None:
    """Drop cache directories for all but the newest code fingerprints."""
    root = cache_root()
    try:
        dirs = [p for p in root.iterdir() if p.is_dir()]
    except OSError:
        stats.degraded += 1
        return
    if len(dirs) <= _KEEP_FINGERPRINTS:
        return
    dirs.sort(key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in dirs[_KEEP_FINGERPRINTS:]:
        try:
            for entry in stale.iterdir():
                entry.unlink()
            stale.rmdir()
        except OSError:
            # Another worker may be pruning (or writing) concurrently;
            # the directory survives until the next prune.
            stats.degraded += 1
