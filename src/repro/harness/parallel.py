"""Fan the experiment matrix out over worker processes.

Cells are embarrassingly parallel: each builds its own
:class:`~repro.txn.system.MemorySystem` from scratch and every source of
randomness is seeded, so a cell computes the same
:class:`~repro.workloads.driver.RunResult` no matter which process runs
it.  :func:`run_matrix` exploits that with a ``ProcessPoolExecutor``
(fork start method — the workers inherit the imported simulator), then
seeds the in-process memo of :mod:`repro.harness.experiments` with the
returned results.  Figure runners executed afterwards hit the memo cell
for cell, so their output is identical to a sequential run's.

Workers and the parent both consult the on-disk cache
(:mod:`repro.harness.diskcache`), so a warm ``.bench_cache/`` makes the
fan-out skip simulation entirely regardless of ``jobs``.

Fault tolerance: one sick cell must not take down a thousand-cell
matrix.  Every cell gets ``1 + retries`` attempts with seeded
exponential backoff between rounds; a cell that exceeds ``timeout_s``
has its worker process killed (the pool is rebuilt — a hung fork holds
the GIL of nobody but itself, yet ``as_completed`` would wait forever);
cells that keep failing are *quarantined* — recorded on the report with
their final reason, while every healthy cell still completes.  Cells
that merely shared a pool with a hung neighbour are re-queued without
burning one of their attempts.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import BACKOFF_SEED, backoff_s
from repro.harness import diskcache, experiments
from repro.workloads.driver import RunResult


@dataclass(frozen=True)
class CellSpec:
    """One (scheme, workload) cell of the experiment matrix."""

    scheme: str
    workload: str
    scale: str = "default"
    seed: int = 7
    item_bytes: int = 64
    extra_kwargs: Tuple[Tuple[str, int], ...] = ()

    @property
    def name(self) -> str:
        return f"{self.scheme}/{self.workload}"

    def key(self) -> tuple:
        return experiments.cell_key(
            self.scheme,
            self.workload,
            self.scale,
            self.seed,
            self.item_bytes,
            None,
            dict(self.extra_kwargs),
        )


@dataclass
class CellTiming:
    """How one cell was satisfied."""

    name: str
    seconds: float
    source: str  # "computed", "memo", or "disk"


@dataclass
class QuarantinedCell:
    """A cell that exhausted its retry budget; the matrix carries on."""

    name: str
    attempts: int
    reason: str


@dataclass
class MatrixReport:
    """Outcome of one :func:`run_matrix` call."""

    scale: str
    jobs: int
    total_s: float = 0.0
    results: Dict[str, RunResult] = field(default_factory=dict)
    timings: List[CellTiming] = field(default_factory=list)
    quarantined: List[QuarantinedCell] = field(default_factory=list)
    retries_total: int = 0

    @property
    def computed(self) -> int:
        return sum(1 for t in self.timings if t.source == "computed")

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.timings if t.source in ("memo", "disk"))


def matrix_specs(scale: str, seed: int = 7) -> List[CellSpec]:
    """The full figure matrix: (native + persistence schemes) x workloads."""
    return [
        CellSpec(scheme, workload, scale, seed)
        for workload in experiments.MATRIX_WORKLOADS
        for scheme in ("native",) + experiments.PERSISTENCE_SCHEMES
    ]


def _run_spec(spec: CellSpec) -> dict:
    """Worker entry point: simulate one cell, return it as a plain dict."""
    result = experiments.run_cell(
        spec.scheme,
        spec.workload,
        spec.scale,
        seed=spec.seed,
        item_bytes=spec.item_bytes,
        extra_kwargs=dict(spec.extra_kwargs) or None,
    )
    return dataclasses.asdict(result)


def run_matrix(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
    *,
    use_cache: bool = True,
    timeout_s: Optional[float] = None,
    retries: int = 2,
    backoff_base_s: float = 0.05,
    worker=_run_spec,
) -> MatrixReport:
    """Run ``specs``, fanning cache misses out over ``jobs`` processes.

    Results land in the in-process memo (via
    :func:`experiments.seed_cache`) and the returned report, keyed by
    ``scheme/workload``.  ``jobs=None`` uses ``os.cpu_count()``;
    ``jobs<=1`` degrades to a plain sequential loop in this process.

    Fault tolerance: every cell gets ``1 + retries`` attempts with
    seeded exponential backoff between rounds.  With ``timeout_s`` set,
    a worker still running past its deadline is killed and the pool
    rebuilt; its cell is charged one attempt, while cells that merely
    shared the doomed pool are re-queued for free.  A cell that burns
    all attempts lands in ``report.quarantined`` (with its final
    failure reason) instead of failing the whole matrix — the caller
    decides whether missing cells are fatal.  ``timeout_s`` is only
    enforceable on the multi-process path; the sequential path still
    retries and quarantines raised exceptions.  ``worker`` exists for
    tests (inject hangs/crashes); it must be a picklable module-level
    callable returning ``dataclasses.asdict`` of a ``RunResult``.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    scale = specs[0].scale if specs else "default"
    report = MatrixReport(scale=scale, jobs=jobs)
    started = time.perf_counter()
    rng = random.Random(BACKOFF_SEED)

    pending: List[CellSpec] = []
    for spec in specs:
        key = spec.key()
        probe_start = time.perf_counter()
        if use_cache and key in experiments._CELL_CACHE:
            report.results[spec.name] = experiments._CELL_CACHE[key]
            report.timings.append(
                CellTiming(spec.name, time.perf_counter() - probe_start, "memo")
            )
            continue
        if use_cache:
            cached = diskcache.load(key)
            if cached is not None:
                result = RunResult(**cached)
                experiments.seed_cache(key, result)
                report.results[spec.name] = result
                report.timings.append(
                    CellTiming(
                        spec.name, time.perf_counter() - probe_start, "disk"
                    )
                )
                continue
        pending.append(spec)

    def _record(spec: CellSpec, result: RunResult, elapsed: float) -> None:
        experiments.seed_cache(spec.key(), result)
        if use_cache:
            diskcache.store(spec.key(), result)
        report.results[spec.name] = result
        report.timings.append(CellTiming(spec.name, elapsed, "computed"))

    # queue holds (spec, attempts_used); a cell is quarantined once its
    # attempts reach 1 + retries.
    def _failed(
        spec: CellSpec, attempts: int, reason: str, queue: list
    ) -> float:
        """Charge one failed attempt; returns the backoff delay (0 if
        the cell was quarantined instead of re-queued)."""
        if attempts >= 1 + retries:
            report.quarantined.append(
                QuarantinedCell(spec.name, attempts, reason)
            )
            report.timings.append(CellTiming(spec.name, 0.0, "quarantined"))
            return 0.0
        report.retries_total += 1
        queue.append((spec, attempts))
        return backoff_s(attempts, backoff_base_s, rng)

    if pending and jobs > 1:
        _run_parallel_rounds(
            pending, jobs, worker, timeout_s, _record, _failed
        )
    else:
        for spec in pending:
            attempts = 0
            while True:
                attempts += 1
                cell_start = time.perf_counter()
                try:
                    result = experiments.run_cell(
                        spec.scheme,
                        spec.workload,
                        spec.scale,
                        seed=spec.seed,
                        item_bytes=spec.item_bytes,
                        extra_kwargs=dict(spec.extra_kwargs) or None,
                        use_cache=use_cache,
                    )
                except Exception as exc:  # noqa: BLE001 — quarantine path
                    delay = _failed(
                        spec, attempts, f"cell raised: {exc!r}", []
                    )
                    if attempts >= 1 + retries:
                        break
                    time.sleep(delay)
                    continue
                report.results[spec.name] = result
                report.timings.append(
                    CellTiming(
                        spec.name,
                        time.perf_counter() - cell_start,
                        "computed",
                    )
                )
                break

    report.total_s = time.perf_counter() - started
    return report


def _run_parallel_rounds(
    pending: List[CellSpec],
    jobs: int,
    worker,
    timeout_s: Optional[float],
    record,
    failed,
) -> None:
    """Round-based pool execution with deadlines and retry re-queues.

    Each round submits every queued cell to a fresh fork pool and waits
    with a per-future deadline.  A deadline miss kills the straggler's
    worker processes (a hung cell would otherwise block ``shutdown``
    forever) and abandons the pool; completed cells keep their results,
    the hung cell is charged an attempt, and innocent still-running
    cells are re-queued without charge.
    """
    context = multiprocessing.get_context("fork")
    queue: List[Tuple[CellSpec, int]] = [(spec, 0) for spec in pending]
    while queue:
        round_specs, queue = queue, []
        max_delay = 0.0
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(round_specs)), mp_context=context
        )
        futures = {}
        for spec, attempts in round_specs:
            futures[pool.submit(worker, spec)] = (
                spec,
                attempts,
                time.perf_counter(),
            )
        not_done = set(futures)
        hung: List[concurrent.futures.Future] = []
        while not_done:
            wait_s = None
            if timeout_s is not None:
                now = time.perf_counter()
                wait_s = max(
                    0.0,
                    min(futures[f][2] + timeout_s for f in not_done) - now,
                )
            done, not_done = concurrent.futures.wait(
                not_done, timeout=wait_s
            )
            for future in done:
                spec, attempts, submit_time = futures[future]
                try:
                    result = RunResult(**future.result())
                except Exception as exc:  # noqa: BLE001 — quarantine path
                    max_delay = max(
                        max_delay,
                        failed(
                            spec,
                            attempts + 1,
                            f"worker raised: {exc!r}",
                            queue,
                        ),
                    )
                    continue
                record(spec, result, time.perf_counter() - submit_time)
            if timeout_s is not None and not_done:
                now = time.perf_counter()
                hung = [
                    f
                    for f in not_done
                    if now >= futures[f][2] + timeout_s
                ]
                if hung:
                    break
        if hung:
            # The pool is poisoned: kill its workers so shutdown cannot
            # block on the hung cell, then rebuild next round.
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.kill()
            pool.shutdown(wait=False, cancel_futures=True)
            for future in hung:
                spec, attempts, submit_time = futures[future]
                max_delay = max(
                    max_delay,
                    failed(
                        spec,
                        attempts + 1,
                        f"timed out after {timeout_s:.1f}s",
                        queue,
                    ),
                )
            for future in not_done - set(hung):
                spec, attempts, _ = futures[future]
                queue.append((spec, attempts))  # innocent: free re-run
        else:
            pool.shutdown(wait=True)
        if queue and max_delay > 0.0:
            time.sleep(max_delay)
