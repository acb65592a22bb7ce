"""Incremental replay built on snapshot forks.

A workload is data (:mod:`repro.trace`): a list of
:data:`~repro.trace.TxnRecord` bound to heap addresses once, executed
by :func:`~repro.trace.run_txns`.  The crash-point sweeps
(:mod:`repro.crashtest`, its nested sweep, and the oracle's
crash-convergence phase in :mod:`repro.check.oracle`) share one
:class:`ForwardCursor`: a single live, fault-free machine that runs the
workload forward exactly once, through that same loop, and is *forked*
inside every cut write, so no case re-executes the prefix another case
already paid for.  A fork never executes a transaction.

Crash boundaries are expressed in the device's cumulative *timed-write*
count (a case's first cut): boundary ``b`` means the ``b``-th
successful write is the last one, so write ``b + 1`` is the power-cut
instant.  The cursor is told its ascending boundaries up front and
forks the live machine *inside* that write: the device calls the
cursor's hook when its write count reaches the next boundary, before
the fault injector's verdict, and the hook copies what survives power
loss there (:func:`~repro.snapshot.power_cut`).  :meth:`ForwardCursor.crash_at`
rearms that image with a zero write count and re-issues the write,
which tears and raises exactly as it does in a cold run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace as _dc_replace
from typing import Any, Deque, Dict, Iterable, List, Tuple

from repro.common.config import FaultConfig
from repro.common.errors import PowerLossError
from repro.snapshot import Snapshot, power_cut
from repro.trace import RunOutcome, TxnRecord, run_into, run_txns


# A fork the live machine's hook took, waiting for its ``crash_at``: the
# boundary, the clone, the cut write's ``(addr, data, now_ns, queued)``,
# and copies of the committed oracle and the open transaction's stores.
_Fork = Tuple[int, Any, Tuple[int, bytes, float, bool], Dict, Dict]


def _residual(faults: FaultConfig, writes: int) -> FaultConfig:
    """``faults`` with its first cut letting only ``writes`` more land."""
    first, *rest = faults.schedule
    return _dc_replace(
        faults, schedule=(_dc_replace(first, at=writes), *rest)
    )


class ForwardCursor:
    """One fault-free machine run forward once, forked at each boundary.

    ``system`` must sit *before* ``txns[0]`` (built, heap allocated, no
    fault armed, no timed write issued yet, else ``ValueError``) on a
    fault-injecting device, so that every boundary lies inside the
    workload.  Construction forks it and runs the whole list on the
    fork — the probe — recording only ``total_writes``.  :meth:`expect`
    announces the ascending boundaries :meth:`crash_at` will be asked
    for, in that order; the live machine then runs forward only as far
    as the next boundary needs, and its device's fork hook takes a
    power-cut image inside each cut write.
    """

    def __init__(self, system: Any, txns: List[TxnRecord]) -> None:
        if system.device.stats.writes:
            raise ValueError(
                "the cursor's machine issued timed writes before txns[0]"
            )
        self._system = system
        self._txns = txns
        self._next = 0  # the transaction the live machine runs next
        self._oracle: Dict[int, bytes] = {}  # committed word -> value
        self._staged: Dict[int, bytes] = {}  # the open transaction's stores
        self._last_boundary = 0  # the last one crash_at was given
        self._last_announced = 0  # the last one expect was given
        self._expected: Deque[int] = deque()  # announced, not yet forked
        self._forks: Deque[_Fork] = deque()  # forked, not yet asked for
        probe = Snapshot(system).restore()
        run_txns(probe, txns)
        self.total_writes: int = probe.device.stats.writes

    def expect(self, boundaries: Iterable[int]) -> None:
        """Announce the next boundaries :meth:`crash_at` will be given.

        They must ascend from the last one announced (repeats allowed:
        each gets its own fork).
        """
        for boundary in boundaries:
            if boundary < self._last_announced:
                raise ValueError(
                    "crash boundaries must ascend: "
                    f"{boundary} < {self._last_announced}"
                )
            self._last_announced = boundary
            self._expected.append(boundary)

    def crash_at(self, faults: FaultConfig) -> Tuple[Any, RunOutcome]:
        """The machine at ``faults``' power cut, from a fork of the live one.

        The ``at`` of ``faults``' first cut must be the next announced
        boundary; the fork keeps the rest of the schedule.  Returns
        ``(system, outcome)``, which once ``system`` is crashed equal
        what :func:`~repro.trace.run_txns` under ``faults`` on a fresh
        machine leaves before ``crash()``.
        """
        boundary = faults.schedule[0].at
        if boundary < self._last_boundary:
            raise ValueError(
                "crash boundaries must ascend: "
                f"{boundary} < {self._last_boundary}"
            )
        self._last_boundary = boundary
        if not self._forks:
            self._advance()
        if self._forks:
            at, fork, cut, oracle, staged = self._forks.popleft()
        else:
            at = self._expected.popleft() if self._expected else None
            cut = None
        if at != boundary:
            raise ValueError(
                f"crash boundary {boundary} was not announced next "
                f"(expected {at})"
            )
        if cut is None:
            # Past the last write: the finished machine, with the cut
            # the rest of the boundary leaves armed and never reached.
            assert boundary >= self.total_writes, "a boundary was skipped"
            fork = power_cut(self._system)
            fork.device.rearm(_residual(faults, boundary - self.total_writes))
            return fork, RunOutcome(dict(self._oracle), {}, False)
        fork.device.rearm(_residual(faults, 0))
        addr, data, now_ns, queued = cut
        try:
            fork.device.write(addr, data, now_ns, queued=queued)
        except PowerLossError:
            return fork, RunOutcome(oracle, staged, True)
        raise AssertionError("the re-issued cut write did not lose power")

    def _advance(self) -> None:
        """Run the live machine until the next boundary is forked.

        Whole transactions at a time, so one transaction may fork
        several boundaries; stops early once it has any.
        """
        expected = self._expected
        if not expected or self._next >= len(self._txns):
            return
        live = self._system
        injector = live.device.injector
        forks = self._forks
        oracle, staged = self._oracle, self._staged

        # A plain function, not a bound method: the injector holds it,
        # and a clone of the machine must not drag the cursor, its
        # pending forks and their clones along with it.
        def fork_here(addr, data, now_ns, queued):
            writes = injector.fork_at
            fork = power_cut(live)
            cut = (addr, bytes(data), now_ns, queued)
            while expected and expected[0] == writes:
                expected.popleft()
                forks.append((writes, fork, cut, dict(oracle), dict(staged)))
                if expected and expected[0] == writes:
                    fork = power_cut(live)
            injector.fork_at = expected[0] if expected else None

        injector.fork_at = expected[0]
        injector.fork_hook = fork_here
        try:
            while not forks and self._next < len(self._txns):
                index = self._next
                self._next += 1
                run_into(live, self._txns[index : index + 1], oracle, staged)
        finally:
            injector.fork_at = None
            injector.fork_hook = None
