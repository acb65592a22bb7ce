"""Incremental replay built on snapshot forks.

A workload is data: a list of :data:`TxnRecord` bound to heap addresses
once, and :func:`run_txns` is the one loop that executes it until done
or power loss — on a fresh machine (artifact ``--replay``), on the
cursor's live machine, on its forks, and in the fuzzer's prefix cache.

Two consumers turn :mod:`repro.snapshot` clones into incremental
replay:

* the **crash-point sweeps** (:mod:`repro.crashtest`, its nested sweep,
  and the oracle's crash-convergence phase in :mod:`repro.check.oracle`)
  share one :class:`ForwardCursor`: a single live, fault-free machine
  that runs the recorded workload forward exactly once and is *forked*
  at every crash boundary, so no case re-executes the prefix another
  case already paid for;
* the fuzzer's delta-debugging shrinker (:mod:`repro.check.fuzz`)
  replays hundreds of near-identical transaction lists; a
  :class:`TraceReplayCache` memoizes a snapshot per replayed prefix so
  each ddmin candidate only executes the transactions after its longest
  already-seen prefix.

Crash boundaries are expressed in the device's cumulative *timed-write*
count: boundary ``b`` means the ``b``-th successful write is the last
one.  A fork can only be taken between transactions, so the cursor
stops the live machine before the latest transaction ``t`` that starts
at or below the boundary (``writes_before[t] <= b``) and arms the fork
with the residual budget ``b - writes_before[t]`` — zero residual means
the very next write dies, the boundary-equals-a-transaction's-starting-
count case.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import replace as _dc_replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.config import FaultConfig
from repro.common.errors import PowerLossError
from repro.snapshot import Snapshot, clone_state

# One recorded workload transaction: issuing core plus its ordered
# (addr, value) stores, duplicates preserved — everything a replay needs
# to re-execute the transaction without consuming workload RNG.
TxnRecord = Tuple[int, List[Tuple[int, bytes]]]


def run_txns(
    system: Any, txns: Iterable[TxnRecord]
) -> Tuple[Dict[int, bytes], Dict[int, bytes], bool]:
    """Run ``txns`` on ``system`` until done or power loss.

    Returns ``(oracle, staged, power_lost)``: ``oracle`` holds the words
    of transactions whose ``with`` block exited (commit returned),
    duplicates collapsed last-wins; ``staged`` those of the one that was
    open — or mid-commit, or whose post-commit GC tick died — when the
    power failed (empty when every transaction ran).  The verifier
    decides which side of the commit point that transaction landed on.
    """
    oracle: Dict[int, bytes] = {}
    staged: Dict[int, bytes] = {}
    try:
        for core, stores in txns:
            with system.transaction(core) as tx:
                for addr, value in stores:
                    tx.store(addr, value)
                    staged[addr] = value
            oracle.update(staged)
            staged = {}
    except PowerLossError:
        return oracle, staged, True
    return oracle, staged, False


class ForwardCursor:
    """One fault-free machine run forward once, forked at each boundary.

    ``system`` must sit *before* ``txns[0]`` (built, heap allocated, no
    fault armed) on a fault-injecting device.  Construction forks it and
    runs the whole list on the fork — the probe — recording only
    ``writes_before[t]``, the timed-write count before transaction
    ``t``, and ``total_writes``.  :meth:`crash_at` then advances the
    live machine monotonically; boundaries must be asked for in
    ascending order.
    """

    def __init__(self, system: Any, txns: List[TxnRecord]) -> None:
        self._system = system
        self._txns = txns
        self._next = 0  # the transaction the live machine runs next
        self._oracle: Dict[int, bytes] = {}  # committed word -> value
        self._last_boundary = 0
        probe = Snapshot(system).restore()
        stats = probe.device.stats
        self.writes_before: List[int] = []
        for txn in txns:
            self.writes_before.append(stats.writes)
            run_txns(probe, (txn,))
        self.total_writes: int = stats.writes

    def crash_at(
        self, faults: FaultConfig
    ) -> Optional[Tuple[Any, Dict[int, bytes], Dict[int, bytes], bool]]:
        """Fork the machine and run it into ``faults``' power cut.

        Returns ``(system, oracle, staged, power_lost)`` exactly as
        :func:`run_txns` under ``faults`` on a fresh machine leaves them
        before ``crash()``.  ``None`` when the boundary lies below the
        first transaction's starting count (possible only if system
        construction itself issued timed writes); callers fall back to
        a fresh machine.
        """
        boundary = faults.power_loss_after_write
        if boundary < self._last_boundary:
            raise ValueError(
                "crash boundaries must ascend: "
                f"{boundary} < {self._last_boundary}"
            )
        self._last_boundary = boundary
        start = bisect_right(self.writes_before, boundary) - 1
        if start < 0:
            return None
        live = self._system
        committed, _, _ = run_txns(live, self._txns[self._next : start])
        self._oracle.update(committed)
        self._next = start  # never moves back: boundaries ascend
        fork = Snapshot(live).restore()
        # A fresh injector armed with the residual budget: its PRNG
        # matches the cold one bit-for-bit because nothing consumes it
        # before the cut.
        fork.device.rearm(
            _dc_replace(
                faults,
                power_loss_after_write=boundary - self.writes_before[start],
            )
        )
        oracle, staged, power_lost = run_txns(fork, self._txns[start:])
        return fork, {**self._oracle, **oracle}, staged, power_lost


class TraceReplayCache:
    """Snapshot-per-prefix cache for repeated transaction-list replays.

    Built for ddmin: every shrink candidate is some sublist of the
    original transactions, and candidates tried consecutively share long
    prefixes.  ``replay(txns)`` restores the snapshot of the longest
    cached prefix of ``txns``, applies only the remaining transactions
    (capturing each new prefix along the way), and returns the resulting
    state object.

    ``build()`` creates a fresh state (any snapshot-clonable object —
    the fuzzer uses a dict holding the system and its slot addresses);
    ``apply(state, txn)`` executes one transaction against it.  Keys are
    tuples of the transaction objects themselves, which must be hashable
    (the frozen :class:`~repro.check.trace.TraceTxn` records are).

    The cache is LRU-bounded at ``limit`` snapshots; the empty prefix is
    pinned so a fresh system never has to be rebuilt.
    """

    def __init__(
        self,
        build: Callable[[], Any],
        apply: Callable[[Any, Any], None],
        *,
        limit: int = 256,
    ) -> None:
        if limit < 1:
            raise ValueError("cache needs room for at least one snapshot")
        self._build = build
        self._apply = apply
        self._limit = limit
        self._snapshots: "OrderedDict[Tuple, Snapshot]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.replayed_txns = 0

    def _put(self, key: Tuple, snapshot: Snapshot) -> None:
        self._snapshots[key] = snapshot
        self._snapshots.move_to_end(key)
        while len(self._snapshots) > self._limit:
            for candidate in self._snapshots:
                if candidate != ():  # keep the base system pinned
                    del self._snapshots[candidate]
                    break
            else:
                break

    def replay(self, txns, *, record: bool = True) -> Any:
        """State after executing ``txns``, reusing the longest prefix.

        ``record=False`` still restores from the best cached prefix but
        does not snapshot the new prefixes it executes — the right mode
        for one-off scoring runs (e.g. fresh fuzz iterations) whose
        prefixes no later replay will share; capturing a snapshot per
        transaction would cost more than it saves there.
        """
        txns = tuple(txns)
        state = None
        start = 0
        for length in range(len(txns), -1, -1):
            snapshot = self._snapshots.get(txns[:length])
            if snapshot is not None:
                self._snapshots.move_to_end(txns[:length])
                state = snapshot.restore()
                start = length
                self.hits += 1
                break
        if state is None:
            self.misses += 1
            state = self._build()
            self._put((), Snapshot(clone_state(state)))
        for index in range(start, len(txns)):
            self._apply(state, txns[index])
            self.replayed_txns += 1
            if record:
                self._put(txns[: index + 1], Snapshot(clone_state(state)))
        return state
