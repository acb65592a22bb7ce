"""Incremental replay built on snapshot forks.

A workload is data: a list of :data:`TxnRecord` bound to heap addresses
once, and :func:`run_txns` is the one loop that executes it until done
or power loss — on a fresh machine (artifact ``--replay``), on the
cursor's probe and its live machine, and in the fuzzer's prefix cache.
A fork never executes a transaction.

Two consumers turn :mod:`repro.snapshot` clones into incremental
replay:

* the **crash-point sweeps** (:mod:`repro.crashtest`, its nested sweep,
  and the oracle's crash-convergence phase in :mod:`repro.check.oracle`)
  share one :class:`ForwardCursor`: a single live, fault-free machine
  that runs the recorded workload forward exactly once and is *forked*
  inside every cut write, so no case re-executes the prefix another
  case already paid for;
* the fuzzer's delta-debugging shrinker (:mod:`repro.check.fuzz`)
  replays hundreds of near-identical transaction lists; a
  :class:`TraceReplayCache` memoizes a snapshot per replayed prefix so
  each ddmin candidate only executes the transactions after its longest
  already-seen prefix.

Crash boundaries are expressed in the device's cumulative *timed-write*
count: boundary ``b`` means the ``b``-th successful write is the last
one, so write ``b + 1`` is the power-cut instant.  The cursor is told
its ascending boundaries up front and forks the live machine *inside*
that write: the device calls the cursor's hook when its write count
reaches the next boundary, before the fault injector's verdict, and the
hook copies what survives power loss there
(:func:`~repro.snapshot.power_cut`).  :meth:`ForwardCursor.crash_at`
rearms that image with a zero write budget and re-issues the write,
which tears and raises exactly as it does in a cold run.  No
transaction is ever re-run on a fork.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import replace as _dc_replace
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.common.config import FaultConfig
from repro.common.errors import PowerLossError
from repro.snapshot import Snapshot, clone_state, power_cut

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
    return oracle, staged, _run_into(system, txns, oracle, staged)


def _run_into(
    system: Any,
    txns: Iterable[TxnRecord],
    oracle: Dict[int, bytes],
    staged: Dict[int, bytes],
) -> bool:
    """:func:`run_txns`'s loop over caller-owned dicts; True on power loss."""
    try:
        for core, stores in txns:
            with system.transaction(core) as tx:
                for addr, value in stores:
                    tx.store(addr, value)
                    staged[addr] = value
            oracle.update(staged)
            staged.clear()
    except PowerLossError:
        return True
    return False


# A fork the live machine's hook took, waiting for its ``crash_at``: the
# boundary, the clone, the cut write's ``(addr, data, now_ns, queued)``,
# and copies of the committed oracle and the open transaction's stores.
_Fork = Tuple[int, Any, Tuple[int, bytes, float, bool], Dict, Dict]


class ForwardCursor:
    """One fault-free machine run forward once, forked at each boundary.

    ``system`` must sit *before* ``txns[0]`` (built, heap allocated, no
    fault armed) on a fault-injecting device.  Construction forks it and
    runs the whole list on the fork — the probe — recording only
    ``total_writes``.  :meth:`expect` announces the ascending boundaries
    :meth:`crash_at` will be asked for, in that order; the live machine
    then runs forward only as far as the next boundary needs, and its
    device's fork hook takes a power-cut image inside each cut write.
    """

    def __init__(self, system: Any, txns: List[TxnRecord]) -> None:
        self._system = system
        self._txns = txns
        self._next = 0  # the transaction the live machine runs next
        self._oracle: Dict[int, bytes] = {}  # committed word -> value
        self._staged: Dict[int, bytes] = {}  # the open transaction's stores
        self._last_boundary = 0  # the last one crash_at was given
        self._last_announced = 0  # the last one expect was given
        # Writes issued before txns[0]: no boundary below can be forked.
        self._first = system.device.stats.writes
        self._expected: Deque[int] = deque()  # announced, not yet forked
        self._forks: Deque[_Fork] = deque()  # forked, not yet asked for
        probe = Snapshot(system).restore()
        run_txns(probe, txns)
        self.total_writes: int = probe.device.stats.writes

    def expect(self, boundaries: Iterable[int]) -> None:
        """Announce the next boundaries :meth:`crash_at` will be given.

        They must ascend from the last one announced (repeats allowed:
        each gets its own fork).  Boundaries below the first
        transaction's starting count are skipped — :meth:`crash_at`
        answers them with ``None``.
        """
        for boundary in boundaries:
            if boundary < self._last_announced:
                raise ValueError(
                    "crash boundaries must ascend: "
                    f"{boundary} < {self._last_announced}"
                )
            self._last_announced = boundary
            if boundary >= self._first:
                self._expected.append(boundary)

    def crash_at(
        self, faults: FaultConfig
    ) -> Optional[Tuple[Any, Dict[int, bytes], Dict[int, bytes], bool]]:
        """The machine at ``faults``' power cut, from a fork of the live one.

        ``faults.power_loss_after_write`` must be the next announced
        boundary.  Returns ``(system, oracle, staged, power_lost)``,
        which once ``system`` is crashed equal what :func:`run_txns`
        under ``faults`` on a fresh machine leaves before ``crash()``.
        ``None`` when the boundary lies below the first transaction's
        starting count (possible only if system construction itself
        issued timed writes); callers fall back to a fresh machine.
        """
        boundary = faults.power_loss_after_write
        if boundary < self._last_boundary:
            raise ValueError(
                "crash boundaries must ascend: "
                f"{boundary} < {self._last_boundary}"
            )
        self._last_boundary = boundary
        if boundary < self._first:
            return None
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
            # Past the last write: the finished machine, with the budget
            # the rest of the boundary leaves armed and never reached.
            assert boundary >= self.total_writes, "a boundary was skipped"
            fork = power_cut(self._system)
            fork.device.rearm(
                _dc_replace(
                    faults, power_loss_after_write=boundary - self.total_writes
                )
            )
            return fork, dict(self._oracle), {}, False
        fork.device.rearm(_dc_replace(faults, power_loss_after_write=0))
        addr, data, now_ns, queued = cut
        try:
            fork.device.write(addr, data, now_ns, queued=queued)
        except PowerLossError:
            return fork, oracle, staged, True
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
                _run_into(live, self._txns[index : index + 1], oracle, staged)
        finally:
            injector.fork_at = None
            injector.fork_hook = None


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
