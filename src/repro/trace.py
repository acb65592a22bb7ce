"""A workload as data: transaction records and the one loop that runs them.

HOOP is evaluated on recorded transactional workloads.  Here a workload
is a list of :data:`TxnRecord` — the issuing core and the ordered
``(addr, bytes)`` stores of one committed transaction — bound to heap
addresses once.  Records come from one of two places:

* :class:`RecordingSystem` keeps every transaction a live workload
  commits; callers slice setup off with ``txns[mark:]``;
* :func:`generate_trace` draws a seeded :class:`Trace` over symbolic
  heap slots: the crash sweep's workload, and the differential
  oracle's and the fuzzer's, whose shrinker cuts it down because it is
  plain data.

:func:`run_txns` is the one loop that executes records: on a fresh
machine (artifact ``--replay``, the checker's traces, a recording
replayed under another scheme) and on the forward cursor's probe and
live machine (:mod:`repro.snapshot.replay`).  A record holds no loads,
so a replay re-executes the stores only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.common.errors import PowerLossError
from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction

# One recorded workload transaction: issuing core plus its ordered
# (addr, value) stores, duplicates preserved — everything a replay needs
# to re-execute the transaction without consuming workload RNG.
TxnRecord = Tuple[int, List[Tuple[int, bytes]]]


class RunOutcome(NamedTuple):
    """One workload execution until done or power loss (see ``run_txns``)."""

    oracle: Dict[int, bytes]  # committed word -> value
    staged: Dict[int, bytes]  # in-flight transaction's words (may be {})
    power_lost: bool


def run_txns(system: MemorySystem, txns: Iterable[TxnRecord]) -> RunOutcome:
    """Run ``txns`` on ``system`` until done or power loss.

    ``oracle`` holds the words of transactions whose ``with`` block
    exited (commit returned), duplicates collapsed last-wins; ``staged``
    those of the one that was open — or mid-commit, or whose post-commit
    GC tick died — when the power failed (empty when every transaction
    ran).  The verifier decides which side of the commit point that
    transaction landed on.
    """
    oracle: Dict[int, bytes] = {}
    staged: Dict[int, bytes] = {}
    return RunOutcome(oracle, staged, run_into(system, txns, oracle, staged))


def run_into(
    system: MemorySystem,
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


class RecordingSystem(MemorySystem):
    """A :class:`MemorySystem` that keeps each committed transaction.

    ``txns`` gains one :data:`TxnRecord` per transaction whose commit
    returned, in commit order.  Timing, caching and persistence are the
    plain system's.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.txns: List[TxnRecord] = []
        self._open: Dict[int, List[Tuple[int, bytes]]] = {}

    def _begin(self, tx: Transaction) -> None:
        super()._begin(tx)
        self._open[tx.core] = []

    def _store(self, tx: Transaction, addr: int, data: bytes) -> None:
        super()._store(tx, addr, data)
        self._open[tx.core].append((addr, bytes(data)))

    def _end(self, tx: Transaction) -> None:
        super()._end(tx)
        self.txns.append((tx.core, self._open.pop(tx.core)))


# -- seeded traces ------------------------------------------------------------
# Addresses are *symbolic* here: a store names ``(slot, offset)`` where
# ``slot`` indexes a 64-byte heap object allocated at replay time and
# ``offset`` is a word index within it.  Heap allocation is
# deterministic, so a trace binds to the same addresses on every scheme.

SLOT_BYTES = 64
WORDS_PER_SLOT = SLOT_BYTES // 8
MAX_STORES = 6  # a generated transaction stores 1..MAX_STORES words


@dataclass(frozen=True)
class TraceStore:
    """One transactional word store: ``slots[slot] + 8*offset = value``."""

    slot: int
    offset: int
    value: int  # unsigned 64-bit

    def render(self) -> str:
        """One-line human form for shrunk-trace reports."""
        return f"store slot{self.slot}+{8 * self.offset} <- {self.value:#x}"


@dataclass(frozen=True)
class TraceTxn:
    """One transaction: the issuing core and its ordered stores."""

    core: int
    stores: Tuple[TraceStore, ...]

    def record(self, slot_addrs: Sequence[int]) -> TxnRecord:
        """This transaction with its slots bound to heap addresses."""
        return (
            self.core,
            [
                (
                    slot_addrs[store.slot] + 8 * store.offset,
                    store.value.to_bytes(8, "little"),
                )
                for store in self.stores
            ],
        )


@dataclass(frozen=True)
class Trace:
    """A replayable seeded workload."""

    seed: int
    slots: int
    cores: int
    txns: Tuple[TraceTxn, ...]

    @property
    def num_events(self) -> int:
        """Trace size as the shrinker reports it: begins + stores."""
        return len(self.txns) + sum(len(t.stores) for t in self.txns)

    def records(self, slot_addrs: Sequence[int]) -> List[TxnRecord]:
        """The whole trace bound to heap addresses, ready to run."""
        return [txn.record(slot_addrs) for txn in self.txns]

    def with_txns(self, txns: Sequence[TraceTxn]) -> "Trace":
        """A copy with a different transaction list (shrinker primitive)."""
        return replace(self, txns=tuple(txns))

    def render(self) -> str:
        """Full trace listing, one line per transaction and store."""
        lines = [
            f"trace seed={self.seed} slots={self.slots}"
            f" txns={len(self.txns)} events={self.num_events}"
        ]
        for i, txn in enumerate(self.txns):
            lines.append(f"  txn[{i}] core={txn.core}")
            lines.extend(f"    {store.render()}" for store in txn.stores)
        return "\n".join(lines)


def generate_trace(
    seed: int,
    *,
    transactions: int = 40,
    slots: int = 10,
    cores: int = 4,
) -> Trace:
    """Deterministic random trace.

    The one home of the workload RNG's call order: per transaction,
    ``randrange`` core and ``randint`` store count, then per store
    ``randrange`` slot, ``randrange`` word and ``getrandbits`` value.
    The RNG is private, so generating every transaction before running
    any is byte-for-byte what a run interleaving the two would execute.
    """
    rng = random.Random(seed)
    txns: List[TraceTxn] = []
    for _ in range(transactions):
        core = rng.randrange(cores)
        stores = tuple(
            TraceStore(
                slot=rng.randrange(slots),
                offset=rng.randrange(WORDS_PER_SLOT),
                value=rng.getrandbits(64),
            )
            for _ in range(rng.randint(1, MAX_STORES))
        )
        txns.append(TraceTxn(core=core, stores=stores))
    return Trace(seed=seed, slots=slots, cores=cores, txns=tuple(txns))


def expected_state(
    trace: Trace, slot_addrs: Sequence[int]
) -> Dict[int, bytes]:
    """Last-write-wins model: word address -> value after the trace.

    This is the scheme-independent ground truth every scheme's
    post-commit (and post-recovery) state must match.
    """
    state: Dict[int, bytes] = {}
    for txn in trace.txns:
        state.update(txn.record(slot_addrs)[1])
    return state


# -- snapshot declarations ----------------------------------------------------
# Traces are frozen records: a clone shares them by reference.
TraceStore.__snapshot_state__ = "__shared__"
TraceTxn.__snapshot_state__ = "__shared__"
Trace.__snapshot_state__ = "__shared__"
