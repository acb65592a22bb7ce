"""Seeded workload traces for the differential oracle and fuzzer.

A :class:`Trace` is a pure-data, scheme-independent description of a
transactional workload: which core opens each transaction and which
words it stores.  The same trace replays identically on every scheme
(persistent-heap allocation is deterministic, so slot addresses match
across schemes), which is what makes cross-scheme differential checking
meaningful — and because a trace is plain data, the fuzzer's
delta-debugging shrinker can cut it down to a minimal reproducer.

Addresses are *symbolic* here: a store names ``(slot, offset)`` where
``slot`` indexes a 64-byte heap object allocated at replay time and
``offset`` is a word index within it.  :func:`expected_state` computes
the last-write-wins model every scheme must converge to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.snapshot.replay import TxnRecord

SLOT_BYTES = 64
WORDS_PER_SLOT = SLOT_BYTES // 8


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
    max_stores: int = 6,
) -> Trace:
    """Deterministic random trace (same shape as the crashtest workload)."""
    rng = random.Random(seed)
    txns: List[TraceTxn] = []
    for _ in range(transactions):
        stores = tuple(
            TraceStore(
                slot=rng.randrange(slots),
                offset=rng.randrange(WORDS_PER_SLOT),
                value=rng.getrandbits(64),
            )
            for _ in range(rng.randint(1, max_stores))
        )
        txns.append(TraceTxn(core=rng.randrange(cores), stores=stores))
    return Trace(seed=seed, slots=slots, cores=cores, txns=tuple(txns))


def expected_state(
    trace: Trace,
    slot_addrs: Sequence[int],
    upto_txns: Optional[int] = None,
) -> Dict[int, bytes]:
    """Last-write-wins model: word address -> value after ``upto_txns``.

    This is the scheme-independent ground truth every scheme's
    post-commit (and post-recovery) state must match.
    """
    limit = len(trace.txns) if upto_txns is None else upto_txns
    state: Dict[int, bytes] = {}
    for txn in trace.txns[:limit]:
        state.update(txn.record(slot_addrs)[1])
    return state


# -- snapshot declarations ----------------------------------------------------
# Traces are frozen records: a clone shares them by reference.
TraceStore.__snapshot_state__ = "__shared__"
TraceTxn.__snapshot_state__ = "__shared__"
Trace.__snapshot_state__ = "__shared__"
