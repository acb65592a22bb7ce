"""Volatile per-block liveness bookkeeping for safe block reclamation.

Algorithm 1 reclaims a ``BLK_FULL`` block after migrating its committed
transactions — but a full block can also hold slices of a transaction that
is *still open* (it filled the block and kept going), and those slices must
survive until that transaction commits and is itself migrated.  The memory
controller tracks, per block, which transactions have slices there and
whether each is open, committed, or retired.  This is SRAM state: a crash
destroys it, which is safe because recovery replays the commit log and then
clears the whole region.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Set

from repro.snapshot import reset_volatile

_NO_BLOCKS: FrozenSet[int] = frozenset()


class BlockRefs:
    """Tracks which transactions keep which OOP blocks alive."""

    def __init__(self) -> None:
        self._block_txs: Dict[int, Set[int]] = defaultdict(set)
        # Frozen per transaction: a committed transaction's block set
        # never changes again, so a snapshot clone shares it instead of
        # copying one small set per unretired transaction.
        self._tx_blocks: Dict[int, FrozenSet[int]] = {}
        self._open_txs: Set[int] = set()

    def on_tx_begin(self, tx_id: int) -> None:
        self._open_txs.add(tx_id)

    def on_slice_written(self, tx_id: int, block: int) -> None:
        self._block_txs[block].add(tx_id)
        blocks = self._tx_blocks.get(tx_id, _NO_BLOCKS)
        if block not in blocks:
            self._tx_blocks[tx_id] = blocks | {block}

    def on_tx_commit(self, tx_id: int) -> None:
        self._open_txs.discard(tx_id)

    def on_tx_retired(self, tx_id: int) -> None:
        """Drop a migrated transaction's references."""
        self._open_txs.discard(tx_id)
        for block in self._tx_blocks.pop(tx_id, _NO_BLOCKS):
            txs = self._block_txs.get(block)
            if txs is not None:
                txs.discard(tx_id)
                if not txs:
                    del self._block_txs[block]

    def blocks_of(self, tx_id: int) -> FrozenSet[int]:
        return self._tx_blocks.get(tx_id, _NO_BLOCKS)

    def live_txs_in(self, block: int) -> Set[int]:
        return set(self._block_txs.get(block, set()))

    def is_reclaimable(self, block: int) -> bool:
        """True when no live transaction references the block."""
        return not self._block_txs.get(block)

    def open_transactions(self) -> List[int]:
        return sorted(self._open_txs)

    # SRAM: a power cut keeps none of it (see repro.snapshot).
    __durable__ = ()
    crash = reset_volatile


# -- snapshot declarations ----------------------------------------------------
BlockRefs.__snapshot_state__ = "__all__"
