"""The failure-atomic region: ``Tx_begin`` … ``Tx_end``.

The paper deliberately keeps the programming model minimal (§III-B): the
two delimiters mark a region whose stores must become durable atomically;
concurrency control stays with the application.  :class:`Transaction`
is that region as a context manager.  All byte movement goes through the
owning :class:`~repro.txn.system.MemorySystem`, which charges latency to
the issuing core's clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.system import MemorySystem


class Transaction:
    """One failure-atomic region on one core."""

    def __init__(self, system: "MemorySystem", core: int) -> None:
        self.system = system
        self.core = core
        self.tx_id: Optional[int] = None
        self.stores = 0
        self.loads = 0
        self.begin_ns: float = 0.0
        self.end_ns: float = 0.0
        self._active = False

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Transaction":
        self.system._begin(self)
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # A Python-level exception aborts the *program*, not the
            # transaction protocol: like the paper's model there is no
            # abort path, so surface the error after closing our state.
            self._active = False
            return False
        self.system._end(self)
        self._active = False
        return False

    # -- data plane -----------------------------------------------------------

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr`` (any size; split across lines)."""
        if not self._active or self.tx_id is None:
            raise TransactionError("transaction is not active")
        self.system._store(self, addr, data)
        self.stores += 1

    def load(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr``."""
        if not self._active or self.tx_id is None:
            raise TransactionError("transaction is not active")
        self.loads += 1
        return self.system._load(self.core, addr, size)

    # Convenience accessors for word-sized integers, the dominant unit in
    # the paper's data-structure workloads.  They skip one delegation
    # layer — these two calls bound the per-operation overhead of every
    # pointer chase in the tree/list workloads.

    def store_u64(self, addr: int, value: int) -> None:
        if not self._active or self.tx_id is None:
            raise TransactionError("transaction is not active")
        self.system._store(self, addr, int(value).to_bytes(8, "little"))
        self.stores += 1

    def load_u64(self, addr: int) -> int:
        if not self._active or self.tx_id is None:
            raise TransactionError("transaction is not active")
        self.loads += 1
        return self.system._load_u64(self.core, addr)

    @property
    def latency_ns(self) -> float:
        """Critical-path latency: Tx_begin to Tx_end completion (§IV-C)."""
        return self.end_ns - self.begin_ns
