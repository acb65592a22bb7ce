"""Persistent B-tree (Table III "B-tree [40]": 2–12 stores/TX).

A CLRS B-tree with preemptive splits (one downward pass per insert).
Node layout, all 8-byte words::

    [ header | keys[2t-1] | values[2t-1] | children[2t] ]

where the header packs ``nkeys`` and a leaf flag.  Key shifts during
sorted insertion and the key/child moves during splits are individual
word stores — which is precisely why the paper's B-tree transaction
touches 2–12 words depending on luck.

Updates overwrite the value word in place; search walks the tree with
transactional loads.  ``check_invariants`` verifies ordering, occupancy
bounds, and uniform leaf depth for the test suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction

_HDR = 0


class PersistentBTree:
    """B-tree with 8-byte keys and values, min degree ``t``."""

    def __init__(self, system: MemorySystem, t: int = 4) -> None:
        if t < 2:
            raise ValueError("minimum degree must be >= 2")
        self.system = system
        self.t = t
        self.max_keys = 2 * t - 1
        self._keys_off = 8
        self._vals_off = self._keys_off + self.max_keys * 8
        self._kids_off = self._vals_off + self.max_keys * 8
        self.node_bytes = self._kids_off + 2 * t * 8
        self.base = system.allocate(64)  # header: root pointer
        with system.transaction() as tx:
            root = self._new_node(tx, leaf=True)
            tx.store_u64(self.base, root)

    # -- node field helpers ----------------------------------------------------

    def _new_node(self, tx: Transaction, *, leaf: bool) -> int:
        node = self.system.allocate(self.node_bytes)
        self._set_header(tx, node, 0, leaf)
        return node

    @staticmethod
    def _unpack_header(word: int) -> Tuple[int, bool]:
        return word & 0xFFFFFFFF, bool(word >> 32)

    def _header(self, tx: Transaction, node: int) -> Tuple[int, bool]:
        return self._unpack_header(tx.load_u64(node + _HDR))

    def _set_header(
        self, tx: Transaction, node: int, nkeys: int, leaf: bool
    ) -> None:
        tx.store_u64(node + _HDR, nkeys | (1 << 32 if leaf else 0))

    def _key(self, tx: Transaction, node: int, i: int) -> int:
        return tx.load_u64(node + self._keys_off + i * 8)

    def _set_key(self, tx: Transaction, node: int, i: int, key: int) -> None:
        tx.store_u64(node + self._keys_off + i * 8, key)

    def _val(self, tx: Transaction, node: int, i: int) -> int:
        return tx.load_u64(node + self._vals_off + i * 8)

    def _set_val(self, tx: Transaction, node: int, i: int, val: int) -> None:
        tx.store_u64(node + self._vals_off + i * 8, val)

    def _kid(self, tx: Transaction, node: int, i: int) -> int:
        return tx.load_u64(node + self._kids_off + i * 8)

    def _set_kid(self, tx: Transaction, node: int, i: int, kid: int) -> None:
        tx.store_u64(node + self._kids_off + i * 8, kid)

    # -- search ------------------------------------------------------------------

    def search(self, tx: Transaction, key: int) -> Optional[int]:
        node = tx.load_u64(self.base)
        while True:
            nkeys, leaf = self._header(tx, node)
            i = 0
            while i < nkeys and key > self._key(tx, node, i):
                i += 1
            if i < nkeys and key == self._key(tx, node, i):
                return self._val(tx, node, i)
            if leaf:
                return None
            node = self._kid(tx, node, i)

    def update(self, tx: Transaction, key: int, value: int) -> bool:
        """Overwrite an existing key's value; returns False when absent."""
        node = tx.load_u64(self.base)
        while True:
            nkeys, leaf = self._header(tx, node)
            i = 0
            while i < nkeys and key > self._key(tx, node, i):
                i += 1
            if i < nkeys and key == self._key(tx, node, i):
                self._set_val(tx, node, i, value)
                return True
            if leaf:
                return False
            node = self._kid(tx, node, i)

    # -- insertion ------------------------------------------------------------------

    def insert(self, tx: Transaction, key: int, value: int) -> None:
        root = tx.load_u64(self.base)
        nkeys, _ = self._header(tx, root)
        if nkeys == self.max_keys:
            new_root = self._new_node(tx, leaf=False)
            self._set_kid(tx, new_root, 0, root)
            self._split_child(tx, new_root, 0)
            tx.store_u64(self.base, new_root)
            root = new_root
        self._insert_nonfull(tx, root, key, value)

    def _split_child(self, tx: Transaction, parent: int, index: int) -> None:
        t = self.t
        child = self._kid(tx, parent, index)
        child_nkeys, child_leaf = self._header(tx, child)
        assert child_nkeys == self.max_keys
        sibling = self._new_node(tx, leaf=child_leaf)
        # Move the upper t-1 keys (and children) into the sibling.
        for j in range(t - 1):
            self._set_key(tx, sibling, j, self._key(tx, child, j + t))
            self._set_val(tx, sibling, j, self._val(tx, child, j + t))
        if not child_leaf:
            for j in range(t):
                self._set_kid(tx, sibling, j, self._kid(tx, child, j + t))
        self._set_header(tx, sibling, t - 1, child_leaf)
        self._set_header(tx, child, t - 1, child_leaf)
        # Shift the parent's keys/children right and hoist the median.
        parent_nkeys, parent_leaf = self._header(tx, parent)
        for j in range(parent_nkeys, index, -1):
            self._set_key(tx, parent, j, self._key(tx, parent, j - 1))
            self._set_val(tx, parent, j, self._val(tx, parent, j - 1))
            self._set_kid(tx, parent, j + 1, self._kid(tx, parent, j))
        self._set_kid(tx, parent, index + 1, sibling)
        self._set_key(tx, parent, index, self._key(tx, child, t - 1))
        self._set_val(tx, parent, index, self._val(tx, child, t - 1))
        self._set_header(tx, parent, parent_nkeys + 1, parent_leaf)

    def _insert_nonfull(
        self, tx: Transaction, node: int, key: int, value: int
    ) -> None:
        while True:
            nkeys, leaf = self._header(tx, node)
            # Overwrite in place when the key already exists at this level.
            i = 0
            while i < nkeys and key > self._key(tx, node, i):
                i += 1
            if i < nkeys and key == self._key(tx, node, i):
                self._set_val(tx, node, i, value)
                return
            if leaf:
                j = nkeys
                while j > i:
                    self._set_key(tx, node, j, self._key(tx, node, j - 1))
                    self._set_val(tx, node, j, self._val(tx, node, j - 1))
                    j -= 1
                self._set_key(tx, node, i, key)
                self._set_val(tx, node, i, value)
                self._set_header(tx, node, nkeys + 1, True)
                return
            child = self._kid(tx, node, i)
            child_nkeys, _ = self._header(tx, child)
            if child_nkeys == self.max_keys:
                self._split_child(tx, node, i)
                if key > self._key(tx, node, i):
                    child = self._kid(tx, node, i + 1)
                elif key == self._key(tx, node, i):
                    self._set_val(tx, node, i, value)
                    return
            node = child

    # -- validation (tests) --------------------------------------------------------

    def check_invariants(self) -> int:
        """Verify ordering/occupancy/depth; returns total key count."""
        with self.system.transaction() as tx:
            root = tx.load_u64(self.base)
            count, _ = self._check_node(tx, root, None, None, is_root=True)
            return count

    def _check_node(
        self,
        tx: Transaction,
        node: int,
        low: Optional[int],
        high: Optional[int],
        *,
        is_root: bool,
    ) -> Tuple[int, int]:
        nkeys, leaf = self._header(tx, node)
        if not is_root:
            assert nkeys >= self.t - 1, "underfull node"
        assert nkeys <= self.max_keys, "overfull node"
        keys = [self._key(tx, node, i) for i in range(nkeys)]
        assert keys == sorted(keys), "keys out of order"
        for key in keys:
            if low is not None:
                assert key > low, "key below subtree bound"
            if high is not None:
                assert key < high, "key above subtree bound"
        if leaf:
            return nkeys, 1
        total = nkeys
        depth: Optional[int] = None
        bounds = [low] + keys
        upper = keys + [high]
        for i in range(nkeys + 1):
            child = self._kid(tx, node, i)
            child_count, child_depth = self._check_node(
                tx, child, bounds[i], upper[i], is_root=False
            )
            total += child_count
            if depth is None:
                depth = child_depth
            assert depth == child_depth, "leaves at different depths"
        return total, (depth or 0) + 1
