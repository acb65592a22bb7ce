"""Persistent red-black tree (Table III "RB-tree [40]": 2–10 stores/TX).

A textbook (CLRS) red-black tree whose nodes live in persistent memory:
``[key | value | left | right | parent | color]``.  Every pointer chase
is a transactional load and every relink/recolor a transactional store,
so an insert's store count varies with the fixup work — from 2 (leaf
recolor-free insert: child link + parent backlink) up to ~10 when
rotations cascade, exactly the paper's range.

:meth:`check_invariants` walks the tree read-only and verifies the
red-black properties for the test suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction
from repro.workloads.structures.util import NULL

_KEY = 0
_VALUE = 8
_LEFT = 16
_RIGHT = 24
_PARENT = 32
_COLOR = 40
_NODE_BYTES = 64

_BLACK = 0
_RED = 1


class PersistentRBTree:
    """Red-black tree with 8-byte keys and 8-byte values."""

    def __init__(self, system: MemorySystem) -> None:
        self.system = system
        self.base = system.allocate(64)  # header: root pointer
        with system.transaction() as tx:
            tx.store_u64(self.base, NULL)

    # -- field helpers ------------------------------------------------------------

    @staticmethod
    def _get(tx: Transaction, node: int, field: int) -> int:
        return tx.load_u64(node + field)

    @staticmethod
    def _set(tx: Transaction, node: int, field: int, value: int) -> None:
        tx.store_u64(node + field, value)

    def _root(self, tx: Transaction) -> int:
        return tx.load_u64(self.base)

    def _set_root(self, tx: Transaction, node: int) -> None:
        tx.store_u64(self.base, node)

    # -- search --------------------------------------------------------------------

    def search(self, tx: Transaction, key: int) -> Optional[int]:
        """Value for ``key``, or None."""
        node = self._root(tx)
        while node != NULL:
            node_key = self._get(tx, node, _KEY)
            if key == node_key:
                return self._get(tx, node, _VALUE)
            node = self._get(tx, node, _LEFT if key < node_key else _RIGHT)
        return None

    def update(self, tx: Transaction, key: int, value: int) -> bool:
        """Overwrite an existing key's value; returns False when absent."""
        node = self._root(tx)
        while node != NULL:
            node_key = self._get(tx, node, _KEY)
            if key == node_key:
                self._set(tx, node, _VALUE, value)
                return True
            node = self._get(tx, node, _LEFT if key < node_key else _RIGHT)
        return False

    # -- insertion -------------------------------------------------------------------

    def insert(self, tx: Transaction, key: int, value: int) -> None:
        """Insert ``key`` (overwrites value if present)."""
        parent = NULL
        node = self._root(tx)
        while node != NULL:
            node_key = self._get(tx, node, _KEY)
            if key == node_key:
                self._set(tx, node, _VALUE, value)
                return
            parent = node
            node = self._get(tx, node, _LEFT if key < node_key else _RIGHT)
        fresh = self.system.allocate(_NODE_BYTES)
        self._set(tx, fresh, _KEY, key)
        self._set(tx, fresh, _VALUE, value)
        self._set(tx, fresh, _LEFT, NULL)
        self._set(tx, fresh, _RIGHT, NULL)
        self._set(tx, fresh, _PARENT, parent)
        self._set(tx, fresh, _COLOR, _RED)
        if parent == NULL:
            self._set_root(tx, fresh)
        elif key < self._get(tx, parent, _KEY):
            self._set(tx, parent, _LEFT, fresh)
        else:
            self._set(tx, parent, _RIGHT, fresh)
        self._insert_fixup(tx, fresh)

    def _insert_fixup(self, tx: Transaction, node: int) -> None:
        while True:
            parent = self._get(tx, node, _PARENT)
            if parent == NULL or self._get(tx, parent, _COLOR) == _BLACK:
                break
            grand = self._get(tx, parent, _PARENT)
            if grand == NULL:
                break
            if parent == self._get(tx, grand, _LEFT):
                uncle = self._get(tx, grand, _RIGHT)
                if uncle != NULL and self._get(tx, uncle, _COLOR) == _RED:
                    self._set(tx, parent, _COLOR, _BLACK)
                    self._set(tx, uncle, _COLOR, _BLACK)
                    self._set(tx, grand, _COLOR, _RED)
                    node = grand
                    continue
                if node == self._get(tx, parent, _RIGHT):
                    node = parent
                    self._rotate_left(tx, node)
                    parent = self._get(tx, node, _PARENT)
                    grand = self._get(tx, parent, _PARENT)
                self._set(tx, parent, _COLOR, _BLACK)
                self._set(tx, grand, _COLOR, _RED)
                self._rotate_right(tx, grand)
            else:
                uncle = self._get(tx, grand, _LEFT)
                if uncle != NULL and self._get(tx, uncle, _COLOR) == _RED:
                    self._set(tx, parent, _COLOR, _BLACK)
                    self._set(tx, uncle, _COLOR, _BLACK)
                    self._set(tx, grand, _COLOR, _RED)
                    node = grand
                    continue
                if node == self._get(tx, parent, _LEFT):
                    node = parent
                    self._rotate_right(tx, node)
                    parent = self._get(tx, node, _PARENT)
                    grand = self._get(tx, parent, _PARENT)
                self._set(tx, parent, _COLOR, _BLACK)
                self._set(tx, grand, _COLOR, _RED)
                self._rotate_left(tx, grand)
        root = self._root(tx)
        if root != NULL and self._get(tx, root, _COLOR) != _BLACK:
            self._set(tx, root, _COLOR, _BLACK)

    # -- rotations --------------------------------------------------------------------

    def _rotate_left(self, tx: Transaction, node: int) -> None:
        pivot = self._get(tx, node, _RIGHT)
        child = self._get(tx, pivot, _LEFT)
        self._set(tx, node, _RIGHT, child)
        if child != NULL:
            self._set(tx, child, _PARENT, node)
        parent = self._get(tx, node, _PARENT)
        self._set(tx, pivot, _PARENT, parent)
        if parent == NULL:
            self._set_root(tx, pivot)
        elif node == self._get(tx, parent, _LEFT):
            self._set(tx, parent, _LEFT, pivot)
        else:
            self._set(tx, parent, _RIGHT, pivot)
        self._set(tx, pivot, _LEFT, node)
        self._set(tx, node, _PARENT, pivot)

    def _rotate_right(self, tx: Transaction, node: int) -> None:
        pivot = self._get(tx, node, _LEFT)
        child = self._get(tx, pivot, _RIGHT)
        self._set(tx, node, _LEFT, child)
        if child != NULL:
            self._set(tx, child, _PARENT, node)
        parent = self._get(tx, node, _PARENT)
        self._set(tx, pivot, _PARENT, parent)
        if parent == NULL:
            self._set_root(tx, pivot)
        elif node == self._get(tx, parent, _RIGHT):
            self._set(tx, parent, _RIGHT, pivot)
        else:
            self._set(tx, parent, _LEFT, pivot)
        self._set(tx, pivot, _RIGHT, node)
        self._set(tx, node, _PARENT, pivot)

    # -- validation (tests) --------------------------------------------------------------

    def check_invariants(self) -> Tuple[int, int]:
        """Verify red-black properties; returns (node count, black height).

        Raises AssertionError on violation.  Read-only; runs in its own
        transaction.
        """
        with self.system.transaction() as tx:
            root = self._root(tx)
            if root == NULL:
                return 0, 0
            assert self._get(tx, root, _COLOR) == _BLACK, "root must be black"
            count, black_height = self._check_subtree(tx, root, None, None)
            return count, black_height

    def _check_subtree(
        self,
        tx: Transaction,
        node: int,
        low: Optional[int],
        high: Optional[int],
    ) -> Tuple[int, int]:
        if node == NULL:
            return 0, 1
        key = self._get(tx, node, _KEY)
        if low is not None:
            assert key > low, "BST order violated"
        if high is not None:
            assert key < high, "BST order violated"
        color = self._get(tx, node, _COLOR)
        left = self._get(tx, node, _LEFT)
        right = self._get(tx, node, _RIGHT)
        if color == _RED:
            for child in (left, right):
                if child != NULL:
                    assert (
                        self._get(tx, child, _COLOR) == _BLACK
                    ), "red node with red child"
        lcount, lblack = self._check_subtree(tx, left, low, key)
        rcount, rblack = self._check_subtree(tx, right, key, high)
        assert lblack == rblack, "black heights differ"
        return lcount + rcount + 1, lblack + (1 if color == _BLACK else 0)
