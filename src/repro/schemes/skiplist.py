"""A deterministic skip list, LSNVMM's address-mapping index.

LSNVMM maps virtual addresses to log offsets through a tree-shaped index;
the paper's LSM baseline implements it "using skip list [3], and cache[s]
it in DRAM for fast index lookup".  The performance-relevant property is
the **number of node hops per operation** — that is what turns into read
latency in the LSM scheme — so the implementation counts hops explicitly
and exposes them to the caller.

Determinism: node heights come from a per-instance xorshift PRNG seeded at
construction, so identical operation sequences build identical indexes and
experiments reproduce exactly.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

V = TypeVar("V")

_MAX_LEVEL = 24


class _Node(Generic[V]):
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: int, value: Optional[V], level: int) -> None:
        self.key = key
        self.value = value
        self.forward: List[Optional["_Node[V]"]] = [None] * level


class SkipList(Generic[V]):
    """Ordered int-keyed map with hop counting."""

    def __init__(self, seed: int = 0x5EED) -> None:
        self._head: _Node[V] = _Node(-1, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        self._state = (seed or 1) & 0xFFFFFFFF
        self.hops = 0  # total node traversals (the latency driver)

    # -- xorshift32: deterministic level choice ------------------------------------

    def _random_level(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        level = 1
        while x & 1 and level < _MAX_LEVEL:
            level += 1
            x >>= 1
        return level

    # -- core operations -----------------------------------------------------------

    def _find_path(self, key: int) -> List[_Node[V]]:
        """Predecessors at every level, counting hops."""
        update: List[_Node[V]] = [self._head] * _MAX_LEVEL
        node = self._head
        hops = 0
        for level in range(self._level - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
                hops += 1
            update[level] = node
            hops += 1
        self.hops += hops
        return update

    def insert(self, key: int, value: V) -> int:
        """Insert or replace; returns hops spent."""
        before = self.hops
        update = self._find_path(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return self.hops - before
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._size += 1
        return self.hops - before

    def lookup(self, key: int) -> Tuple[Optional[V], int]:
        """Exact-match search; returns ``(value or None, hops spent)``."""
        before = self.hops
        update = self._find_path(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            return candidate.value, self.hops - before
        return None, self.hops - before

    def remove(self, key: int) -> Tuple[bool, int]:
        """Delete; returns ``(found, hops spent)``."""
        before = self.hops
        update = self._find_path(key)
        candidate = update[0].forward[0]
        if candidate is None or candidate.key != key:
            return False, self.hops - before
        for i in range(len(candidate.forward)):
            if update[i].forward[i] is candidate:
                update[i].forward[i] = candidate.forward[i]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._size -= 1
        return True, self.hops - before

    def range_items(
        self, low: int, high: int
    ) -> Tuple[List[Tuple[int, V]], int]:
        """All ``(key, value)`` with ``low <= key < high``; plus hops.

        One descent locates the range start; level-0 successor hops walk
        it — the extent-scan pattern LSNVMM's read path uses for a cache
        line's worth of words.
        """
        before = self.hops
        update = self._find_path(low)
        node = update[0].forward[0]
        out: List[Tuple[int, V]] = []
        while node is not None and node.key < high:
            out.append((node.key, node.value))
            node = node.forward[0]
            self.hops += 1
        return out, self.hops - before

    # -- iteration / inspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Tuple[int, V]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    # ``clear`` (LSM's power cut) keeps the hop count and the PRNG.
    __durable__ = ("_state", "hops")

    def clear(self) -> None:
        self._head = _Node(-1, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0

    # -- snapshots -------------------------------------------------------------

    def __snapshot_clone__(self, memo: dict, clone) -> "SkipList":
        """Iterative clone for :mod:`repro.snapshot`.

        One level-0 walk recreates every node and wires all forward
        chains (a node of height ``h`` is the next element of chains
        ``0..h-1``), avoiding both per-node engine dispatch and the deep
        recursion a generic walk of the forward lists would need.
        """
        cls = self.__class__
        out = cls.__new__(cls)
        memo[id(self)] = out
        out._level = self._level
        out._size = self._size
        out._state = self._state
        out.hops = self.hops
        head = self._head
        new_head = _Node(-1, None, len(head.forward))
        memo[id(head)] = new_head
        out._head = new_head
        # Last cloned node seen per level; its forward[i] is patched when
        # the next node of height > i appears (tails stay None).
        prev: List[_Node] = [new_head] * len(head.forward)
        node = head.forward[0]
        while node is not None:
            height = len(node.forward)
            twin = _Node(node.key, clone(node.value), height)
            memo[id(node)] = twin
            for i in range(height):
                prev[i].forward[i] = twin
                prev[i] = twin
            node = node.forward[0]
        return out


# -- snapshot declarations ----------------------------------------------------
# _Node keeps a generic fallback spec: nodes are normally cloned by
# SkipList.__snapshot_clone__ above, but a node reached another way
# (tests) must still clone correctly.
_Node.__snapshot_state__ = "__all__"
