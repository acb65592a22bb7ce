"""Persistent data structures: functional correctness and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemorySystem, SystemConfig
from repro.common.errors import CapacityError
from repro.workloads.structures import (
    PersistentBTree,
    PersistentHashMap,
    PersistentQueue,
    PersistentRBTree,
    PersistentVector,
)


def make_system():
    return MemorySystem(SystemConfig.small(), scheme="native")


class TestVector:
    def test_insert_and_get(self):
        system = make_system()
        vec = PersistentVector(system, capacity=8, item_bytes=16)
        with system.transaction() as tx:
            index = vec.insert(tx, b"0123456789abcdef")
            assert index == 0
            assert vec.length(tx) == 1
            assert vec.get(tx, 0) == b"0123456789abcdef"

    def test_update_in_place(self):
        system = make_system()
        vec = PersistentVector(system, capacity=8, item_bytes=16)
        with system.transaction() as tx:
            vec.insert(tx, b"a" * 16)
            vec.update(tx, 0, b"b" * 16)
            assert vec.get(tx, 0) == b"b" * 16

    def test_capacity_enforced(self):
        system = make_system()
        vec = PersistentVector(system, capacity=1, item_bytes=16)
        with system.transaction() as tx:
            vec.insert(tx, b"x" * 16)
            with pytest.raises(CapacityError):
                vec.insert(tx, b"y" * 16)

    def test_bad_item_size_rejected(self):
        system = make_system()
        vec = PersistentVector(system, capacity=2, item_bytes=16)
        with system.transaction() as tx:
            with pytest.raises(ValueError):
                vec.insert(tx, b"short")

    def test_out_of_range_rejected(self):
        system = make_system()
        vec = PersistentVector(system, capacity=2, item_bytes=16)
        with system.transaction() as tx:
            with pytest.raises(IndexError):
                vec.get(tx, 5)


class TestHashMap:
    def test_missing_key(self):
        system = make_system()
        hmap = PersistentHashMap(system, buckets=16, value_bytes=16)
        with system.transaction() as tx:
            assert hmap.get(tx, 42) is None

    def test_chains_survive_collisions(self):
        system = make_system()
        hmap = PersistentHashMap(system, buckets=1, value_bytes=8)
        with system.transaction() as tx:
            for key in range(20):
                hmap.insert(tx, key, key.to_bytes(8, "little"))
            for key in range(20):
                assert hmap.get(tx, key) == key.to_bytes(8, "little")

    def test_insert_overwrites(self):
        system = make_system()
        hmap = PersistentHashMap(system, buckets=4, value_bytes=8)
        with system.transaction() as tx:
            hmap.insert(tx, 1, b"a" * 8)
            hmap.insert(tx, 1, b"b" * 8)
            assert hmap.get(tx, 1) == b"b" * 8

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "get"]),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=60,
        )
    )
    def test_matches_dict_model(self, ops):
        system = make_system()
        hmap = PersistentHashMap(system, buckets=4, value_bytes=8)
        model = {}
        with system.transaction() as tx:
            for op, key in ops:
                value = (key * 7 % 251).to_bytes(8, "little")
                if op == "insert":
                    hmap.insert(tx, key, value)
                    model[key] = value
                else:
                    assert hmap.get(tx, key) == model.get(key)


class TestQueue:
    def test_fifo_order(self):
        system = make_system()
        queue = PersistentQueue(system, value_bytes=8)
        with system.transaction() as tx:
            for i in range(5):
                queue.enqueue(tx, i.to_bytes(8, "little"))
            for i in range(5):
                assert queue.dequeue(tx) == i.to_bytes(8, "little")
            assert queue.dequeue(tx) is None

    def test_count_tracking(self):
        system = make_system()
        queue = PersistentQueue(system, value_bytes=8)
        with system.transaction() as tx:
            queue.enqueue(tx, b"12345678")
            assert queue.update_count(tx, +1) == 1
            queue.dequeue(tx)
            assert queue.update_count(tx, -1) == 0

    def test_interleaved_operations(self):
        system = make_system()
        queue = PersistentQueue(system, value_bytes=8)
        import collections

        model = collections.deque()
        with system.transaction() as tx:
            for i in range(40):
                if i % 3 != 2:
                    value = i.to_bytes(8, "little")
                    queue.enqueue(tx, value)
                    model.append(value)
                else:
                    got = queue.dequeue(tx)
                    expected = model.popleft() if model else None
                    assert got == expected


class TestRBTree:
    def test_insert_search_update(self):
        system = make_system()
        tree = PersistentRBTree(system)
        with system.transaction() as tx:
            tree.insert(tx, 10, 100)
            tree.insert(tx, 5, 50)
            tree.insert(tx, 15, 150)
            assert tree.search(tx, 5) == 50
            assert tree.search(tx, 99) is None
            assert tree.update(tx, 5, 55)
            assert tree.search(tx, 5) == 55
            assert not tree.update(tx, 99, 1)

    def test_invariants_random_inserts(self):
        import random

        system = make_system()
        tree = PersistentRBTree(system)
        rng = random.Random(5)
        inserted = set()
        for _ in range(150):
            key = rng.randrange(10_000)
            with system.transaction() as tx:
                tree.insert(tx, key, key)
            inserted.add(key)
        count, _ = tree.check_invariants()
        assert count == len(inserted)
        with system.transaction() as tx:
            assert all(tree.search(tx, key) == key for key in inserted)

    def test_invariants_sequential_inserts(self):
        system = make_system()
        tree = PersistentRBTree(system)
        for key in range(100):
            with system.transaction() as tx:
                tree.insert(tx, key, key)
        count, black_height = tree.check_invariants()
        assert count == 100
        assert black_height >= 3  # balanced, not a list

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=80))
    def test_matches_dict_model(self, keys):
        system = make_system()
        tree = PersistentRBTree(system)
        model = {}
        with system.transaction() as tx:
            for key in keys:
                tree.insert(tx, key, key * 2)
                model[key] = key * 2
            for key in model:
                assert tree.search(tx, key) == model[key]
        count, _ = tree.check_invariants()
        assert count == len(model)

class TestBTree:
    def test_insert_search_update(self):
        system = make_system()
        tree = PersistentBTree(system, t=2)
        with system.transaction() as tx:
            for key in (10, 5, 15, 3, 7):
                tree.insert(tx, key, key * 10)
            assert tree.search(tx, 7) == 70
            assert tree.search(tx, 99) is None
            assert tree.update(tx, 7, 77)
            assert tree.search(tx, 7) == 77
            assert not tree.update(tx, 99, 0)

    def test_splits_preserve_order(self):
        system = make_system()
        tree = PersistentBTree(system, t=2)
        keys = list(range(50))
        with system.transaction() as tx:
            for key in keys:
                tree.insert(tx, key, key)
        assert tree.check_invariants() == 50
        with system.transaction() as tx:
            assert [tree.search(tx, key) for key in keys] == keys

    def test_duplicate_insert_overwrites(self):
        system = make_system()
        tree = PersistentBTree(system, t=2)
        with system.transaction() as tx:
            tree.insert(tx, 1, 10)
            tree.insert(tx, 1, 20)
            assert tree.search(tx, 1) == 20
        assert tree.check_invariants() == 1

    def test_min_degree_validation(self):
        system = make_system()
        with pytest.raises(ValueError):
            PersistentBTree(system, t=1)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1000), max_size=120),
        st.integers(min_value=2, max_value=5),
    )
    def test_matches_dict_model(self, keys, degree):
        system = make_system()
        tree = PersistentBTree(system, t=degree)
        model = {}
        with system.transaction() as tx:
            for key in keys:
                tree.insert(tx, key, key + 1)
                model[key] = key + 1
            for key in model:
                assert tree.search(tx, key) == model[key]
        assert tree.check_invariants() == len(model)
