"""The skip list behind the LSM baseline's address index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.skiplist import SkipList


def test_insert_lookup():
    sl = SkipList()
    sl.insert(5, "five")
    value, hops = sl.lookup(5)
    assert value == "five"
    assert hops > 0


def test_lookup_missing():
    sl = SkipList()
    sl.insert(5, "five")
    value, _ = sl.lookup(6)
    assert value is None


def test_insert_replaces():
    sl = SkipList()
    sl.insert(1, "a")
    sl.insert(1, "b")
    assert len(sl) == 1
    assert sl.lookup(1)[0] == "b"


def test_iteration_sorted():
    sl = SkipList()
    for key in (5, 1, 9, 3):
        sl.insert(key, key * 10)
    assert list(sl) == [(1, 10), (3, 30), (5, 50), (9, 90)]


def test_remove():
    sl = SkipList()
    sl.insert(1, "a")
    sl.insert(2, "b")
    found, _ = sl.remove(1)
    assert found
    assert sl.lookup(1)[0] is None
    assert len(sl) == 1
    found, _ = sl.remove(99)
    assert not found


def test_range_items():
    sl = SkipList()
    for key in range(0, 100, 8):
        sl.insert(key, key)
    items, hops = sl.range_items(16, 48)
    assert [k for k, _ in items] == [16, 24, 32, 40]
    assert hops > 0


def test_range_items_empty_range():
    sl = SkipList()
    sl.insert(100, "x")
    items, _ = sl.range_items(0, 50)
    assert items == []


def test_hops_grow_sublinearly():
    small = SkipList(seed=1)
    large = SkipList(seed=1)
    for i in range(64):
        small.insert(i, i)
    for i in range(4096):
        large.insert(i, i)
    small.hops = large.hops = 0
    for key in range(0, 64, 7):
        small.lookup(key)
        large.lookup(key)
    # 64x more entries must cost far less than 64x the hops (O(log n)).
    assert large.hops < small.hops * 8


def test_determinism():
    a = SkipList(seed=42)
    b = SkipList(seed=42)
    for i in range(200):
        a.insert(i * 7 % 101, i)
        b.insert(i * 7 % 101, i)
    assert a.hops == b.hops
    assert list(a) == list(b)


def test_clear():
    sl = SkipList()
    sl.insert(1, "a")
    sl.clear()
    assert len(sl) == 0
    assert sl.lookup(1)[0] is None


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "lookup"]),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=200,
    )
)
def test_matches_dict_model(ops):
    sl = SkipList(seed=7)
    model = {}
    for op, key in ops:
        if op == "insert":
            sl.insert(key, key * 2)
            model[key] = key * 2
        elif op == "remove":
            found, _ = sl.remove(key)
            assert found == (key in model)
            model.pop(key, None)
        else:
            value, _ = sl.lookup(key)
            assert value == model.get(key)
    assert list(sl) == sorted(model.items())
    assert len(sl) == len(model)
