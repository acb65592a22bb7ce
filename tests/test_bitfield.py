"""Bit-level pack/unpack helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitfield import BitStruct, Field, unpack_uint_list


def pack_uint_list(values, bits_each, total_bytes):
    """Reference packer: what ``unpack_uint_list`` inverts."""
    if len(values) * bits_each > total_bytes * 8:
        raise ValueError("values do not fit the allotted bytes")
    acc = 0
    for i, value in enumerate(values):
        if not 0 <= value < 1 << bits_each:
            raise ValueError(f"value {value} does not fit {bits_each} bits")
        acc |= value << (i * bits_each)
    return acc.to_bytes(total_bytes, "little")


def test_simple_round_trip():
    layout = BitStruct([Field("a", 32), Field("b", 4)], total_bytes=8)
    raw = layout.pack({"a": 7, "b": 3})
    assert len(raw) == 8
    assert layout.unpack(raw) == {"a": 7, "b": 3}


def test_unset_fields_default_to_zero():
    layout = BitStruct([Field("a", 8), Field("b", 8)], total_bytes=2)
    assert layout.unpack(layout.pack({"a": 5})) == {"a": 5, "b": 0}


def test_max_value():
    layout = BitStruct([Field("a", 3)], total_bytes=1)
    assert layout.max_value("a") == 7


def test_value_out_of_range_rejected():
    layout = BitStruct([Field("a", 3)], total_bytes=1)
    with pytest.raises(ValueError):
        layout.pack({"a": 8})
    with pytest.raises(ValueError):
        layout.pack({"a": -1})


def test_overflowing_layout_rejected():
    with pytest.raises(ValueError):
        BitStruct([Field("a", 9)], total_bytes=1)


def test_duplicate_field_rejected():
    with pytest.raises(ValueError):
        BitStruct([Field("a", 1), Field("a", 1)], total_bytes=1)


def test_zero_width_field_rejected():
    with pytest.raises(ValueError):
        Field("bad", 0)


def test_wrong_buffer_size_rejected():
    layout = BitStruct([Field("a", 8)], total_bytes=2)
    with pytest.raises(ValueError):
        layout.unpack(b"\x00")


def test_uint_list_round_trip():
    values = [1, 2**39, 0, 42]
    raw = pack_uint_list(values, 40, 40)
    assert unpack_uint_list(raw, 40, 4) == values


def test_uint_list_overflow_rejected():
    with pytest.raises(ValueError):
        pack_uint_list([2**40], 40, 8)
    with pytest.raises(ValueError):
        pack_uint_list([0] * 10, 40, 8)
    with pytest.raises(ValueError):
        unpack_uint_list(b"\x00" * 4, 40, 2)


@given(
    st.lists(
        st.integers(min_value=0, max_value=2**40 - 1),
        min_size=0,
        max_size=8,
    )
)
def test_uint_list_round_trip_property(values):
    raw = pack_uint_list(values, 40, 40)
    assert unpack_uint_list(raw, 40, len(values)) == values


@given(
    st.integers(min_value=0, max_value=2**24 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=15),
)
def test_slice_like_layout_round_trip(next_offset, tx_id, start, state):
    layout = BitStruct(
        [
            Field("next_offset", 24),
            Field("tx_id", 32),
            Field("start", 1),
            Field("state", 4),
        ],
        total_bytes=16,
    )
    values = {
        "next_offset": next_offset,
        "tx_id": tx_id,
        "start": start,
        "state": state,
    }
    assert layout.unpack(layout.pack(values)) == values
