"""Cache-line and word address arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import addr
from repro.common.errors import AddressError

addresses = st.integers(min_value=0, max_value=2**48 - 1)
sizes = st.integers(min_value=1, max_value=4096)


def test_line_base_and_offset():
    assert addr.cache_line_base(0) == 0
    assert addr.cache_line_base(63) == 0
    assert addr.cache_line_base(64) == 64
    assert 130 - addr.cache_line_base(130) == 2


def test_word_helpers():
    assert addr.word_base(15) == 8
    assert addr.word_base(24) == 24
    assert addr.word_index(16) == 2
    assert addr.cache_line_index(129) == 2


def test_iter_words_partial():
    words = list(addr.iter_words(6, 4))
    assert words == [0, 8]


def test_split_by_cache_line_covers_exactly():
    pieces = list(addr.split_by_cache_line(100, 100))
    total = sum(size for _, _, size in pieces)
    assert total == 100
    assert pieces[0][1] == 100
    cursor = 100
    for line, piece_addr, piece_size in pieces:
        assert piece_addr == cursor
        assert addr.cache_line_base(piece_addr) == line
        assert piece_addr + piece_size <= line + 64
        cursor += piece_size


def test_invalid_ranges_rejected():
    with pytest.raises(AddressError):
        list(addr.split_by_cache_line(-1, 4))
    with pytest.raises(AddressError):
        list(addr.iter_words(0, 0))
    with pytest.raises(AddressError):
        list(addr.split_by_cache_line(10, -5))


@given(addresses, sizes)
def test_split_pieces_never_cross_lines(start, size):
    pieces = list(addr.split_by_cache_line(start, size))
    assert sum(s for _, _, s in pieces) == size
    for line, piece_addr, piece_size in pieces:
        assert line <= piece_addr
        assert piece_addr + piece_size <= line + addr.CACHE_LINE_BYTES


@given(addresses)
def test_base_is_idempotent(a):
    assert addr.cache_line_base(addr.cache_line_base(a)) == (
        addr.cache_line_base(a)
    )
    assert addr.word_base(addr.word_base(a)) == addr.word_base(a)
