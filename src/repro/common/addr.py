"""Cache-line and word address arithmetic.

HOOP tracks data at two granularities: the cache hierarchy works in 64-byte
**cache lines**, while the OOP data buffer packs updates at 8-byte **word**
granularity (Section III-C, "HOOP tracks data updates at a word granularity
instead of a cache line granularity").  All helpers here are pure functions
over integer physical addresses.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.common.errors import AddressError

CACHE_LINE_BYTES = 64
WORD_BYTES = 8
WORDS_PER_LINE = CACHE_LINE_BYTES // WORD_BYTES


def cache_line_base(addr: int) -> int:
    """Round ``addr`` down to its cache-line base address."""
    return addr & ~(CACHE_LINE_BYTES - 1)


def cache_line_index(addr: int) -> int:
    """Cache-line number of ``addr`` (address divided by line size)."""
    return addr >> 6


def word_base(addr: int) -> int:
    """Round ``addr`` down to its 8-byte word base address."""
    return addr & ~(WORD_BYTES - 1)


def word_index(addr: int) -> int:
    """Word number of ``addr`` (address divided by word size)."""
    return addr >> 3


def check_range(addr: int, size: int) -> None:
    """Validate a positive-size, non-negative-address access."""
    if addr < 0:
        raise AddressError(f"negative address {addr:#x}")
    if size <= 0:
        raise AddressError(f"non-positive access size {size}")


def iter_words(addr: int, size: int) -> Iterator[int]:
    """Yield the base address of every 8-byte word touched by the access."""
    check_range(addr, size)
    word = word_base(addr)
    end = addr + size
    while word < end:
        yield word
        word += WORD_BYTES


def split_by_cache_line(addr: int, size: int) -> Iterator[Tuple[int, int, int]]:
    """Split an access into per-line pieces.

    Yields ``(line_base, piece_addr, piece_size)`` tuples covering exactly
    ``[addr, addr + size)`` without crossing cache-line boundaries.
    """
    check_range(addr, size)
    cursor = addr
    end = addr + size
    while cursor < end:
        line = cache_line_base(cursor)
        piece_end = min(end, line + CACHE_LINE_BYTES)
        yield line, cursor, piece_end - cursor
        cursor = piece_end
