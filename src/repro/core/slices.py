"""Memory-slice codecs (paper Fig. 5).

Every 128-byte slice in the OOP region is one of:

* a **data memory slice** — up to eight 8-byte words of transactional
  updates plus 64 bytes of metadata: per-word home addresses (40-bit word
  indexes by default), a 24-bit next-slice offset linking the transaction's
  chain, a 32-bit TxID, a start-of-transaction bit, a 3-bit word count, and
  a 4-bit state flag (Fig. 5b);

* an **address memory slice** — the commit log: a packed array of
  ``(TxID, start-slice, retired)`` entries.  Persisting a transaction's
  entry is HOOP's commit point; the retired bit is set by GC after the
  transaction's updates have been migrated home.

The last byte of every slice is a kind tag shared by both layouts so block
scans (GC, recovery) can classify slices without context.  A 16-bit
checksum over each slice's payload detects torn or stray writes — the paper
relies on slice-granularity write atomicity ("two consecutive memory
bursts"); the checksum is our functional-simulation equivalent, letting
recovery reject partially-persisted metadata instead of trusting it.

Variable packing (Section III-C): for home regions larger than 2^40 words
the per-word address field widens and the packing degree N drops below
eight; :meth:`SliceCodec.for_home_bits` computes N from the metadata budget
exactly as the paper describes (1 PB still fits seven updates in two cache
lines).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.bitfield import BitStruct, Field, unpack_uint_list
from repro.common.errors import CorruptionError

SLICE_BYTES = 128
WORD_BYTES = 8

# Slice kind tags (the shared last byte, low nibble = kind).
KIND_FREE = 0x0
KIND_DATA = 0x1
KIND_ADDR = 0x2

# 4-bit data-slice state flag values (Fig. 5b "Flag").
STATE_OPEN = 0x1  # written during transaction execution
STATE_LAST = 0x2  # the final slice of its transaction

_NEXT_OFFSET_BITS = 24
_NO_NEXT = (1 << _NEXT_OFFSET_BITS) - 1  # sentinel: end of chain segment
MAX_PREV_DELTA = _NO_NEXT - 1  # largest chain hop the 24-bit field encodes

_TXID_BITS = 32
_TXID_MAX = (1 << _TXID_BITS) - 1

# A data slice's meta fields, LSB first after the address vector: 24-bit
# next offset, 32-bit TxID, start bit, 3-bit word count - 1, 4-bit
# state, 8-bit generation, 16-bit checksum.  Their bit offsets:
_TXID_SHIFT = 24
_START_SHIFT = 56
_COUNT_SHIFT = 57
_STATE_SHIFT = 60
_GENERATION_SHIFT = 64
_CHECKSUM_SHIFT = 72
_DATA_TAG = bytes([KIND_DATA])


def _checksum(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFF


def _memo_put(cache: dict, raw: bytes, value) -> None:
    """Store one decode in a codec memo (keyed on all 128 raw bytes)."""
    if len(cache) >= 32768:  # bound footprint on long-lived codecs
        cache.clear()
    cache[raw] = value


def _memoized(cache: dict, raw: bytes, decode):
    """``decode(raw)`` through a codec memo, failures replayed too."""
    if type(raw) is not bytes:
        raw = bytes(raw)
    cached = cache.get(raw)
    if cached is None:
        try:
            cached = decode(raw)
        except CorruptionError as exc:
            _memo_put(cache, raw, str(exc))
            raise
        _memo_put(cache, raw, cached)
    elif type(cached) is str:
        raise CorruptionError(cached)
    return cached


@dataclass(frozen=True, slots=True)
class DataSlice:
    """Decoded data memory slice: the words of one packing unit.

    ``prev_delta`` is the Fig. 5b 24-bit "Next Slice" offset field.  We
    link chains *backwards* (each slice names its predecessor, which is
    known at write time, while a forward pointer would force rewriting the
    previous slice); Fig. 5a draws both prev and next links, and GC and
    recovery walk transactions newest-first anyway (Algorithm 1 line 7).
    The stored value is ``(this_index - prev_index) mod total_slices``;
    ``None`` marks the first slice of a chain segment.
    """

    tx_id: int
    words: Tuple[Tuple[int, bytes], ...]  # (home word address, 8-byte value)
    is_start: bool = False
    prev_delta: Optional[int] = None
    state: int = STATE_OPEN
    # Reuse generation of the block the slice was written into.  A block
    # reclaim bumps the generation, so stale slices surviving from before
    # the reclaim can never be mistaken for live ones by recovery scans.
    generation: int = 0

    def __post_init__(self) -> None:
        for addr, value in self.words:
            if addr % WORD_BYTES != 0:
                raise ValueError(f"home address {addr:#x} not word aligned")
            if len(value) != WORD_BYTES:
                raise ValueError("each packed word must be exactly 8 bytes")

    @classmethod
    def of_aligned_words(
        cls, tx_id: int, words: Tuple[Tuple[int, bytes], ...], is_start: bool,
        prev_delta: Optional[int], state: int, generation: int,
    ) -> "DataSlice":
        """A slice whose producer holds only whole aligned 8-byte words.

        The OOP data buffer's flush and the decoder: skips the frozen
        ``__init__`` and ``__post_init__``'s per-word re-check.
        """
        ds = object.__new__(cls)
        put = object.__setattr__
        put(ds, "tx_id", tx_id)
        put(ds, "words", words)
        put(ds, "is_start", is_start)
        put(ds, "prev_delta", prev_delta)
        put(ds, "state", state)
        put(ds, "generation", generation)
        return ds


@dataclass(frozen=True)
class AddressSliceEntry:
    """One chain segment in the commit log.

    A transaction normally produces a single entry whose ``tail_slice``
    points at its last data slice and whose ``committed`` bit is set at
    Tx_end.  When a prev-link delta cannot fit the 24-bit offset field
    (a chain hop across distant reused blocks), the controller closes the
    segment with an uncommitted entry and starts a new one; only the final
    entry carries ``committed``.  Recovery and GC replay a transaction iff
    its committed entry is durable.
    """

    tx_id: int
    tail_slice: int  # region slice index of the segment's last data slice
    committed: bool = True
    retired: bool = False


@dataclass
class AddressSlice:
    """Decoded address memory slice (a page of the commit log)."""

    entries: List[AddressSliceEntry] = field(default_factory=list)
    sequence: int = 0  # commit-log page number, for recovery ordering


class SliceCodec:
    """Encode/decode slices for a given home-address width.

    The metadata half of a data slice has ``SLICE_BYTES - words*8`` bytes.
    Fixed fields cost 24 (next) + 32 (TxID) + 1 (start) + 3 (count) +
    4 (state) + 8 (generation) + 16 (checksum) = 88 bits plus the 8-bit
    kind tag; the remaining bits hold ``words`` home addresses of
    ``home_addr_bits`` each.  ``for_home_bits`` picks the largest
    ``words <= 8`` that fits.
    """

    _FIXED_META_BITS = 88
    _TAG_BITS = 8

    def __init__(self, home_addr_bits: int = 40, words_per_slice: int = 8) -> None:
        if not 8 <= home_addr_bits <= 64:
            raise ValueError("home_addr_bits must be 8..64")
        if not 1 <= words_per_slice <= 8:
            raise ValueError("words_per_slice must be 1..8")
        needed_bits = (
            words_per_slice * 8 * 8  # data words
            + words_per_slice * home_addr_bits
            + self._FIXED_META_BITS
            + self._TAG_BITS
        )
        if needed_bits > SLICE_BYTES * 8:
            raise ValueError(
                f"{words_per_slice} words at {home_addr_bits}-bit addresses "
                f"need {needed_bits} bits; a slice has {SLICE_BYTES * 8}"
            )
        self.home_addr_bits = home_addr_bits
        self.words_per_slice = words_per_slice
        self._data_bytes = words_per_slice * 8
        self._addr_vec_bytes = (words_per_slice * home_addr_bits + 7) // 8
        self._meta_start = self._data_bytes + self._addr_vec_bytes
        self._meta_bytes = SLICE_BYTES - self._meta_start - 1
        # Address-slice layout: header (sequence 32b, count 8b,
        # checksum 16b) then entries of (tx_id 32b, tail 34b, committed 1b,
        # retired 1b).
        self._addr_header = BitStruct(
            [Field("sequence", 32), Field("count", 8), Field("checksum", 16)],
            total_bytes=7,
        )
        self._entry_bits = _TXID_BITS + 34 + 2
        payload_bits = (SLICE_BYTES - 1 - 7) * 8
        self.entries_per_addr_slice = payload_bits // self._entry_bits
        # Decode memos, one per slice kind: a decode is a pure function
        # of the raw bytes and its result is immutable, so identical
        # slices (recovery replays of the same region content, GC
        # re-walks) share one decode.  Corrupt slices cache their message
        # as a str.
        self._decode_cache: dict = {}
        self._addr_cache: dict = {}

    @classmethod
    def for_home_bits(cls, home_addr_bits: int) -> "SliceCodec":
        """Maximum-packing codec for a given home-address width."""
        budget = SLICE_BYTES * 8 - cls._FIXED_META_BITS - cls._TAG_BITS
        words = min(8, budget // (64 + home_addr_bits))
        if words < 1:
            raise ValueError(f"no packing possible at {home_addr_bits} bits")
        return cls(home_addr_bits, words)

    # -- data slices -----------------------------------------------------------

    def encode_data(self, ds: DataSlice) -> bytes:
        """Encode a data slice into 128 bytes.

        Also seeds the decode memo with ``ds``: a slice is written once
        and read back by GC and recovery, and decoding the bytes just
        produced can only return what went in.  The memo is keyed on all
        128 raw bytes, so a torn copy of the slice misses it and still
        has to pass its checksum.  This is the only place the memo is
        seeded from; ``decode_data`` fills it from real decodes.
        """
        words = ds.words
        count = len(words)
        if not 1 <= count <= self.words_per_slice:
            raise ValueError(
                f"slice holds 1..{self.words_per_slice} words, got {count}"
            )
        addr_bits = self.home_addr_bits
        addr_limit = 1 << addr_bits
        addr_acc = 0
        shift = 0
        values = []
        # ``ds`` is what decoding its own bytes returns only if it is
        # already in decoded form (tuple of bytes values, 8-bit
        # generation, ...); anything else is left for a real decode.
        roundtrips = type(words) is tuple
        for addr, value in words:
            word_index = addr // WORD_BYTES
            if not 0 <= word_index < addr_limit:
                raise ValueError(
                    f"home address {addr:#x} exceeds {addr_bits}-bit"
                    " word index"
                )
            addr_acc |= word_index << shift
            shift += addr_bits
            values.append(value)
            if type(value) is not bytes:
                roundtrips = False
        prev_delta = ds.prev_delta
        if prev_delta is None:
            next_offset = _NO_NEXT
        elif 0 <= prev_delta <= MAX_PREV_DELTA:
            next_offset = prev_delta
        else:
            # _NO_NEXT itself is the end-of-chain sentinel: storing it
            # would decode as "no predecessor", a silent chain break.
            raise ValueError(f"prev delta {prev_delta} exceeds {MAX_PREV_DELTA}")
        tx_id = ds.tx_id
        if not 0 <= tx_id <= _TXID_MAX:
            raise ValueError(f"tx id {tx_id} exceeds {_TXID_BITS} bits")
        state = ds.state
        if not 0 <= state <= 0xF:
            raise ValueError(f"state {state} exceeds 4 bits")
        generation = ds.generation & 0xFF
        payload = (
            b"".join(values)
            + bytes(self._data_bytes - count * WORD_BYTES)
            + addr_acc.to_bytes(self._addr_vec_bytes, "little")
        )
        meta = (
            next_offset
            | tx_id << _TXID_SHIFT
            | (1 if ds.is_start else 0) << _START_SHIFT
            | (count - 1) << _COUNT_SHIFT
            | state << _STATE_SHIFT
            | generation << _GENERATION_SHIFT
        )
        meta_bytes = self._meta_bytes
        # The checksum covers payload + meta with a zero checksum field.
        checksum = zlib.crc32(
            meta.to_bytes(meta_bytes, "little"), zlib.crc32(payload)
        ) & 0xFFFF
        raw = (
            payload
            + (meta | checksum << _CHECKSUM_SHIFT).to_bytes(meta_bytes, "little")
            + _DATA_TAG
        )
        assert len(raw) == SLICE_BYTES
        if roundtrips and generation == ds.generation:
            _memo_put(self._decode_cache, raw, ds)
        return raw

    def decode_data(self, raw: bytes) -> DataSlice:
        """Decode 128 bytes into a data slice; raises on corruption."""
        return _memoized(self._decode_cache, raw, self._decode_data_uncached)

    def _decode_data_uncached(self, raw: bytes) -> DataSlice:
        if len(raw) != SLICE_BYTES:
            raise CorruptionError(f"slice must be {SLICE_BYTES} bytes")
        if raw[-1] & 0xF != KIND_DATA:
            raise CorruptionError("not a data memory slice")
        data_bytes = self._data_bytes
        meta_start = self._meta_start
        meta = int.from_bytes(raw[meta_start:-1], "little")
        checksum = meta >> _CHECKSUM_SHIFT & 0xFFFF
        meta ^= checksum << _CHECKSUM_SHIFT  # as it was when summed
        expected = zlib.crc32(
            meta.to_bytes(self._meta_bytes, "little"),
            zlib.crc32(raw[:meta_start]),
        ) & 0xFFFF
        if checksum != expected:
            raise CorruptionError("data slice checksum mismatch (torn write)")
        count = (meta >> _COUNT_SHIFT & 0x7) + 1
        word_indexes = unpack_uint_list(
            raw[data_bytes:meta_start], self.home_addr_bits, count
        )
        words = tuple(
            (word_indexes[i] * WORD_BYTES, raw[i * 8 : (i + 1) * 8])
            for i in range(count)
        )
        next_offset = meta & _NO_NEXT
        return DataSlice.of_aligned_words(
            meta >> _TXID_SHIFT & _TXID_MAX,
            words,
            bool(meta >> _START_SHIFT & 1),
            None if next_offset == _NO_NEXT else next_offset,
            meta >> _STATE_SHIFT & 0xF,
            meta >> _GENERATION_SHIFT & 0xFF,
        )

    # -- address slices -----------------------------------------------------------

    def encode_addr(self, a: AddressSlice) -> bytes:
        """Encode a commit-log page into 128 bytes.

        Takes anything with ``entries`` and ``sequence``: an
        :class:`AddressSlice` or the commit log's own immutable page.
        """
        if len(a.entries) > self.entries_per_addr_slice:
            raise ValueError(
                f"address slice holds at most {self.entries_per_addr_slice}"
                f" entries, got {len(a.entries)}"
            )
        acc = 0
        for i, entry in enumerate(a.entries):
            if entry.tail_slice >= (1 << 34):
                raise ValueError("tail slice index exceeds 34 bits")
            if not 0 <= entry.tx_id <= _TXID_MAX:
                raise ValueError(f"tx id {entry.tx_id} exceeds {_TXID_BITS} bits")
            packed = (
                entry.tx_id
                | (entry.tail_slice << _TXID_BITS)
                | ((1 if entry.committed else 0) << (_TXID_BITS + 34))
                | ((1 if entry.retired else 0) << (_TXID_BITS + 35))
            )
            acc |= packed << (i * self._entry_bits)
        payload = acc.to_bytes(SLICE_BYTES - 1 - 7, "little")
        header = self._addr_header.pack(
            {"sequence": a.sequence, "count": len(a.entries)}
        )
        header = self._addr_header.with_field(
            header, "checksum", _checksum(payload + header)
        )
        raw = header + payload + bytes([KIND_ADDR])
        assert len(raw) == SLICE_BYTES
        return raw

    def decode_addr(self, raw: bytes) -> AddressSlice:
        """Decode a commit-log page; raises on corruption.

        The memo holds ``(tuple(entries), sequence)``; every call builds
        a fresh ``AddressSlice`` with its own ``entries`` list from it,
        so no caller can alter what the memo answers.
        """
        entries, sequence = _memoized(
            self._addr_cache, raw, self._decode_addr_uncached
        )
        return AddressSlice(entries=list(entries), sequence=sequence)

    def _decode_addr_uncached(
        self, raw: bytes
    ) -> Tuple[Tuple[AddressSliceEntry, ...], int]:
        if len(raw) != SLICE_BYTES:
            raise CorruptionError(f"slice must be {SLICE_BYTES} bytes")
        if raw[-1] & 0xF != KIND_ADDR:
            raise CorruptionError("not an address memory slice")
        header_raw = raw[:7]
        payload = raw[7:-1]
        header = self._addr_header.unpack(header_raw)
        zeroed = self._addr_header.clear_field(header_raw, "checksum")
        if header["checksum"] != _checksum(payload + zeroed):
            raise CorruptionError("address slice checksum mismatch")
        count = header["count"]
        if count > self.entries_per_addr_slice:
            raise CorruptionError("address slice entry count out of range")
        acc = int.from_bytes(payload, "little")
        mask = (1 << self._entry_bits) - 1
        entries = []
        for i in range(count):
            packed = (acc >> (i * self._entry_bits)) & mask
            entries.append(
                AddressSliceEntry(
                    tx_id=packed & ((1 << _TXID_BITS) - 1),
                    tail_slice=(packed >> _TXID_BITS) & ((1 << 34) - 1),
                    committed=bool(packed >> (_TXID_BITS + 34) & 1),
                    retired=bool(packed >> (_TXID_BITS + 35) & 1),
                )
            )
        return tuple(entries), header["sequence"]

    # -- classification -----------------------------------------------------------

    @staticmethod
    def kind_of(raw: bytes) -> int:
        """Kind tag of a raw slice (KIND_FREE/KIND_DATA/KIND_ADDR)."""
        if len(raw) != SLICE_BYTES:
            raise CorruptionError(f"slice must be {SLICE_BYTES} bytes")
        return raw[-1] & 0xF


# -- snapshot declarations ----------------------------------------------------
# DataSlice / AddressSliceEntry are frozen.  The codec holds only its
# layout and the two decode memos, both pure functions of the raw bytes,
# which is why clones share it.  AddressSlice owns a mutable entries list.
DataSlice.__snapshot_state__ = "__atom__"
AddressSliceEntry.__snapshot_state__ = "__atom__"
AddressSlice.__snapshot_state__ = "__all__"
SliceCodec.__snapshot_state__ = "__shared__"
