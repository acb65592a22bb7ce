"""Memory-slice codecs: bit-exact round trips and corruption detection."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitfield import BitStruct, Field
from repro.common.errors import CorruptionError
from repro.core.slices import (
    KIND_ADDR,
    KIND_DATA,
    KIND_FREE,
    MAX_PREV_DELTA,
    SLICE_BYTES,
    STATE_LAST,
    STATE_OPEN,
    AddressSlice,
    AddressSliceEntry,
    DataSlice,
    SliceCodec,
)


@pytest.fixture
def codec():
    return SliceCodec(home_addr_bits=40)


def words_strategy(max_words=8):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**36).map(lambda w: w * 8),
            st.binary(min_size=8, max_size=8),
        ),
        min_size=1,
        max_size=max_words,
        unique_by=lambda t: t[0],
    )


class TestDataSlices:
    def test_round_trip(self, codec):
        ds = DataSlice(
            tx_id=7,
            words=((0x1000, b"ABCDEFGH"), (0x2008, b"12345678")),
            is_start=True,
            prev_delta=None,
            state=STATE_LAST,
            generation=3,
        )
        raw = codec.encode_data(ds)
        assert len(raw) == SLICE_BYTES
        back = codec.decode_data(raw)
        assert back == ds

    def test_prev_delta_round_trip(self, codec):
        ds = DataSlice(tx_id=1, words=((8, b"x" * 8),), prev_delta=12345)
        assert codec.decode_data(codec.encode_data(ds)).prev_delta == 12345

    def test_kind_tag(self, codec):
        raw = codec.encode_data(
            DataSlice(tx_id=1, words=((8, b"x" * 8),))
        )
        assert SliceCodec.kind_of(raw) == KIND_DATA

    def test_full_packing_eight_words(self, codec):
        words = tuple((i * 8, bytes([i]) * 8) for i in range(8))
        ds = DataSlice(tx_id=2, words=words)
        assert codec.decode_data(codec.encode_data(ds)).words == words

    def test_too_many_words_rejected(self, codec):
        words = tuple((i * 8, b"x" * 8) for i in range(9))
        with pytest.raises(ValueError):
            DataSlice(tx_id=1, words=words) and codec.encode_data(
                DataSlice(tx_id=1, words=words)
            )

    def test_unaligned_address_rejected(self):
        with pytest.raises(ValueError):
            DataSlice(tx_id=1, words=((3, b"x" * 8),))

    def test_wrong_word_size_rejected(self):
        with pytest.raises(ValueError):
            DataSlice(tx_id=1, words=((8, b"short"),))

    def test_address_beyond_width_rejected(self, codec):
        ds = DataSlice(tx_id=1, words=((2**40 * 8, b"x" * 8),))
        with pytest.raises(ValueError):
            codec.encode_data(ds)

    def test_corruption_detected(self, codec):
        raw = bytearray(
            codec.encode_data(DataSlice(tx_id=1, words=((8, b"x" * 8),)))
        )
        raw[70] ^= 0xFF  # flip bits in the metadata area
        with pytest.raises(CorruptionError):
            codec.decode_data(bytes(raw))

    def test_wrong_kind_rejected(self, codec):
        raw = codec.encode_addr(AddressSlice())
        with pytest.raises(CorruptionError):
            codec.decode_data(raw)

    def test_free_slice_classified(self):
        assert SliceCodec.kind_of(bytes(SLICE_BYTES)) == KIND_FREE

    def test_wrong_length_rejected(self, codec):
        with pytest.raises(CorruptionError):
            codec.decode_data(b"\x00" * 10)

    @given(
        words_strategy(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**24 - 2)),
        st.integers(min_value=0, max_value=255),
    )
    def test_round_trip_property(self, words, tx_id, start, delta, gen):
        codec = SliceCodec(home_addr_bits=40)
        ds = DataSlice(
            tx_id=tx_id,
            words=tuple(words),
            is_start=start,
            prev_delta=delta,
            state=STATE_OPEN,
            generation=gen,
        )
        assert codec.decode_data(codec.encode_data(ds)) == ds


def generic_encode(codec, ds):
    """``encode_data`` as the declarative layout builds it (Fig. 5b)."""
    n, bits = codec.words_per_slice, codec.home_addr_bits
    addr_bytes = (n * bits + 7) // 8
    meta = BitStruct(
        [
            Field("next_offset", 24),
            Field("tx_id", 32),
            Field("start", 1),
            Field("count", 3),
            Field("state", 4),
            Field("generation", 8),
            Field("checksum", 16),
        ],
        total_bytes=SLICE_BYTES - n * 8 - addr_bytes - 1,
    )
    payload = b"".join(value for _, value in ds.words).ljust(n * 8, b"\0")
    payload += sum(
        addr // 8 << i * bits for i, (addr, _) in enumerate(ds.words)
    ).to_bytes(addr_bytes, "little")
    packed = meta.pack(
        {
            "next_offset": (
                2**24 - 1 if ds.prev_delta is None else ds.prev_delta
            ),
            "tx_id": ds.tx_id,
            "start": int(ds.is_start),
            "count": len(ds.words) - 1,
            "state": ds.state,
            "generation": ds.generation & 0xFF,
        }
    )
    packed = meta.with_field(
        packed, "checksum", zlib.crc32(payload + packed) & 0xFFFF
    )
    return payload + packed + bytes([KIND_DATA])


_CODECS = [SliceCodec(40), SliceCodec.for_home_bits(64), SliceCodec(40, 3)]


@st.composite
def _slice_for(draw, codec):
    n = draw(
        st.sampled_from([1, codec.words_per_slice])
        | st.integers(1, codec.words_per_slice)
    )
    addrs = draw(
        st.lists(
            st.integers(0, 2**codec.home_addr_bits - 1),
            min_size=n, max_size=n, unique=True,
        )
    )
    return DataSlice(
        tx_id=draw(st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)),
        words=tuple(
            (index * 8, draw(st.binary(min_size=8, max_size=8)))
            for index in addrs
        ),
        is_start=draw(st.booleans()),
        prev_delta=draw(
            st.sampled_from([None, 0, 1, MAX_PREV_DELTA])
            | st.integers(0, MAX_PREV_DELTA)
        ),
        state=draw(st.sampled_from([STATE_OPEN, STATE_LAST]) | st.integers(0, 15)),
        generation=draw(st.sampled_from([0, 255, 256]) | st.integers(0, 511)),
    )


class TestDataSliceEncoder:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), which=st.sampled_from(range(len(_CODECS))))
    def test_equals_the_generic_bitstruct_construction(self, data, which):
        codec = _CODECS[which]
        ds = data.draw(_slice_for(codec))
        raw = codec.encode_data(ds)
        assert raw == generic_encode(codec, ds)
        back = SliceCodec(
            codec.home_addr_bits, codec.words_per_slice
        )._decode_data_uncached(raw)
        assert back.words == ds.words
        assert back.generation == ds.generation & 0xFF

    @pytest.mark.parametrize(
        "bad",
        [
            {"tx_id": 2**32},
            {"tx_id": -1},
            # 2**24 - 1 marks "no predecessor": accepted as a hop, it
            # decoded as prev_delta=None, a silent chain break.
            {"prev_delta": MAX_PREV_DELTA + 1},
            {"prev_delta": 2**24},
            {"prev_delta": -1},
            {"state": 16},
            {"state": -1},
            {"words": ()},
        ],
    )
    def test_rejects_values_its_fields_cannot_hold(self, codec, bad):
        ds = DataSlice(**{"tx_id": 1, "words": ((8, b"x" * 8),), **bad})
        with pytest.raises(ValueError):
            codec.encode_data(ds)


class TestAddressSlices:
    def test_round_trip(self, codec):
        page = AddressSlice(
            entries=[
                AddressSliceEntry(tx_id=1, tail_slice=100, committed=True),
                AddressSliceEntry(
                    tx_id=2, tail_slice=200, committed=False, retired=True
                ),
            ],
            sequence=5,
        )
        back = codec.decode_addr(codec.encode_addr(page))
        assert back.entries == page.entries
        assert back.sequence == 5

    def test_kind_tag(self, codec):
        assert SliceCodec.kind_of(codec.encode_addr(AddressSlice())) == (
            KIND_ADDR
        )

    def test_capacity(self, codec):
        assert codec.entries_per_addr_slice >= 13
        entries = [
            AddressSliceEntry(tx_id=i, tail_slice=i)
            for i in range(codec.entries_per_addr_slice)
        ]
        page = AddressSlice(entries=entries)
        assert codec.decode_addr(codec.encode_addr(page)).entries == entries

    def test_overflow_rejected(self, codec):
        entries = [
            AddressSliceEntry(tx_id=i, tail_slice=i)
            for i in range(codec.entries_per_addr_slice + 1)
        ]
        with pytest.raises(ValueError):
            codec.encode_addr(AddressSlice(entries=entries))

    def test_corruption_detected(self, codec):
        raw = bytearray(
            codec.encode_addr(
                AddressSlice(
                    entries=[AddressSliceEntry(tx_id=1, tail_slice=1)]
                )
            )
        )
        raw[10] ^= 0x55
        with pytest.raises(CorruptionError):
            codec.decode_addr(bytes(raw))

    def test_tx_id_beyond_32_bits_rejected(self, codec):
        # It used to be ORed into the tail bits: 2**32 + 5 decoded as 5.
        for tx_id in (2**32 + 5, -1):
            with pytest.raises(ValueError):
                codec.encode_addr(
                    AddressSlice(
                        entries=[AddressSliceEntry(tx_id=tx_id, tail_slice=1)]
                    )
                )
        page = AddressSlice(
            entries=[AddressSliceEntry(tx_id=2**32 - 1, tail_slice=2**34 - 1)]
        )
        assert codec.decode_addr(codec.encode_addr(page)).entries == page.entries

    def test_huge_tail_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encode_addr(
                AddressSlice(
                    entries=[AddressSliceEntry(tx_id=1, tail_slice=2**34)]
                )
            )


class TestVariablePacking:
    def test_40_bit_packs_eight(self):
        assert SliceCodec.for_home_bits(40).words_per_slice == 8

    def test_64_bit_packs_seven(self):
        # The paper's large-capacity case: wider addresses shrink N while
        # the slice still fits two cache lines.
        codec = SliceCodec.for_home_bits(64)
        assert codec.words_per_slice == 7

    def test_packing_monotonically_shrinks(self):
        previous = 9
        for bits in (32, 40, 48, 56, 64):
            n = SliceCodec.for_home_bits(bits).words_per_slice
            assert n <= previous
            previous = n

    def test_small_codec_round_trip(self):
        codec = SliceCodec.for_home_bits(64)
        words = tuple(
            (i * 8, bytes([i]) * 8) for i in range(codec.words_per_slice)
        )
        ds = DataSlice(tx_id=1, words=words)
        assert codec.decode_data(codec.encode_data(ds)).words == words

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            SliceCodec(home_addr_bits=7)
        with pytest.raises(ValueError):
            SliceCodec(home_addr_bits=40, words_per_slice=0)
