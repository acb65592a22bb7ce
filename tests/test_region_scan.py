"""The shared region scan against its one-slice-at-a-time reference.

Recovery reads every busy OOP block with one ``peek``, finds the slots of
a kind from the strided tag bytes, decodes each distinct commit-log page
once through the codec's address memo, and walks chains through the data
slices the scan already decoded.  Each shortcut is checked here against
the slow way — a 128-byte ``peek`` per slot, ``kind_of``, an unmemoized
decode — and must return *equal* results, not approximately equal ones.
The reference lives here, not in ``src/``.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemorySystem, SystemConfig
from repro.common.config import WRITES, Cut, FaultConfig
from repro.common.errors import CorruptionError, PowerLossError
from repro.common.units import MB
from repro.core.commit_log import CommitLog, CommittedTx
from repro.core.controller import HoopController, HoopScheme
from repro.core.gc import RETIRE_WATERMARK_ADDR
from repro.core.multi_controller import MultiControllerHoopScheme
from repro.core.oop_region import BlockState, _encode_header
from repro.core.recovery import BlockReader
from repro.core.slices import (
    KIND_ADDR,
    KIND_DATA,
    SLICE_BYTES,
    STATE_LAST,
    STATE_OPEN,
    AddressSlice,
    AddressSliceEntry,
    DataSlice,
    SliceCodec,
)
from repro.nvm.device import NVMDevice
from repro.snapshot import capture

# -- (a) scan() == per-slice peek + kind_of + decode ---------------------------

_SLOTS = 15  # 2 KB blocks: a header slice and fifteen slots
_BLOCKS = 5
_CODEC = SliceCodec()

# Few transaction ids and tails, so pages, STATE_LAST slices, retired
# entries and the watermark keep naming the same transactions.
_tx_ids = st.integers(1, 12)

_data_raw = st.builds(
    DataSlice,
    tx_id=_tx_ids,
    words=st.lists(
        st.tuples(
            st.integers(0, 63).map(lambda index: 0x4000 + index * 8),
            st.binary(min_size=8, max_size=8),
        ),
        min_size=1,
        max_size=8,
    ).map(tuple),
    prev_delta=st.one_of(st.none(), st.integers(1, _SLOTS)),
    state=st.sampled_from([STATE_OPEN, STATE_LAST, STATE_LAST]),
    generation=st.integers(0, 1),  # block generations are 0..1 too
).map(_CODEC.encode_data)

_addr_raw = st.builds(
    AddressSlice,
    entries=st.lists(
        st.builds(
            AddressSliceEntry,
            tx_id=_tx_ids,
            tail_slice=st.integers(0, _BLOCKS * _SLOTS - 1),
            committed=st.booleans(),
            retired=st.booleans(),
        ),
        max_size=_CODEC.entries_per_addr_slice,
    ),
    sequence=st.integers(0, 3),
).map(_CODEC.encode_addr)


def _flip(raw_and_where):
    raw, index, bits = raw_and_where
    torn = bytearray(raw)
    torn[index] ^= bits
    return bytes(torn)


_slot = st.one_of(
    st.just(bytes(SLICE_BYTES)),  # free
    _data_raw,
    _addr_raw,
    # Torn: one flipped byte anywhere, the kind tag included.
    st.tuples(
        st.one_of(_data_raw, _addr_raw),
        st.integers(0, SLICE_BYTES - 1),
        st.integers(1, 255),
    ).map(_flip),
    # Intact but for the tag's unused high nibble, which the checksum
    # does not cover: still a slice of its kind.
    st.tuples(
        st.one_of(_data_raw, _addr_raw),
        st.just(SLICE_BYTES - 1),
        st.sampled_from([0x10, 0x80, 0xF0]),
    ).map(_flip),
    st.binary(min_size=SLICE_BYTES, max_size=SLICE_BYTES),  # garbage
)

# Any slot kind in any block: stale data slices sit in address blocks
# and pages in data blocks.  ``None`` is a header that fails its checksum.
_block = st.tuples(
    st.one_of(st.none(), st.sampled_from(list(BlockState))),
    st.sampled_from(["data", "addr"]),
    st.integers(0, 1),
    st.lists(_slot, min_size=_SLOTS, max_size=_SLOTS),
)


def _controller_with_image(blocks, watermark):
    config = SystemConfig.small(nvm_capacity=16 * MB)
    config = config.replace(
        hoop=dataclasses.replace(
            config.hoop, oop_block_bytes=(_SLOTS + 1) * SLICE_BYTES
        )
    )
    device = NVMDevice(config.nvm)
    controller = HoopController(config, device)
    region = controller.region
    assert region.slots_per_block == _SLOTS
    for index, (state, stream, generation, slots) in enumerate(blocks):
        if state is None:
            header = bytes([0xFF]) * SLICE_BYTES
        else:
            header = _encode_header(index, None, state, stream, generation)
            header += bytes(SLICE_BYTES - len(header))
        device.poke(region.block_base(index), header + b"".join(slots))
    region._touched = set(range(len(blocks)))
    device.poke(RETIRE_WATERMARK_ADDR, watermark.to_bytes(8, "little"))
    return controller


def _reference_analysis(log):
    """The commit log's logged, open and known transactions, pass by pass."""
    entries = [entry for page in log._pages for entry in page.entries]
    segments = {}
    committed_ids = []
    for entry in entries:
        if entry.retired:
            segments.pop(entry.tx_id, None)
            continue
        segments.setdefault(entry.tx_id, []).append(entry.tail_slice)
        if entry.committed:
            committed_ids.append(entry.tx_id)
    logged = [
        CommittedTx(tx_id, tuple(segments[tx_id]))
        for tx_id in committed_ids
        if tx_id in segments
    ]
    open_segments = {}
    for entry in entries:
        if not entry.committed and not entry.retired:
            open_segments.setdefault(entry.tx_id, []).append(entry.tail_slice)
    return logged, open_segments, {entry.tx_id for entry in entries}


def _reference_scan(controller):
    """Recovery step 1 the slow way; returns what ``scan()`` must."""
    region = controller.region
    device = controller.port.device
    codec = SliceCodec(  # its own codec: nothing here is memoized
        controller.codec.home_addr_bits, controller.codec.words_per_slice
    )
    log = CommitLog(region, codec)
    region.rebuild_from_nvm()
    busy = [
        b
        for b in range(region.num_blocks)
        if region.state_of(b) != BlockState.UNUSED
    ]
    scanned = len(busy) * SLICE_BYTES
    pages = []
    for block in busy:
        if region.stream_of(block) != "addr":
            continue
        for slice_index in region.iter_block_slices(block):
            raw = device.peek(region.slice_addr(slice_index), SLICE_BYTES)
            scanned += SLICE_BYTES
            if SliceCodec.kind_of(raw) != KIND_ADDR:
                continue
            try:
                entries, sequence = codec._decode_addr_uncached(raw)
            except CorruptionError:
                continue
            pages.append((slice_index, entries, sequence))
    log.rebuild(pages)
    logged, open_segments, known = _reference_analysis(log)
    watermark = int.from_bytes(device.peek(RETIRE_WATERMARK_ADDR, 8), "little")
    finalized = {tx.tx_id for tx in logged}
    retired_only = known - finalized - set(open_segments)
    unlogged = []
    for block in busy:
        if region.stream_of(block) != "data":
            continue
        for slice_index in region.iter_block_slices(block):
            raw = device.peek(region.slice_addr(slice_index), SLICE_BYTES)
            scanned += SLICE_BYTES
            if SliceCodec.kind_of(raw) != KIND_DATA:
                continue
            try:
                ds = codec._decode_data_uncached(raw)
            except CorruptionError:
                continue
            if (
                ds.state != STATE_LAST
                or ds.generation != region.generation_of(block)
                or ds.tx_id <= watermark
                or ds.tx_id in finalized
                or ds.tx_id in retired_only
            ):
                continue
            tails = open_segments.get(ds.tx_id, []) + [slice_index]
            unlogged.append(CommittedTx(ds.tx_id, tuple(tails)))
            finalized.add(ds.tx_id)
    return list(log._pages), logged, unlogged, scanned


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(_block, min_size=1, max_size=_BLOCKS),
    watermark=st.integers(0, 6),
)
def test_scan_equals_the_per_slice_reference(blocks, watermark):
    controller = _controller_with_image(blocks, watermark)
    pages, logged, unlogged, scanned = _reference_scan(controller)

    scan = controller.recovery.scan()
    log = controller.commit_log
    assert log._pages == pages
    assert scan.logged == logged
    assert scan.unlogged == unlogged
    assert scan.bytes_scanned == scanned
    # The replay reads chains through the same buffers.
    region = controller.region
    for slice_index in range(len(blocks) * _SLOTS):
        assert scan.reader.slice_raw(slice_index) == controller.device.peek(
            region.slice_addr(slice_index), SLICE_BYTES
        )

    # A second pass over the same image hits the codec's memos and the
    # recovery memo, decodes nothing, and agrees.
    with mock.patch.object(
        SliceCodec, "decode_data", side_effect=AssertionError
    ), mock.patch.object(SliceCodec, "decode_addr", side_effect=AssertionError):
        again = controller.recovery.scan()
    assert (again.logged, again.unlogged, again.bytes_scanned) == (
        logged, unlogged, scanned
    )
    assert again.reader.decoded == scan.reader.decoded


# -- (b) the address memo ------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    raw=_addr_raw,
    index=st.integers(0, SLICE_BYTES - 1),
    flip=st.integers(1, 255),
)
def test_a_torn_copy_of_a_cached_page_still_faces_its_checksum(
    raw, index, flip
):
    codec = SliceCodec()
    page = codec.decode_addr(raw)
    assert raw in codec._addr_cache
    torn = _flip((raw, index, flip))

    def outcome(decode):
        try:
            return decode(torn)
        except CorruptionError as exc:
            return str(exc)

    entries_or_error = outcome(SliceCodec()._decode_addr_uncached)
    for _ in range(2):  # the miss, then the memoized answer
        got = outcome(codec.decode_addr)
        if isinstance(got, AddressSlice):
            got = (tuple(got.entries), got.sequence)
        assert got == entries_or_error
    if index < SLICE_BYTES - 1:
        # Header and payload are under the checksum.  (The tag's high
        # nibble is not: such a copy decodes, to the same page.)
        assert isinstance(entries_or_error, str)
    assert codec.decode_addr(raw) == page


@settings(max_examples=60, deadline=None)
@given(raw=_addr_raw)
def test_a_returned_page_is_the_callers_to_mutate(raw):
    codec = SliceCodec()
    first = codec.decode_addr(raw)
    expected = dataclasses.replace(first, entries=list(first.entries))
    # What CommitLog.retire and append_entry do to a rebuilt page.
    first.entries[:1] = [AddressSliceEntry(tx_id=99, tail_slice=0, retired=True)]
    first.entries.append(AddressSliceEntry(tx_id=100, tail_slice=1))
    first.sequence += 7
    with mock.patch.object(
        codec, "_decode_addr_uncached", wraps=codec._decode_addr_uncached
    ) as uncached:
        second = codec.decode_addr(raw)
    assert uncached.call_count == 0
    assert second == expected
    assert second.entries is not first.entries


@settings(max_examples=60, deadline=None)
@given(data=_data_raw, addr=_addr_raw)
def test_each_memo_answers_for_its_own_kind_only(data, addr):
    codec = SliceCodec()
    ds = codec.decode_data(data)
    page = codec.decode_addr(addr)
    assert data not in codec._addr_cache
    assert addr not in codec._decode_cache
    with pytest.raises(CorruptionError, match="not an address"):
        codec.decode_addr(data)
    with pytest.raises(CorruptionError, match="not a data"):
        codec.decode_data(addr)
    assert codec.decode_data(data) == ds
    assert codec.decode_addr(addr) == page


# -- (c) one hoop-mc crash case, counted ---------------------------------------


def test_hoop_mc_crash_case_call_counts():
    rng = random.Random(16)
    system = MemorySystem(SystemConfig.small(), scheme="hoop-mc")
    addrs = [system.allocate(64) for _ in range(24)]
    oracle = {}
    for _ in range(300):
        with system.transaction(rng.randrange(4)) as tx:
            for _ in range(rng.randint(1, 6)):
                addr = rng.choice(addrs) + 8 * rng.randrange(8)
                value = rng.getrandbits(64).to_bytes(8, "little")
                tx.store(addr, value)
                oracle[addr] = value
    system.crash()
    crashed = capture(system)

    # What the crashed image holds, read the slow way.
    peek_budget = 0
    page_raws = []
    for controller in system.scheme.controllers:
        region = controller.region
        region.rebuild_from_nvm()
        busy = [
            b
            for b in range(region.num_blocks)
            if region.state_of(b) != BlockState.UNUSED
        ]
        # Touched-block headers, one read per busy block, the watermark.
        peek_budget += len(region._touched) + len(busy) + 1
        for block in busy:
            if region.stream_of(block) != "addr":
                continue
            for slice_index in region.iter_block_slices(block):
                raw = system.device.peek(
                    region.slice_addr(slice_index), SLICE_BYTES
                )
                if SliceCodec.kind_of(raw) == KIND_ADDR:
                    page_raws.append(raw)
    assert len(page_raws) >= 4  # both controllers logged several pages

    def counted(owner, name):
        return mock.patch.object(
            owner, name, autospec=True, side_effect=getattr(owner, name)
        )

    for decoded_expected, uncached_expected in (
        (len(page_raws), len(set(page_raws))), (0, 0)
    ):
        # The first recovery decodes each distinct page once; a second
        # crash case over the same image (a restored snapshot shares the
        # codecs and each controller's recovery memo) reuses every page
        # the first one found and asks the codec for none.
        case = crashed.restore()
        with counted(NVMDevice, "peek") as peek, counted(
            SliceCodec, "decode_addr"
        ) as decode_addr, counted(
            SliceCodec, "_decode_addr_uncached"
        ) as uncached:
            case.recover(threads=2)
        assert peek.call_count <= peek_budget
        assert decode_addr.call_count == decoded_expected
        assert uncached.call_count == uncached_expected
        for addr, value in oracle.items():
            assert case.durable_state(addr, 8) == value


# -- (d) walk_tx through the scan's decodes == the per-slice walk ---------------


def _reference_walk(controller, tx):
    """A chain walk the slow way: a peek and an unmemoized decode per slice."""
    region = controller.region
    device = controller.port.device
    codec = SliceCodec(
        controller.codec.home_addr_bits, controller.codec.words_per_slice
    )
    total = region.num_blocks * region.slots_per_block
    newest_first = []
    slices = 0
    for tail in reversed(tx.segment_tails):
        cursor = tail
        while cursor is not None:
            raw = device.peek(region.slice_addr(cursor), SLICE_BYTES)
            slices += 1
            try:
                ds = codec._decode_data_uncached(raw)
            except CorruptionError:
                break
            block, _ = region.slice_location(cursor)
            if (
                ds.tx_id != tx.tx_id
                or ds.generation != region.generation_of(block)
            ):
                break
            newest_first.extend(reversed(ds.words))
            cursor = (
                None if ds.prev_delta is None
                else (cursor - ds.prev_delta) % total
            )
    newest_first.reverse()
    return newest_first, slices


def _walks_agree(controller, scan, tx):
    """``walk_tx`` three ways; returns the agreed ``(words, slices)``."""
    recovery = controller.recovery
    words, slices = recovery.walk_tx(scan.reader, tx)
    fresh_words, fresh_slices = recovery.walk_tx(
        BlockReader(controller.region), tx
    )
    reference = _reference_walk(controller, tx)
    assert (list(words), slices) == (list(fresh_words), fresh_slices)
    assert (list(words), slices) == reference
    return reference


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(_block, min_size=1, max_size=_BLOCKS),
    watermark=st.integers(0, 6),
    extra=st.lists(
        st.builds(
            CommittedTx,
            tx_id=_tx_ids,
            segment_tails=st.lists(
                st.integers(0, _BLOCKS * _SLOTS - 1), min_size=1, max_size=3
            ).map(tuple),
        ),
        max_size=6,
    ),
)
def test_walk_through_the_scan_equals_the_per_slice_walk(
    blocks, watermark, extra
):
    # Chains hop across torn, free, stale-generation and other-tx slots.
    controller = _controller_with_image(blocks, watermark)
    scan = controller.recovery.scan()
    region = controller.region
    for index, ds in scan.reader.decoded.items():
        block, _ = region.slice_location(index)
        assert ds.generation == region.generation_of(block)
    for tx in scan.logged + scan.unlogged + extra:
        _walks_agree(controller, scan, tx)


def _controllers(system):
    """The HOOP controllers behind ``system`` (none for a baseline)."""
    scheme = system.scheme
    if isinstance(scheme, MultiControllerHoopScheme):
        return scheme.controllers
    return [scheme.controller] if isinstance(scheme, HoopScheme) else []


def _crashed(scheme, boundary, torn):
    """A machine cut at its ``boundary``-th write (if it gets that far).

    Transactions of up to twenty words span several slices, and a GC
    pass every twenty transactions reclaims blocks, so later slices land
    in blocks whose older slots are of a stale generation.
    """
    cuts = () if boundary is None else (Cut(WRITES, boundary, torn),)
    faults = FaultConfig(enabled=True, seed=7, schedule=cuts)
    system = MemorySystem(SystemConfig.small().replace(faults=faults), scheme)
    rng = random.Random(21)
    addrs = [system.allocate(64) for _ in range(24)]
    try:
        for index in range(160):
            with system.transaction(rng.randrange(4)) as tx:
                for _ in range(rng.randint(1, 20)):
                    addr = rng.choice(addrs) + 8 * rng.randrange(8)
                    tx.store(addr, rng.getrandbits(64).to_bytes(8, "little"))
            if index % 20 == 19:
                for controller in _controllers(system):
                    controller.gc.run(system.now_ns, on_demand=True)
    except PowerLossError:
        assert system.device.injector.power_lost
    return system


@pytest.mark.parametrize("scheme", ["hoop", "hoop-mc"])
@pytest.mark.parametrize("torn", [False, True])
def test_walk_on_crashed_images_equals_the_per_slice_walk(scheme, torn):
    total = _crashed(scheme, None, torn).device.stats.writes
    shapes = {"multi-slice": 0, "placeholder": 0, "stale": 0}
    for boundary in (total // 5, total // 2, total * 4 // 5, total * 9 // 10):
        system = _crashed(scheme, boundary, torn)
        system.crash()
        for controller in _controllers(system):
            scan = controller.recovery.scan()
            region = controller.region
            shapes["stale"] += sum(
                1 for block in range(region.num_blocks)
                if region.generation_of(block)
            )
            for tx in scan.logged + scan.unlogged:
                words, slices = _walks_agree(controller, scan, tx)
                shapes["multi-slice"] += slices > 1
                # A hoop-mc controller the transaction never touched
                # logs it with a placeholder tail: a chain of no words.
                shapes["placeholder"] += not words
    assert shapes["multi-slice"] > 0 and shapes["stale"] > 0
    assert (shapes["placeholder"] > 0) == (scheme == "hoop-mc")
