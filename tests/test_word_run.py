"""The word-run write path against its one-word-at-a-time reference.

``tx_store`` hands the OOP data buffer one run per store piece, a
buffered word maps to its core's one marker, the slice codec seeds its
decode memo from what it encodes, and GC's home writes reach the device
as one batch per line.  Each shortcut is checked here against the same
entry point fed the slow way — a run of one word, the deleted per-store
sequence numbers, a real decode, one ``write`` per element — and must
leave *equal* state, not approximately equal state.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    AT_NS,
    OPS,
    WRITES,
    Cut,
    FaultConfig,
    NVMConfig,
    SystemConfig,
)
from repro.common.errors import (
    AddressError,
    CorruptionError,
    PowerLossError,
    TransactionError,
)
from repro.common.units import MB
from repro.core.block_refs import BlockRefs
from repro.core.eviction_buffer import EvictionBuffer
from repro.core.gc import RETIRE_WATERMARK_ADDR, GarbageCollector
from repro.core.mapping_table import MappingTable
from repro.core.oop_buffer import OOPDataBuffer
from repro.core.oop_region import OOPRegion
from repro.core.slices import (
    MAX_PREV_DELTA,
    SLICE_BYTES,
    STATE_LAST,
    STATE_OPEN,
    DataSlice,
    SliceCodec,
)
from repro.faults.injector import FaultyNVMDevice
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice
from repro.serve import ServeConfig
from repro.serve.cluster import ServeCluster
from repro.snapshot import clone_state

LINE = 64


# -- (a) add_words == the same words as runs of one ---------------------------


def _buffer_rig(words_per_slice: int, condense: bool):
    config = SystemConfig.small(nvm_capacity=16 * MB)
    device = NVMDevice(config.nvm)
    region = OOPRegion(config, MemoryPort(device))
    codec = SliceCodec(config.hoop.home_addr_bits, words_per_slice)
    mapping = MappingTable(
        config.hoop.mapping_table_entries, condense=condense
    )
    return device, mapping, OOPDataBuffer(config, region, codec, mapping)


def _buffer_state(device, mapping, buffer):
    return (
        buffer._cores[0].pending,
        buffer._cores[0].segments,
        buffer._cores[0].last_slice,
        buffer.stats,
        {line: dict(words) for line, words in mapping._lines.items()},
        mapping._condensed,
        mapping.entries,
        mapping.stats,
        device.content_fingerprint(),
        device.stats,
    )


# A store piece: (line number, offset in the line, length, line content).
# Four lines only, so pieces repeat words (dedupe) and fill lines
# (condensing); up to 64 bytes, so one piece can overflow a slice once at
# eight words per slice and twice at three.
_piece = st.tuples(
    st.integers(0, 3),
    st.integers(0, LINE - 1),
    st.integers(1, LINE),
    st.binary(min_size=LINE, max_size=LINE),
).map(lambda p: (p[0], p[1], min(p[2], LINE - p[1]), p[3]))
_pieces = st.lists(_piece, min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    pieces=_pieces,
    words_per_slice=st.sampled_from([8, 3]),
    condense=st.booleans(),
)
def test_add_words_equals_runs_of_one(pieces, words_per_slice, condense):
    run = _buffer_rig(words_per_slice, condense)
    ref = _buffer_rig(words_per_slice, condense)
    run[2].begin(0, tx_id=9)
    ref[2].begin(0, tx_id=9)
    for line, offset, length, data in pieces:
        line_addr = 0x4000 + line * LINE
        addr = line_addr + offset
        run[2].add_words(0, addr, length, line_addr, data, 5.0)
        for word_addr in range(addr & ~7, addr + length, 8):
            ref[2].add_words(0, word_addr, 8, line_addr, data, 5.0)
        assert _buffer_state(*run) == _buffer_state(*ref)
    assert run[2].tx_end(0, 9.0) == ref[2].tx_end(0, 9.0)
    assert _buffer_state(*run) == _buffer_state(*ref)


# -- (a') the core marker == the deleted per-store seq --------------------------
#
# A buffered word used to map to its own five-field entry carrying a
# global store number, and a flush repointed an entry only while it still
# carried the flushed store's number.  Now every word a core buffers maps
# to the core's one marker and a flush repoints an entry while it is still
# the flushing core's marker.  The classes below are the deleted rule,
# kept as the reference.


class _SeqLocation(NamedTuple):
    """The deleted mapping entry."""

    in_buffer: bool
    slice_index: int
    word_slot: int
    seq: int
    tx_id: int


_SeqLocation.__snapshot_state__ = "__atom__"


class _SeqMapping(MappingTable):
    def relocate_flushed(self, addrs, slice_index, flushed):
        """``flushed`` stands in for the core marker: ``(tx_id, seqs)``,
        the flushing transaction and each word's store number, in
        ``addrs``' slot order."""
        tx_id, seqs = flushed
        for slot, (word_addr, seq) in enumerate(zip(addrs, seqs)):
            line = word_addr & ~(LINE - 1)
            entries = self._lines.get(line)
            if entries is None:
                continue
            current = entries.get(word_addr)
            if current is not None and current.seq == seq and current.in_buffer:
                entries[word_addr] = _SeqLocation(
                    False, slice_index, slot, seq, tx_id
                )
                if self.condense:
                    self._recheck_condensed(line)


class _SeqBuffer(OOPDataBuffer):
    """A pending word is ``(value, seq)``; every store takes the next seq."""

    seq = 0

    def add_words(self, core, addr, size, line_addr, line_data, now_ns):
        entry = self._cores[core]
        if entry.tx_id is None:
            raise TransactionError(f"core {core} has no open transaction")
        pending = entry.pending
        for word_addr in range(addr & ~7, addr + size, 8):
            self.seq += 1
            if word_addr in pending:
                self.stats.words_deduped += 1
            else:
                self.stats.words_buffered += 1
            offset = word_addr - line_addr
            pending[word_addr] = (line_data[offset : offset + 8], self.seq)
            self.mapping.record(
                word_addr, _SeqLocation(True, core, 0, self.seq, entry.tx_id)
            )
            if len(pending) > self._words_per_slice:
                self._flush_slice(core, now_ns, sync=False, last=False)

    def _flush_slice(self, core, now_ns, *, sync, last):
        entry = self._cores[core]
        words = list(islice(entry.pending.items(), self._words_per_slice))
        slice_index = self.region.allocate_slice(now_ns, stream="data")
        prev_delta = None
        if entry.segment_open:
            delta = (slice_index - entry.last_slice) % self._total_slices
            if 0 < delta <= MAX_PREV_DELTA:
                prev_delta = delta
            else:
                entry.segments.append(entry.last_slice)
                self.stats.segment_splits += 1
        block, _ = self.region.slice_location(slice_index)
        ds = DataSlice(
            tx_id=entry.tx_id,
            words=tuple((addr, value) for addr, (value, _seq) in words),
            is_start=prev_delta is None,
            prev_delta=prev_delta,
            state=STATE_LAST if last else STATE_OPEN,
            generation=self.region.generation_of(block),
        )
        raw = self.codec.encode_data(ds)
        completion = self.region.write_slice(slice_index, raw, now_ns, sync=sync)
        self._on_slice_written(entry.tx_id, block)
        self.mapping.relocate_flushed(
            tuple(addr for addr, _pending in words),
            slice_index,
            (entry.tx_id, [seq for _addr, (_value, seq) in words]),
        )
        for addr, _pending in words:
            del entry.pending[addr]
        entry.last_slice = slice_index
        entry.segment_open = True
        self.stats.slices_written += 1
        if sync:
            self.stats.sync_slices += 1
        return completion


def _marker_rig(words_per_slice, condense, seq_rule):
    config = SystemConfig.small(nvm_capacity=16 * MB)
    device = NVMDevice(config.nvm)
    region = OOPRegion(config, MemoryPort(device))
    codec = SliceCodec(config.hoop.home_addr_bits, words_per_slice)
    table, buffer = (
        (_SeqMapping, _SeqBuffer) if seq_rule else (MappingTable, OOPDataBuffer)
    )
    mapping = table(config.hoop.mapping_table_entries, condense=condense)
    refs = BlockRefs()
    return device, mapping, buffer(
        config, region, codec, mapping,
        on_slice_written=refs.on_slice_written,
    ), refs


def _marker_state(device, mapping, buffer, refs):
    return (
        # (in_buffer, slice_index, word_slot) of every mapped word.
        {
            line: {addr: tuple(loc[:3]) for addr, loc in words.items()}
            for line, words in mapping._lines.items()
        },
        mapping.entries,
        mapping._condensed,
        mapping.stats,
        [
            (
                entry.tx_id,
                {a: v if type(v) is bytes else v[0] for a, v in entry.pending.items()},
                entry.last_slice,
                entry.segments,
            )
            for entry in map(
                buffer._cores.__getitem__, range(buffer.config.num_cores)
            )
        ],
        buffer.stats,
        dict(refs._block_txs),
        refs._tx_blocks,
        device.content_fingerprint(),
        device.stats,
    )


# ("store", core, piece) | ("end", core) | ("clone",): three cores over
# the same four lines, so cores store to each other's buffered words.
_CORES = st.integers(0, 2)
_marker_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), _CORES, _piece),
        st.tuples(st.just("store"), _CORES, _piece),
        st.tuples(st.just("end"), _CORES),
        st.just(("clone",)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(
    ops=_marker_ops,
    words_per_slice=st.sampled_from([8, 3]),
    condense=st.booleans(),
)
def test_core_markers_relocate_exactly_like_store_seqs(
    ops, words_per_slice, condense
):
    run = _marker_rig(words_per_slice, condense, seq_rule=False)
    ref = _marker_rig(words_per_slice, condense, seq_rule=True)
    tx_ids = iter(range(1, len(ops) + 1))
    for step, op in enumerate(ops):
        now = 5.0 * step
        if op[0] == "clone":
            run, ref = clone_state(run), clone_state(ref)
            continue
        core = op[1]
        if op[0] == "store":
            if run[2].open_tx(core) is None:
                tx_id = next(tx_ids)
                for rig in (run, ref):
                    rig[3].on_tx_begin(tx_id)
                    rig[2].begin(core, tx_id)
            line, offset, length, data = op[2]
            line_addr = 0x4000 + line * LINE
            for rig in (run, ref):
                rig[2].add_words(
                    core, line_addr + offset, length, line_addr, data, now
                )
        elif run[2].open_tx(core) is not None:
            tx_id = run[2].open_tx(core)
            assert run[2].tx_end(core, now) == ref[2].tx_end(core, now)
            run[3].on_tx_commit(tx_id)
            ref[3].on_tx_commit(tx_id)
        assert _marker_state(*run) == _marker_state(*ref)
    # Every buffered word maps to its core's one marker.
    markers = run[2]._markers
    for _addr, loc in run[1].iter_words():
        assert not loc.in_buffer or loc is markers[loc.slice_index]


# -- (b) the decode memo is seeded by encode_data, and only for intact bytes --

_words = st.lists(
    st.tuples(
        st.integers(0, (1 << 40) - 1).map(lambda index: index * 8),
        st.binary(min_size=8, max_size=8),
    ),
    min_size=1,
    max_size=8,
).map(tuple)

_slices = st.builds(
    DataSlice,
    tx_id=st.integers(0, (1 << 32) - 1),
    words=_words,
    is_start=st.booleans(),
    prev_delta=st.one_of(st.none(), st.integers(1, MAX_PREV_DELTA)),
    state=st.sampled_from([STATE_OPEN, STATE_LAST]),
    generation=st.integers(0, 255),
)


@settings(max_examples=150, deadline=None)
@given(
    ds=_slices,
    index=st.integers(0, SLICE_BYTES - 1),
    flip=st.integers(1, 255),
)
def test_encode_seeds_the_decode_memo_for_intact_bytes_only(ds, index, flip):
    codec = SliceCodec()
    with mock.patch.object(
        codec, "_decode_data_uncached", wraps=codec._decode_data_uncached
    ) as uncached:
        raw = codec.encode_data(ds)
        assert codec.decode_data(raw) == ds
        assert uncached.call_count == 0
        # What the memo holds is what a real decode returns.
        assert codec._decode_data_uncached(raw) == ds
        uncached.reset_mock()

        torn = bytearray(raw)
        torn[index] ^= flip
        if index == SLICE_BYTES - 1 and flip & 0xF == 0:
            # The kind tag's high nibble is outside the checksum and
            # unused: still a valid slice, but not the memoised bytes.
            assert codec.decode_data(bytes(torn)) == ds
        else:
            with pytest.raises(CorruptionError):
                codec.decode_data(bytes(torn))
        assert uncached.call_count == 1


def test_a_slice_not_in_decoded_form_is_left_for_a_real_decode():
    codec = SliceCodec()
    odd = DataSlice(tx_id=1, words=((8, b"x" * 8),), generation=0x105)
    raw = codec.encode_data(odd)
    assert raw not in codec._decode_cache
    assert codec.decode_data(raw).generation == 0x05


# -- (c) write_batch == one write(queued=True) per element --------------------

_NVM = NVMConfig(capacity=8 * MB)
_WEAR_BLOCK = 2 * MB

# Addresses near a page edge, a wear-block edge and the device's end, so
# single-page, page-crossing, block-crossing and out-of-range elements
# all occur; empty elements too.
_batch = st.lists(
    st.tuples(
        st.sampled_from([4096, _WEAR_BLOCK, 5 * 4096, _NVM.capacity]),
        st.integers(-72, 8),
        st.binary(min_size=0, max_size=64),
    ).map(lambda e: (e[0] + e[1], e[2])),
    min_size=0,
    max_size=10,
)


def _device_state(device: FaultyNVMDevice):
    channel = device.channel
    return (
        device.content_fingerprint(),
        device.stats,
        device.energy.read_pj,
        device.energy.write_pj,
        dict(device.wear._writes),
        device._open_row,
        channel.backlog_ns,
        channel._vtime_ns,
        channel._busy_integral,
        channel.stats,
        device.fault_stats,
        device.injector.power_lost,
        device.injector._armed,
        device.injector._left,
    )


def _run_both(arm, warm, batch, now_ns):
    """Apply ``batch`` batched and per element; return both outcomes."""
    outcomes = []
    for batched in (True, False):
        device = FaultyNVMDevice(
            _NVM, FaultConfig(enabled=True, seed=3),
            wear_block_bytes=_WEAR_BLOCK,
        )
        for addr, data in warm:
            device.write(addr, data, 10.0)
        arm(device.injector)
        error = None
        try:
            if batched:
                device.write_batch(batch, now_ns)
            else:
                for addr, data in batch:
                    if data:
                        device.write(addr, data, now_ns, queued=True)
        except (PowerLossError, AddressError) as exc:
            error = (type(exc), str(exc))
        outcomes.append((error, _device_state(device)))
    return outcomes


_warm = st.lists(
    st.tuples(
        st.integers(0, 6 * 4096 // 8).map(lambda i: i * 8),
        st.binary(min_size=8, max_size=64),
    ),
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(warm=_warm, batch=_batch, now_ns=st.sampled_from([0.0, 10.0, 250.5]))
def test_write_batch_on_an_inert_injector_equals_per_element_writes(
    warm, batch, now_ns
):
    with mock.patch.object(
        NVMDevice, "write_batch", autospec=True,
        side_effect=NVMDevice.write_batch,
    ) as base_batch:
        batched, per_element = _run_both(lambda inj: None, warm, batch, now_ns)
    assert batched == per_element
    in_range = all(
        0 <= addr and addr + len(data) <= _NVM.capacity
        for addr, data in batch
    )
    # The base-class batch ran exactly when every element was in range.
    assert base_batch.call_count == (1 if in_range else 0)


@settings(max_examples=120, deadline=None)
@given(
    warm=_warm,
    batch=_batch,
    now_ns=st.sampled_from([0.0, 10.0, 250.5]),
    cut=st.one_of(
        st.integers(0, 10).map(lambda k: Cut(WRITES, k, torn=True)),
        st.sampled_from([5.0, 10.0, 100.0, 1e6]).map(
            lambda t: Cut(AT_NS, t, torn=True)
        ),
        st.integers(0, 10).map(lambda k: Cut(OPS, k, torn=True)),
    ),
)
def test_an_armed_power_cut_lands_on_the_same_element(
    warm, batch, now_ns, cut
):
    def arm(injector):
        injector.arm_power_loss_at(cut)

    with mock.patch.object(
        NVMDevice, "write_batch", autospec=True,
        side_effect=NVMDevice.write_batch,
    ) as base_batch:
        batched, per_element = _run_both(arm, warm, batch, now_ns)
    # Same error (or none), same torn bytes, same counters, same PRNG use.
    assert batched == per_element
    assert base_batch.call_count == 0  # armed: always decomposed


# -- the whole path, counted on a fault-free replicated run -------------------


def test_fault_free_replicated_run_call_counts():
    writes = []
    device_write = FaultyNVMDevice.write

    def counted_write(self, addr, data, now_ns=0.0, *, queued=True):
        writes.append((addr, len(data)))
        return device_write(self, addr, data, now_ns, queued=queued)

    reports = []  # every GC pass, on every machine and crash image
    gc_run = GarbageCollector.run

    def counted_run(self, now_ns, *, on_demand):
        report = gc_run(self, now_ns, on_demand=on_demand)
        reports.append(report)
        return report

    forgotten = set()  # every slot's bytes of every block GC reclaimed
    gc_forget = GarbageCollector._forget_decodes

    def counted_forget(self, block):
        raw = self.region.port.device.peek(
            self.region.block_base(block), self.region.block_bytes
        )
        forgotten.update(
            raw[offset : offset + SLICE_BYTES]
            for offset in range(SLICE_BYTES, len(raw), SLICE_BYTES)
        )
        return gc_forget(self, block)

    with mock.patch.object(
        SliceCodec, "_decode_data_uncached", autospec=True,
        side_effect=SliceCodec._decode_data_uncached,
    ) as uncached, mock.patch.object(
        FaultyNVMDevice, "write", counted_write
    ), mock.patch.object(
        FaultyNVMDevice, "write_batch", autospec=True,
        side_effect=FaultyNVMDevice.write_batch,
    ) as faulty_batch, mock.patch.object(
        NVMDevice, "write_batch", autospec=True,
        side_effect=NVMDevice.write_batch,
    ) as base_batch, mock.patch.object(
        MappingTable, "record", autospec=True,
        side_effect=MappingTable.record,
    ) as record, mock.patch.object(
        EvictionBuffer, "insert", autospec=True,
        side_effect=EvictionBuffer.insert,
    ) as evict, mock.patch.object(
        GarbageCollector, "run", counted_run
    ), mock.patch.object(GarbageCollector, "_forget_decodes", counted_forget):
        cluster = ServeCluster(
            # One group takes the whole 3.2 M req/s: two shards at half
            # that each no longer fill a region fast enough to need
            # on-demand GC now that a backup commits each record once.
            ServeConfig(
                shards=1, replicas=1, read_fraction=0.1, rate_per_s=3.2e6,
                duration_ms=1.0, queue_depth=256, seed=5,
                verify_final=False,
            ),
        )
        cluster.run()
    controllers = [
        replica.system.scheme.controller
        for group in cluster.groups.values()
        for replica in group.replicas
    ]

    assert cluster.oracle_failures == []
    # Staging a word allocates no mapping entry: every buffered location
    # the tables were handed is one of the num_cores markers.
    markers = {id(m) for c in controllers for m in c.buffer._markers}
    assert len(markers) == len(controllers) * controllers[0].config.num_cores
    buffered = {
        id(call.args[2]) for call in record.call_args_list
        if call.args[2].in_buffer
    }
    assert buffered and buffered <= markers
    gc_stats = [c.gc.stats for c in controllers]
    assert sum(s.on_demand_passes for s in gc_stats) > 0
    migrated = sum(s.words_migrated for s in gc_stats)
    assert migrated > 0

    # GC and recovery read back only slices this process encoded: the
    # two replicas decode through one memo, so a real decode is only of
    # a slice one replica's GC forgot while its twin still held a copy.
    assert {call.args[1] for call in uncached.call_args_list} <= forgotten

    # Every migrated home word arrived in a batch, one batch per
    # migrated line, and every batch took the base-class fast path.
    batched_words = sum(len(c.args[1]) for c in faulty_batch.call_args_list)
    assert batched_words == migrated
    lines = evict.call_count
    assert faulty_batch.call_count == base_batch.call_count == lines

    # ... so the only 8-byte write() left is the retire watermark, once
    # per pass that retired something; everything else write() carries
    # is a whole slice (data, commit log) or a block header.
    retiring_passes = sum(1 for r in reports if r.transactions_migrated)
    word_writes = [addr for addr, size in writes if size == 8]
    assert word_writes == [RETIRE_WATERMARK_ADDR] * retiring_passes
    port_writes = sum(
        c.port.stats.sync_writes + c.port.stats.async_writes
        for c in controllers
    )
    assert len(writes) == port_writes - batched_words
