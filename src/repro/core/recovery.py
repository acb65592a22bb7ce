"""Post-crash data recovery (paper §III-F, Fig. 11).

Recovery replays the OOP region onto the home region:

1. read the headers of every touched block and the pages of every
   commit-log (address-slice) block;
2. sort committed, unretired transactions in commit order and deal them
   round-robin to ``threads`` recovery workers;
3. each worker walks its transactions' slice chains and keeps, per home
   word, the value with the largest commit sequence (its *local hash set*);
4. a master merge folds the local sets, newest commit wins;
5. the merged set is split back across workers, which write the words home
   and flush;
6. the mapping table, eviction buffer, and OOP region are cleared.

The byte-level work is performed functionally (the home region really is
restored, and tests verify it equals the committed-transaction oracle).
The reported *time* comes from an analytic model of the same quantities
the implementation just measured: bytes scanned and written, thread count,
and NVM bandwidth — each thread is latency-bound at one outstanding slice
read, and aggregate throughput is capped by the channel.  That produces
Fig. 11's two behaviours: time falls linearly with bandwidth, and thread
scaling saturates once ``threads × per-thread rate`` exceeds the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.common.config import SystemConfig
from repro.common.errors import CorruptionError
from repro.common.units import bytes_per_ns_from_gbps
from repro.core.commit_log import CommitLog, CommittedTx, LogAnalysis
from repro.core.gc import RETIRE_WATERMARK_ADDR
from repro.core.oop_region import BlockState, OOPRegion
from repro.core.slices import (
    KIND_ADDR,
    KIND_DATA,
    SLICE_BYTES,
    STATE_LAST,
    DataSlice,
    SliceCodec,
)
from repro.memctrl.port import MemoryPort


@dataclass
class RecoveryReport:
    """Everything a recovery pass did and how long the model says it took."""

    threads: int
    bandwidth_gb_per_s: float
    committed_transactions: int = 0
    words_recovered: int = 0
    bytes_scanned: int = 0
    bytes_written: int = 0
    slices_walked: int = 0
    scan_time_ns: float = 0.0
    merge_time_ns: float = 0.0
    write_time_ns: float = 0.0
    per_thread_txs: List[int] = field(default_factory=list)

    @property
    def elapsed_ns(self) -> float:
        return self.scan_time_ns + self.merge_time_ns + self.write_time_ns


# Slot kind per raw tag byte (the low nibble), so a block's slots of one
# kind are found with ``bytes.find`` instead of a Python loop per slot.
_KIND_OF_TAG = bytes(tag & 0xF for tag in range(256))


class BlockReader:
    """One ``peek`` per block of an OOP region, cached for one pass.

    A pass only reads the region (recovery writes the *home* region), so
    the buffers stay valid, and ``peek`` has no timing or stats side
    effects to distort.  ``decoded`` holds the data slices
    :meth:`RecoveryManager.scan` decoded from these buffers whose
    generation matches their block's, by slice index, so the chain walk
    reads them without decoding them again.  ``walked`` maps each block
    a chain walk read to one past the last slot it read there.
    """

    def __init__(self, region: OOPRegion) -> None:
        self.region = region
        self._blocks: Dict[int, bytes] = {}
        self.decoded: Dict[int, DataSlice] = {}
        self.walked: Dict[int, int] = {}

    def block_buf(self, block: int) -> bytes:
        """A whole block's bytes, header slice included."""
        buf = self._blocks.get(block)
        if buf is None:
            region = self.region
            buf = region.port.device.peek(
                region.block_base(block), region.block_bytes
            )
            self._blocks[block] = buf
        return buf

    def slice_raw(self, slice_index: int) -> bytes:
        """A region slice's bytes."""
        block, slot = divmod(slice_index, self.region.slots_per_block)
        offset = (slot + 1) * SLICE_BYTES  # slot 0 follows the header slice
        return self.block_buf(block)[offset : offset + SLICE_BYTES]

    def slices_of_kind(
        self, block: int, kind: int, first_slot: int = 0
    ) -> Iterator[Tuple[int, bytes]]:
        """``(slice_index, raw)`` of the slots from ``first_slot`` tagged ``kind``.

        The tags (every slot's last byte) come out in one strided slice,
        so free slots — most of a commit-log block — are never cut out.
        """
        buf = self.block_buf(block)
        kinds = buf[2 * SLICE_BYTES - 1 :: SLICE_BYTES].translate(_KIND_OF_TAG)
        base_index = block * self.region.slots_per_block
        wanted = bytes((kind,))
        slot = kinds.find(wanted, first_slot)
        while slot >= 0:
            offset = (slot + 1) * SLICE_BYTES
            yield base_index + slot, buf[offset : offset + SLICE_BYTES]
            slot = kinds.find(wanted, slot + 1)


@dataclass
class RegionScan:
    """Step 1's findings: what a crashed OOP region says was committed."""

    reader: BlockReader
    logged: List[CommittedTx]  # durable, unretired commit-log entry
    unlogged: List[CommittedTx]  # known only by a STATE_LAST data slice
    bytes_scanned: int


def _equal_slots(buf: bytes, old: bytes, slots: int) -> int:
    """How many of the first ``slots`` slots two block buffers share.

    One compare when all of them match (a block that only grew), a
    binary search for the longest equal run otherwise.
    """
    view = memoryview(old)
    low, high, mid = 0, slots, slots
    while low < high:
        if buf.startswith(view[SLICE_BYTES : (mid + 1) * SLICE_BYTES], SLICE_BYTES):
            low = mid
        else:
            high = mid - 1
        mid = (low + high + 1) // 2
    return low


class _BlockScan(NamedTuple):
    """What a scan read of one block, and what it found there."""

    generation: int
    stream: str
    buf: bytes  # the whole block, as that scan peeked it
    end: int  # the scan read slots [0, end)
    # In slot order: ``(slice_index, ds)`` per data slice of the block's
    # generation, ``(slice_index, raw, entries, sequence)`` per page.
    found: list


class _Fold(NamedTuple):
    """Steps 2-4's state after dealing ``committed``; never changed.

    ``walked`` maps every block a chain walk read to its generation, its
    bytes and one past the last slot walked there: the walks, and so
    the fold, are a pure function of those slots.
    """

    threads: int
    committed: List[CommittedTx]
    merged: Dict[int, bytes]
    shards: List[Set[int]]  # per worker, the word addresses it folded
    per_thread_txs: List[int]
    slices_walked: int
    walked: Dict[int, Tuple[int, bytes, int]]


class _RecoveryMemo:
    """Per block the last scan's finds, a page run's analysis, the fold.

    Each keeps the bytes it was derived from and is reused only over the
    longest prefix of them still equal in the buffers a pass peeked; the
    rest is derived as without the memo.  Snapshot forks of one machine
    share it (``__shared__``); a freshly built manager starts empty, and
    so does one after :meth:`RecoveryManager.detach_memo`.
    """

    __snapshot_state__ = "__shared__"

    def __init__(self) -> None:
        self.blocks: Dict[int, _BlockScan] = {}
        self.pages: List[bytes] = []  # raw pages ``analysis`` folded, in order
        self.analysis = LogAnalysis()
        self.fold: Optional[_Fold] = None


_SEQUENCE = itemgetter(3)  # of a found page
_TX_ID = itemgetter(0)  # CommittedTx.tx_id
_ADDR = itemgetter(0)  # of a walked (addr, value) word


class RecoveryManager:
    """Rebuilds a consistent home region from the OOP region."""

    # Cost of one hash-map fold step.  Local inserts overlap the scan;
    # the master fold is bucket-partitioned across the recovery threads
    # (each worker folds a hash range), so it divides by the thread count.
    _MERGE_NS_PER_WORD = 3.0

    def __init__(
        self,
        config: SystemConfig,
        region: OOPRegion,
        codec: SliceCodec,
        commit_log: CommitLog,
        port: MemoryPort,
    ) -> None:
        self.config = config
        self.region = region
        self.codec = codec
        self.commit_log = commit_log
        self.port = port
        self._memo = _RecoveryMemo()

    def detach_memo(self) -> None:
        """Recover through an empty memo of this manager's own from now on.

        For a copy whose recovery nobody repeats (a serving replica's
        durable projection): what it derives is freed with it instead of
        being kept in the memo the live machine and its forks share.
        """
        self._memo = _RecoveryMemo()

    # -- the functional pass ---------------------------------------------------

    def recover(
        self,
        *,
        threads: int = 1,
        bandwidth_gb_per_s: Optional[float] = None,
        clear_region: bool = True,
    ) -> RecoveryReport:
        """Scan the region and replay what it says was committed."""
        return self.replay(
            self.scan(),
            threads=threads,
            bandwidth_gb_per_s=bandwidth_gb_per_s,
            clear_region=clear_region,
        )

    def scan(self) -> RegionScan:
        """Step 1: block headers, commit-log pages, STATE_LAST slices.

        Rebuilds the region's and the commit log's volatile view.
        """
        region = self.region
        reader = BlockReader(region)
        region.rebuild_from_nvm()
        busy_blocks = [
            b
            for b in range(region.num_blocks)
            if region.state_of(b) != BlockState.UNUSED
        ]
        block_payload = region.slots_per_block * SLICE_BYTES
        bytes_scanned = len(busy_blocks) * SLICE_BYTES  # headers
        pages = []
        for block in busy_blocks:
            if region.stream_of(block) == "addr":
                bytes_scanned += block_payload
                pages += self._scan_block(reader, block, "addr")
        pages.sort(key=_SEQUENCE)  # log order (stable, as rebuild sorts)
        self.commit_log.rebuild(
            [(i, entries, seq) for i, _, entries, seq in pages]
        )
        analysis = self._analyse(pages)
        logged = analysis.logged()

        # Commit entries are written lazily (the commit point is the
        # STATE_LAST data slice), so recent transactions may exist only in
        # the region itself: scan the data blocks for STATE_LAST slices of
        # transactions no page knows about, skipping anything at or below
        # the durable retire watermark and anything from a stale block
        # generation.
        watermark = int.from_bytes(
            self.port.device.peek(RETIRE_WATERMARK_ADDR, 8), "little"
        )
        finalized = set(map(_TX_ID, logged))
        open_segments = analysis.open_segments
        # Transactions whose every durable commit entry carries the
        # retired bit were already migrated home by GC.  They can sit
        # *above* the durable watermark when a crash lands between the
        # retire rewrite and the watermark update, so the watermark test
        # alone does not exclude them — without this set the STATE_LAST
        # scan would resurrect and re-replay them, and a second nested
        # crash during that replay could tear state GC had finished
        # with.  (Their data is durable: GC drains before it retires.)
        retired_only = analysis.known.difference(finalized, open_segments)
        unlogged = []
        decoded = reader.decoded
        for block in busy_blocks:
            if region.stream_of(block) != "data":
                continue
            bytes_scanned += block_payload
            found = self._scan_block(reader, block, "data")
            decoded.update(found)
            for slice_index, ds in found:
                if (
                    ds.state != STATE_LAST
                    or ds.tx_id <= watermark
                    or ds.tx_id in finalized
                    or ds.tx_id in retired_only
                ):
                    continue
                tails = open_segments.get(ds.tx_id, ()) + (slice_index,)
                unlogged.append(CommittedTx(ds.tx_id, tails))
                finalized.add(ds.tx_id)
        return RegionScan(reader, logged, unlogged, bytes_scanned)

    def _scan_block(self, reader: BlockReader, block: int, stream: str) -> list:
        """A busy block's finds (see :class:`_BlockScan`), in slot order.

        The memo's finds for the block, if of this generation and
        stream, are kept over the longest run of leading slots whose
        bytes are unchanged; only the slots after it are decoded.  The
        list returned is the memo's, not the caller's to change.
        """
        generation = self.region.generation_of(block)
        buf = reader.block_buf(block)
        base = block * self.region.slots_per_block
        first, found = 0, []
        prior = self._memo.blocks.get(block)
        if prior is not None and prior[:2] == (generation, stream):
            first = _equal_slots(buf, prior.buf, prior.end)
            found = list(prior.found)
            while found and found[-1][0] >= base + first:
                found.pop()
        end = first
        kind = KIND_ADDR if stream == "addr" else KIND_DATA
        for slice_index, raw in reader.slices_of_kind(block, kind, first):
            end = slice_index - base + 1
            try:
                if kind == KIND_DATA:
                    ds = self.codec.decode_data(raw)
                    if ds.generation == generation:
                        found.append((slice_index, ds))
                else:
                    page = self.codec.decode_addr(raw)
                    found.append(
                        (slice_index, raw, tuple(page.entries), page.sequence)
                    )
            except CorruptionError:
                continue  # a torn slot (a page: its newest entry is lost)
        self._memo.blocks[block] = _BlockScan(generation, stream, buf, end, found)
        return found

    def _analyse(self, pages: list) -> LogAnalysis:
        """The analysis of ``pages`` (found pages, in log order).

        Resumes from the memo's when the pages it folded are a byte-equal
        prefix, and keeps that of all but the last page: the one the next
        crash case most often finds rewritten.
        """
        memo = self._memo
        raws = [page[1] for page in pages]
        done = len(memo.pages)
        if raws[:done] == memo.pages:
            analysis = memo.analysis
        else:
            analysis, done = LogAnalysis(), 0
        keep = len(pages) - 1
        if done < keep:
            analysis = analysis.copy()
            for page in pages[done:keep]:
                analysis.fold(page[2])
            memo.pages, memo.analysis, done = raws[:keep], analysis, keep
        analysis = analysis.copy()
        for page in pages[done:]:
            analysis.fold(page[2])
        return analysis

    def replay(
        self,
        scan: RegionScan,
        *,
        threads: int = 1,
        bandwidth_gb_per_s: Optional[float] = None,
        clear_region: bool = True,
        only_tx_ids: Optional[set] = None,
    ) -> RecoveryReport:
        """Steps 2-6: replay a scan's transactions onto the home region.

        ``only_tx_ids`` restricts the replay to a caller-approved set:
        the multi-controller coordinator passes the union of every
        controller's ``scan().logged``, so a locally-final STATE_LAST
        slice supplies segment tails but never *decides* a commit.
        """
        if threads < 1:
            raise ValueError("recovery needs at least one thread")
        bandwidth = bandwidth_gb_per_s or self.config.nvm.bandwidth_gb_per_s
        report = RecoveryReport(
            threads=threads,
            bandwidth_gb_per_s=bandwidth,
            bytes_scanned=scan.bytes_scanned,
        )
        device = self.port.device

        # Replay in TxID order — the paper's commit-ID rule (§III-F);
        # conflicting transactions never overlap, so TxID order is commit
        # order.
        committed = scan.logged + scan.unlogged
        if only_tx_ids is not None:
            committed = [tx for tx in committed if tx.tx_id in only_tx_ids]
        committed.sort(key=_TX_ID)
        report.committed_transactions = len(committed)

        # Steps 2-4: deal transactions round-robin to per-thread local
        # sets and fold them into the master set, newest commit winning.
        # Transactions arrive in commit order and each one's words in
        # store order, so ``dict.update`` is that rule: a later write to
        # a word, by a later transaction or the same one, replaces it.
        # Dealing resumes after the transactions of the memo's fold, when
        # that fold still holds (see _kept_fold).
        reader, region = scan.reader, self.region
        fold = self._kept_fold(reader, committed, threads)
        shards = [set(shard) for shard in fold.shards]
        merged = dict(fold.merged)
        per_thread_txs = list(fold.per_thread_txs)
        walk_tx = self.walk_tx
        slices_walked = fold.slices_walked
        start = len(fold.committed)
        for seq, tx in enumerate(committed[start:], start):
            worker = seq % threads
            per_thread_txs[worker] += 1
            words, scanned = walk_tx(reader, tx)
            slices_walked += scanned
            shards[worker].update(map(_ADDR, words))
            merged.update(words)
        if committed:  # a rerun over a cleared region keeps the last fold
            walked = {
                block: (region.generation_of(block), reader.block_buf(block), end)
                for block, end in reader.walked.items()
            }
            self._memo.fold = _Fold(
                threads, committed, merged, shards, per_thread_txs,
                slices_walked, walked,
            )
        report.per_thread_txs = list(per_thread_txs)
        report.slices_walked = slices_walked
        report.bytes_scanned += slices_walked * SLICE_BYTES
        # The master fold takes one step per local entry.
        merge_ops = sum(len(local) for local in shards)

        # Step 5: split the merged set and write home.
        device.poke_batch(sorted(merged.items()))
        report.words_recovered = len(merged)
        report.bytes_written = len(merged) * 8

        # Step 6: volatile structures and the OOP region are cleared.
        if clear_region:
            region.clear(0.0)
            self.commit_log.crash()

        self._apply_time_model(report, merge_ops)
        return report

    def _kept_fold(
        self, reader: BlockReader, committed: List[CommittedTx], threads: int
    ) -> _Fold:
        """The memo's fold if it still holds, else an empty one.

        It holds when ``committed`` extends the list it dealt, on as many
        threads, and each block its walks read has their generation and
        bytes still; its walks are then noted in ``reader.walked``.
        """
        kept = self._memo.fold
        generation_of = self.region.generation_of
        if (
            kept is None
            or kept.threads != threads
            or committed[: len(kept.committed)] != kept.committed
            or not all(
                generation_of(block) == generation
                and _equal_slots(reader.block_buf(block), buf, end) == end
                for block, (generation, buf, end) in kept.walked.items()
            )
        ):
            return _Fold(
                threads, [], {}, [set()] * threads, [0] * threads, 0, {}
            )
        for block, (_, _, end) in kept.walked.items():
            reader.walked[block] = max(end, reader.walked.get(block, 0))
        return kept

    def walk_tx(
        self, reader: BlockReader, tx: CommittedTx
    ) -> Tuple[Sequence[Tuple[int, bytes]], int]:
        """A transaction's words in store order, and the slices read.

        Slices come from ``reader.decoded`` when the scan kept them, and
        are decoded from the raw block otherwise.  The words are
        ``(addr, value)`` pairs of each slice's ``addrs`` and
        ``values()``.  Every slot read is noted in ``reader.walked``.
        """
        decoded = reader.decoded
        walked = reader.walked
        tx_id = tx.tx_id
        slots_per_block = self.region.slots_per_block
        total = self.region.num_blocks * slots_per_block
        chain: List[DataSlice] = []  # newest first
        slices = 0
        for tail in reversed(tx.segment_tails):
            cursor: Optional[int] = tail
            while cursor is not None:
                slices += 1
                block, slot = divmod(cursor, slots_per_block)
                if walked.get(block, 0) <= slot:
                    walked[block] = slot + 1
                ds = decoded.get(cursor)
                if ds is None:
                    ds = self._decode_live(reader, cursor)
                if ds is None or ds.tx_id != tx_id:
                    break
                chain.append(ds)
                cursor = (
                    None
                    if ds.prev_delta is None
                    else (cursor - ds.prev_delta) % total
                )
        words = []
        for ds in reversed(chain):
            words += zip(ds.addrs, ds.values())
        return words, slices

    def _decode_live(
        self, reader: BlockReader, slice_index: int
    ) -> Optional[DataSlice]:
        """Decode a slice the scan did not keep.

        ``None`` unless it is intact and of its block's generation.
        """
        try:
            ds = self.codec.decode_data(reader.slice_raw(slice_index))
        except CorruptionError:
            return None
        block, _ = self.region.slice_location(slice_index)
        if ds.generation != self.region.generation_of(block):
            return None
        return ds

    # -- the timing model ---------------------------------------------------------

    def _apply_time_model(self, report: RecoveryReport, merge_ops: int) -> None:
        nvm = self.config.nvm
        bw = bytes_per_ns_from_gbps(report.bandwidth_gb_per_s)
        threads = report.threads

        # Scan: each thread keeps one slice read outstanding; a read costs
        # device latency plus its transfer.  Aggregate capped by channel.
        per_thread_read = SLICE_BYTES / (
            nvm.read_latency_ns + SLICE_BYTES / bw
        )
        scan_rate = min(bw, threads * per_thread_read)
        report.scan_time_ns = report.bytes_scanned / scan_rate

        # Merge: local inserts happen during the scan; the fold over the
        # surviving entries is partitioned by hash bucket across threads.
        report.merge_time_ns = (
            merge_ops * self._MERGE_NS_PER_WORD / threads
        )

        # Write-back: threads stream line-sized flushes in parallel.
        line = 64
        per_thread_write = line / (nvm.write_latency_ns + line / bw)
        write_rate = min(bw, threads * per_thread_write)
        if report.bytes_written:
            report.write_time_ns = report.bytes_written / write_rate


# -- snapshot declarations ----------------------------------------------------
RecoveryReport.__snapshot_state__ = "__all__"
RecoveryManager.__snapshot_state__ = "__all__"
