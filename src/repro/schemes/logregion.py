"""A shared circular on-NVM append log for the logging baselines.

Opt-Redo, Opt-Undo, LSM, and OSP's flip log all need a durable,
sequentially-written log with crash-scannable entries.  ``AppendLog``
provides:

* fixed-format entries — ``(kind, tx_id, target addr, payload)`` with a
  magic byte and CRC so a post-crash scan stops at the first torn entry;
* a **circular** data area addressed by monotonically increasing
  *logical* offsets (physical position = offset mod capacity), so space
  reclaimed by truncation behind still-live entries is immediately
  reusable — exactly how hardware log buffers behave;
* a persistent header recording the logical start offset, advanced by
  truncation (checkpointing);
* per-lap magic salting, so a crash scan can never mistake an entry from
  a previous trip around the buffer for a live one;
* an explicit :class:`~repro.common.errors.CapacityError` when live data
  would overrun the buffer (a baseline outran its checkpointer).

The log lives in the same reserved NVM carve HOOP uses for its OOP
region, so every scheme pays for persistence metadata out of the same
capacity budget.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.addr import CACHE_LINE_BYTES, cache_line_base
from repro.common.errors import CapacityError, CorruptionError
from repro.memctrl.port import MemoryPort
from repro.memctrl.scheduler import PeriodicTrigger
from repro.schemes.base import PersistenceScheme, RecoveryOutcome, SchemeTraits
from repro.snapshot import reset_volatile

_MAGIC = 0xA7
# Entry kinds.
KIND_DATA = 1  # payload = new data (redo) or old data (undo)
KIND_COMMIT = 2  # transaction commit record
KIND_WRAP = 3  # tail filler: the next entry starts at physical 0

# header: magic B, kind B, stride(8B units) H, tx_id I, addr Q,
# payload size I, crc I  => 24 bytes, 8-aligned.
_ENTRY_HEADER = struct.Struct("<BBHIQII")
_LOG_HEADER = struct.Struct("<QQI")  # logical start, reserved, crc
_LOG_HEADER_BYTES = 64


class LogEntry(NamedTuple):
    kind: int
    tx_id: int
    addr: int
    payload: bytes
    offset: int  # logical byte offset within the log's data area

    @property
    def total_bytes(self) -> int:
        # What a recovery scan charges as bytes_scanned: the header plus
        # the 8-padded payload it reads.  Not the append stride, which
        # min_entry_bytes can pad further (opt-redo's data entries count
        # 88 of their 128 bytes, its commit entries 24 of 64).
        return _ENTRY_HEADER.size + _pad8(len(self.payload))


def _pad8(n: int) -> int:
    return (n + 7) & ~7


class _Replayed(NamedTuple):
    """:func:`replay_committed`'s fold after ``entries``, never changed."""

    entries: Tuple[LogEntry, ...]
    scanned: int
    pending: Dict[int, Tuple[Tuple[int, bytes], ...]]  # data entries per tx
    committed: List[int]  # commit records' tx ids, in log order


class _ScanMemo:
    """The last valid prefix ``AppendLog.rebuild_and_scan`` parsed.

    ``raw`` is the content of the logical span ``[start, cursor)`` as
    that scan read it, and ``entries`` is what it yielded from it.  The
    scan is a pure function of the header's start and those bytes, so a
    later scan that finds the same start and a byte-equal span yields
    the same entries and reaches the same cursor without parsing them.
    ``replayed`` is :func:`replay_committed`'s fold of the entries of
    its last scan.  Snapshot forks of one machine share the memo
    (``__shared__``); a freshly built log starts with an empty one.
    """

    __snapshot_state__ = "__shared__"

    def __init__(self) -> None:
        self.start = 0
        self.cursor = 0
        self.raw = b""
        self.entries: Tuple[LogEntry, ...] = ()
        self.replayed = _Replayed((), 0, {}, [])


class AppendLog:
    """Circular append-only durable log with truncation and crash scan."""

    def __init__(self, port: MemoryPort, base: int, capacity: int) -> None:
        if capacity <= _LOG_HEADER_BYTES + 4 * _ENTRY_HEADER.size:
            raise CapacityError("log region too small")
        self.port = port
        self.base = base
        self.capacity = capacity
        self._data_base = base + _LOG_HEADER_BYTES
        self._data_bytes = (capacity - _LOG_HEADER_BYTES) & ~7
        self._start = 0  # logical offset of oldest live entry
        self._cursor = 0  # logical append offset
        self.appends = 0
        self.truncations = 0
        self._scan_memo = _ScanMemo()

    # -- geometry -----------------------------------------------------------------

    def _physical(self, logical: int) -> int:
        return self._data_base + (logical % self._data_bytes)

    def _magic_for(self, logical: int) -> int:
        lap = logical // self._data_bytes
        return _MAGIC ^ (lap & 0x0F)

    @property
    def live_bytes(self) -> int:
        return self._cursor - self._start

    @property
    def fill_fraction(self) -> float:
        return self.live_bytes / self._data_bytes

    # -- append path ----------------------------------------------------------------

    def _emit(self, raw: bytes, now_ns: float, *, sync: bool) -> float:
        target = self._physical(self._cursor)
        self._cursor += len(raw)
        if sync:
            return self.port.sync_write(target, raw, now_ns)
        return self.port.async_write(target, raw, now_ns)

    def _pack(
        self, logical: int, kind: int, tx_id: int, addr: int,
        payload: bytes, stride: int,
    ) -> bytes:
        magic = self._magic_for(logical)
        stride_units = stride // 8
        body = _ENTRY_HEADER.pack(
            magic, kind, stride_units, tx_id, addr, len(payload), 0
        )
        crc = zlib.crc32(body[:-4] + payload) & 0xFFFFFFFF
        body = _ENTRY_HEADER.pack(
            magic, kind, stride_units, tx_id, addr, len(payload), crc
        )
        raw = body + payload
        return raw + b"\0" * (stride - len(raw))

    def append(
        self,
        kind: int,
        tx_id: int,
        addr: int,
        payload: bytes,
        now_ns: float,
        *,
        sync: bool,
        min_entry_bytes: int = 0,
    ) -> Tuple[int, float]:
        """Write one entry; returns ``(logical offset, completion time)``.

        ``min_entry_bytes`` lets a baseline model its real hardware write
        granularity (e.g. Opt-Redo's two full cache lines per update) —
        the entry is padded to that size on NVM.
        """
        stride = max(
            _ENTRY_HEADER.size + _pad8(len(payload)), _pad8(min_entry_bytes)
        )
        tail_room = self._data_bytes - (self._cursor % self._data_bytes)
        wrap_pad = tail_room if tail_room < stride else 0
        if self.live_bytes + wrap_pad + stride > self._data_bytes:
            raise CapacityError(
                "log region full; checkpoint/truncate required"
            )
        if wrap_pad:
            if wrap_pad >= _ENTRY_HEADER.size:
                filler = self._pack(
                    self._cursor, KIND_WRAP, 0, 0, b"", wrap_pad
                )
                self._emit(filler, now_ns, sync=False)
            else:
                self._cursor += wrap_pad  # too small even for a header
        offset = self._cursor
        raw = self._pack(offset, kind, tx_id, addr, payload, stride)
        completion = self._emit(raw, now_ns, sync=sync)
        self.appends += 1
        return offset, completion

    def truncate(self, now_ns: float, upto: Optional[int] = None) -> float:
        """Advance the persistent start pointer.

        ``upto`` bounds the truncation (logical offset of the oldest entry
        that must survive — e.g. the first entry of a still-open
        transaction); the default reclaims everything appended so far.
        """
        target = self._cursor if upto is None else upto
        if target < self._start or target > self._cursor:
            raise CapacityError(
                f"truncate target {target} outside live range "
                f"[{self._start}, {self._cursor}]"
            )
        self._start = target
        self.truncations += 1
        return self._persist_header(now_ns)

    def _persist_header(self, now_ns: float) -> float:
        body = _LOG_HEADER.pack(self._start, 0, 0)
        crc = zlib.crc32(body[:-4]) & 0xFFFFFFFF
        body = _LOG_HEADER.pack(self._start, 0, crc)
        return self.port.sync_write(self.base, body, now_ns)

    # -- crash scanning ---------------------------------------------------------

    def _peek_span(self, device, start: int, end: int) -> bytes:
        """The content of the logical span ``[start, end)``, wrap included."""
        parts = []
        data_bytes = self._data_bytes
        while start < end:
            logical = start % data_bytes
            size = min(end - start, data_bytes - logical)
            parts.append(device.peek(self._data_base + logical, size))
            start += size
        return b"".join(parts)

    def rebuild_and_scan(self) -> Iterator[LogEntry]:
        """Post-crash: read the header, then yield live entries in order.

        Stops at the first entry whose magic, geometry (a payload that
        outgrows its stride, a stride past the wrap point) or CRC fails
        — everything at and beyond it was mid-write (or from a previous
        lap) when power failed.

        When the header names the start the previous scan of this log
        (or of a snapshot fork of it) began at, and one ``peek`` finds
        that scan's valid prefix byte-equal, the prefix's entries come
        from the memo and parsing resumes at the first byte after it.
        The memo moves on only when a scan runs to its end.
        """
        device = self.port.device
        header = device.peek(self.base, _LOG_HEADER.size)
        try:
            start, _, crc = _LOG_HEADER.unpack(header)
        except struct.error as exc:  # pragma: no cover - fixed-size read
            raise CorruptionError("log header unreadable") from exc
        body = _LOG_HEADER.pack(start, 0, 0)
        if crc != zlib.crc32(body[:-4]) & 0xFFFFFFFF:
            start = 0  # never persisted: log was empty at crash time
        memo = self._scan_memo
        if (
            memo.start == start
            and memo.cursor > start
            and self._peek_span(device, start, memo.cursor) == memo.raw
        ):
            known_raw, known = memo.raw, memo.entries
            yield from known
            cursor = memo.cursor
        else:
            known_raw, known = b"", ()
            cursor = start
        resumed = cursor
        fresh: List[LogEntry] = []
        scanned = cursor - start
        # Chunked reads: the scan walks the data area sequentially, so
        # per-entry peeks are batched into page-sized ones.  peek() has no
        # timing/stats/fault side effects, so over-reading past the live
        # tail changes nothing observable.
        data_end = self._data_base + self._data_bytes
        chunk_base = -1
        chunk = b""

        def _fetch(phys: int, size: int) -> bytes:
            nonlocal chunk_base, chunk
            offset = phys - chunk_base
            if chunk_base < 0 or offset < 0 or offset + size > len(chunk):
                chunk = device.peek(phys, min(max(size, 4096), data_end - phys))
                chunk_base = phys
                offset = 0
            return chunk[offset : offset + size]

        # Hot loop: locals for every per-entry attribute/function lookup
        # (this scan runs once per crash case in the sweep).
        data_bytes = self._data_bytes
        data_base = self._data_base
        header_size = _ENTRY_HEADER.size
        unpack = _ENTRY_HEADER.unpack
        crc32 = zlib.crc32
        # What the parse read, stride by stride: the memo's bytes are the
        # ones its entries came from, whatever the caller does between
        # yields.
        seen: List[bytes] = []
        while scanned < data_bytes:
            logical = cursor % data_bytes
            tail_room = data_bytes - logical
            phys = data_base + logical
            if tail_room < header_size:
                seen.append(_fetch(phys, tail_room))
                cursor += tail_room
                scanned += tail_room
                continue
            raw = _fetch(phys, header_size)
            magic, kind, stride_units, tx_id, addr, size, crc = unpack(raw)
            if magic != _MAGIC ^ ((cursor // data_bytes) & 0x0F):
                break
            if stride_units == 0:
                break
            stride = stride_units * 8
            if stride > tail_room or header_size + size > stride:
                # _pack never wrote this: an entry fits its own stride
                # and never straddles the wrap point.  Stale payload
                # bytes past the tail can pass the one-byte magic.
                break
            span = _fetch(phys, stride)
            payload = span[header_size : header_size + size]
            # The crc occupies the header's last 4 bytes, so the
            # zero-crc header _pack() checksummed is just raw[:-4] —
            # no per-entry repack needed.
            if crc != crc32(raw[:-4] + payload) & 0xFFFFFFFF:
                break
            seen.append(span)
            if kind != KIND_WRAP:
                entry = LogEntry(kind, tx_id, addr, payload, cursor)
                fresh.append(entry)
                yield entry
            cursor += stride
            scanned += stride
        self._start = start
        self._cursor = cursor
        if cursor != resumed:
            memo.raw = known_raw + b"".join(seen)
            memo.entries = known + tuple(fresh)
            memo.start = start
            memo.cursor = cursor

    def reset(self, now_ns: float = 0.0) -> None:
        """Post-recovery: restart the log empty (fresh lap).

        Idempotent: when the log is already empty at a lap boundary —
        the state every completed ``reset`` leaves behind, and what a
        re-run of recovery scans back — there is nothing stale reachable
        under this lap's magic salt, so advancing another lap would only
        dirty the durable header.  Recovery must be re-runnable with
        bit-identical durable state (the nested-fault sweep's
        idempotence oracle), so skip the rewrite.
        """
        if self._start == self._cursor and self._cursor % self._data_bytes == 0:
            return
        lap = self._cursor // self._data_bytes + 1
        self._start = self._cursor = lap * self._data_bytes
        self._persist_header(now_ns)


def replay_committed(log: AppendLog, device, outcome: RecoveryOutcome) -> None:
    """Redo recovery over a crashed log: the body opt-redo and logregion share.

    Writes home the data entries of every transaction whose commit
    record the scan found, in commit order, as one ``poke_batch``;
    counts the rest as rolled back, fills ``outcome``'s byte and
    transaction counts (``elapsed_ns`` is the caller's) and resets the
    log.  The fold of the entries resumes from the scan memo's
    ``replayed`` when the entries it folded are a prefix of this scan's.
    """
    entries = tuple(log.rebuild_and_scan())
    done = log._scan_memo.replayed
    if entries[: len(done.entries)] != done.entries:
        done = _Replayed((), 0, {}, [])
    scanned, pending = done.scanned, dict(done.pending)
    committed = list(done.committed)
    header_size = _ENTRY_HEADER.size
    for kind, tx_id, addr, payload, _ in entries[len(done.entries) :]:
        scanned += header_size + ((len(payload) + 7) & ~7)  # total_bytes
        if kind == KIND_DATA:
            pending[tx_id] = pending.get(tx_id, ()) + ((addr, payload),)
        elif kind == KIND_COMMIT:
            committed.append(tx_id)
    log._scan_memo.replayed = _Replayed(entries, scanned, dict(pending), committed)
    pokes: List[Tuple[int, bytes]] = []
    for tx_id in committed:
        pokes.extend(pending.pop(tx_id, ()))
    device.poke_batch(pokes)
    outcome.bytes_scanned += scanned
    outcome.bytes_written += sum(len(payload) for _, payload in pokes)
    outcome.committed_transactions += len(committed)
    outcome.rolled_back_transactions = len(pending)
    log.reset()


# -- the log-region scheme ---------------------------------------------------------

# Extra read latency for the log-region indirection: every LLC miss
# probes the overlay index before touching home.
_INDEX_PROBE_NS = 15.0
# Serving a line from the DRAM-resident overlay.
_OVERLAY_HIT_NS = 90.0
# Checkpoint before the log passes this fill level.
_LOG_PRESSURE = 0.85


class LogRegionScheme(PersistenceScheme):
    """Word-granular log-region persistence (eager redo streaming).

    The design point between Opt-Redo and LSM: like a software
    log-region allocator, every transactional store is streamed to the
    durable log *eagerly* at word granularity — a 32-byte entry for an
    8-byte store, not Opt-Redo's two full cache lines — so commit only
    has to drain the queue and persist a commit record.  The home region
    is updated lazily by a periodic checkpoint that applies committed
    words in place and truncates the log behind the oldest still-open
    transaction.

    Reads pay for the indirection: updated-but-not-checkpointed content
    is served from a DRAM-resident overlay, and every miss charges an
    index probe (Table I's "High" read latency for log-structured
    schemes).

    Recovery replays the data entries of every transaction whose commit
    record survived the crash scan, in commit order, and discards the
    rest — eagerly-streamed entries of uncommitted transactions are
    garbage the scan's CRC/commit filtering ignores.

    Paper analogue: a hybrid of WrAP-style hardware redo [13] and
    LSNVMM's word-granular log [17] (no single-paper counterpart).
    Declared durability discipline: ``log-drain`` — the eagerly queued
    word entries must be drained before the synchronous commit record;
    the persist-ordering sanitizer (:mod:`repro.check`) enforces that
    fence edge per committed transaction.
    """

    name = "logregion"
    traits = SchemeTraits(
        approach="Logging / word-granular log region",
        read_latency="High",
        extra_writes_on_critical_path=True,
        requires_flush_fence=False,
        write_traffic="Medium",
        durability="log-drain",
    )

    def __init__(self, config, device) -> None:
        super().__init__(config, device)
        self.log = AppendLog(
            self.port, config.oop_region_base, config.oop_region_bytes
        )
        # Latest full content of every line touched since its last
        # checkpoint (committed or in-flight) — the read overlay.
        self._overlay: Dict[int, bytes] = {}
        # Committed-but-not-checkpointed stores: addr -> bytes.
        self._home_pending: Dict[int, bytes] = {}
        # Open transactions: tx_id -> (first log offset, [(addr, data)]).
        self._open: Dict[int, Tuple[int, List[Tuple[int, bytes]]]] = {}
        self._checkpoint = PeriodicTrigger(config.hoop.gc.period_ns)
        self.checkpoints = 0
        self.overlay_hits = 0

    # -- transactional API -------------------------------------------------------

    def tx_begin(self, core: int, now_ns: float):
        tx_id, now_ns = super().tx_begin(core, now_ns)
        self._open[tx_id] = (-1, [])
        return tx_id, now_ns

    def on_store(
        self,
        core: int,
        tx_id: int,
        addr: int,
        size: int,
        line_addr: int,
        line_data: bytes,
        now_ns: float,
    ) -> float:
        self.stats.tx_stores += 1
        if self.log.fill_fraction >= _LOG_PRESSURE:
            now_ns = self._run_checkpoint(now_ns, blocking=True)
        payload = line_data[addr - line_addr : addr - line_addr + size]
        offset, _ = self.log.append(
            KIND_DATA, tx_id, addr, payload, now_ns, sync=False
        )
        if self.check.active:
            self.check.note_persist(
                tx_id, "log", addr, size, now_ns, sync=False,
                port=self.port,
            )
        first, writes = self._open[tx_id]
        if first < 0:
            first = offset
        writes.append((addr, payload))
        self._open[tx_id] = (first, writes)
        self._overlay[line_addr] = line_data
        return now_ns

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        _, writes = self._open.pop(tx_id, (-1, []))
        if not writes:
            return now_ns
        # Data entries are already streaming through the write queue;
        # drain so they are durable before the commit record lands.
        now_ns = self.port.drain(now_ns)
        _, now_ns = self.log.append(
            KIND_COMMIT, tx_id, 0, b"", now_ns, sync=True
        )
        if self.check.active:
            self.check.note_persist(
                tx_id, "commit", -1, 0, now_ns, sync=True, port=self.port
            )
        self._home_pending.update(writes)
        return now_ns

    # -- read path ---------------------------------------------------------------

    def fill_line(self, line_addr: int, now_ns: float):
        line_addr = cache_line_base(line_addr)
        cached = self._overlay.get(line_addr)
        if cached is not None:
            self.overlay_hits += 1
            return cached, _OVERLAY_HIT_NS
        data, completion = self.port.read(
            line_addr, CACHE_LINE_BYTES, now_ns
        )
        return data, (completion - now_ns) + _INDEX_PROBE_NS

    def on_evict(
        self,
        line_addr: int,
        data: bytes,
        dirty: bool,
        persistent: bool,
        tx_id: int,
        now_ns: float,
    ) -> None:
        if not dirty:
            return
        if persistent:
            # Home must keep the pre-transaction content until the
            # checkpoint applies committed words; the overlay already
            # holds these bytes for re-fill.
            return
        self.port.async_write(line_addr, data, now_ns)

    # -- checkpoint ---------------------------------------------------------------

    def tick(self, now_ns: float) -> None:
        if self._checkpoint.due(now_ns):
            self._checkpoint.fire(now_ns)
            self._run_checkpoint(now_ns, blocking=False)

    def _run_checkpoint(self, now_ns: float, *, blocking: bool) -> float:
        """Apply committed stores home, truncate behind open transactions."""
        for addr, data in self._home_pending.items():
            self.port.async_write(addr, data, now_ns)
        if self._home_pending:
            self.checkpoints += 1
        self._home_pending.clear()
        self._overlay.clear()
        drain = self.port.drain(now_ns)
        open_firsts = [f for f, _ in self._open.values() if f >= 0]
        upto = min(open_firsts) if open_firsts else None
        truncate_done = self.log.truncate(drain, upto=upto)
        return truncate_done if blocking else now_ns

    def quiesce(self, now_ns: float) -> float:
        return self._run_checkpoint(now_ns, blocking=True)

    # -- crash & recovery -----------------------------------------------------------

    # The overlay, the pending home writes and the open transactions are SRAM.
    __durable__ = PersistenceScheme.DURABLE + (
        "log", "_checkpoint", "checkpoints", "overlay_hits")
    crash = reset_volatile

    def recover(self, *, threads: int = 1, bandwidth_gb_per_s=None):
        outcome = RecoveryOutcome(scheme=self.name)
        replay_committed(self.log, self.device, outcome)
        nvm = self.config.nvm
        bandwidth = bandwidth_gb_per_s or nvm.bandwidth_gb_per_s
        bytes_per_ns = bandwidth * (1024**3) / 1e9
        outcome.elapsed_ns = (
            outcome.bytes_scanned / max(bytes_per_ns, 1e-9)
            + outcome.bytes_written / max(bytes_per_ns, 1e-9)
            + outcome.committed_transactions * nvm.write_latency_ns
        )
        return outcome

# -- snapshot declarations ----------------------------------------------------
LogEntry.__snapshot_state__ = "__atom__"
AppendLog.__snapshot_state__ = "__all__"
LogRegionScheme.__snapshot_state__ = "__all__"
