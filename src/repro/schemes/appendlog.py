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
* per-lap salting of each entry's magic byte and CRC, so a crash scan
  can never mistake an entry from an earlier lap for a live one;
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

from repro.common.errors import CapacityError, CorruptionError
from repro.memctrl.port import MemoryPort
from repro.schemes.base import RecoveryOutcome

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
    (``__shared__``); a freshly built log starts with an empty one, and
    so does one after :meth:`AppendLog.detach_memo`.
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

    def detach_memo(self) -> None:
        """Scan and replay through an empty memo of this log's own.

        For a copy whose recovery nobody repeats (a serving replica's
        durable projection): what it derives is freed with it instead of
        being kept in the memo the live machine and its forks share.
        """
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
        # The full lap: the magic's 4-bit salt repeats every 16 laps.
        lap = logical // self._data_bytes
        crc = zlib.crc32(body[:-4] + payload, lap) & 0xFFFFFFFF
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
            lap = cursor // data_bytes
            if magic != _MAGIC ^ (lap & 0x0F):
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
            if crc != crc32(raw[:-4] + payload, lap) & 0xFFFFFFFF:
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


def replay_committed(scheme, bandwidth_gb_per_s) -> RecoveryOutcome:
    """Redo recovery over ``scheme.log``: opt-redo's ``recover``.

    Writes home the data entries of every transaction whose commit
    record the scan found, in commit order, as one ``poke_batch``;
    counts the rest as rolled back and resets the log.  The modelled
    time charges the bytes scanned and written at the channel rate plus
    one write latency per committed transaction.  The fold of the
    entries resumes from the scan memo's ``replayed`` when the entries
    it folded are a prefix of this scan's.
    """
    log, outcome = scheme.log, RecoveryOutcome(scheme=scheme.name)
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
    scheme.device.poke_batch(pokes)
    outcome.bytes_scanned += scanned
    outcome.bytes_written += sum(len(payload) for _, payload in pokes)
    outcome.committed_transactions += len(committed)
    outcome.rolled_back_transactions = len(pending)
    log.reset()
    bytes_per_ns = scheme.recovery_bytes_per_ns(bandwidth_gb_per_s)
    outcome.elapsed_ns = (
        outcome.bytes_scanned / bytes_per_ns
        + outcome.bytes_written / bytes_per_ns
        + outcome.committed_transactions * scheme.config.nvm.write_latency_ns
    )
    return outcome


# -- snapshot declarations ----------------------------------------------------
LogEntry.__snapshot_state__ = "__atom__"
AppendLog.__snapshot_state__ = "__all__"
