"""The commit log: address memory slices recording committed transactions.

Section III-D: "The start address of these linked memory slices is stored
in an address memory slice.  Address memory slices allow GC to quickly
identify committed transactions in the OOP region."

Each entry names one **chain segment** — the region index of its last data
slice, from which prev-links walk the segment newest-first.  A transaction
normally has exactly one entry; extra uncommitted entries appear only when
a prev-delta overflowed the 24-bit field mid-transaction.  Appending the
final entry with the ``committed`` bit — a synchronous 128-byte slice
persist — is **HOOP's commit point**: a transaction whose committed entry
is durable is recovered; one without is garbage.  GC sets the ``retired``
bit once the transaction's updates have been migrated to the home region,
after which neither GC nor recovery replays it and the data blocks it
references become reclaimable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

from repro.core.oop_region import OOPRegion
from repro.core.slices import AddressSliceEntry, SliceCodec
from repro.snapshot import reset_volatile
from repro.telemetry.hub import NULL_TELEMETRY


@dataclass(frozen=True)
class _Page:
    """A volatile view of one on-NVM address slice.

    Immutable: an append or a retire replaces the page in
    ``CommitLog._pages``, so snapshot forks share every page.
    """

    __snapshot_state__ = "__atom__"

    slice_index: int
    entries: Tuple[AddressSliceEntry, ...]
    sequence: int  # commit-log page number, for recovery ordering

    @property
    def live_entries(self) -> int:
        return sum(1 for e in self.entries if not e.retired)


class CommittedTx(NamedTuple):
    """A replayable transaction: its id and segment tails, oldest first."""

    tx_id: int
    segment_tails: Tuple[int, ...]


class LogAnalysis:
    """What commit-log pages say, folded one page at a time in log order.

    Recovery keeps the analysis of a run of pages and folds only the
    pages after it, into a ``copy``: a kept analysis is never folded into.
    """

    __slots__ = ("_txs", "_committed_ids", "open_segments", "known")

    def __init__(self) -> None:
        self._txs: Dict[int, CommittedTx] = {}  # unretired tails per tx
        self._committed_ids: List[int] = []  # of committed entries, in order
        # Uncommitted, unretired tails per tx: recovery adds a scanned
        # STATE_LAST slice when the committed entry never reached a page.
        self.open_segments: Dict[int, Tuple[int, ...]] = {}
        self.known: Set[int] = set()  # every tx id in any page

    def copy(self) -> "LogAnalysis":
        """An analysis to fold more pages into; ``self`` stays as is."""
        out = LogAnalysis.__new__(LogAnalysis)
        out._txs = dict(self._txs)
        out._committed_ids = list(self._committed_ids)
        out.open_segments = dict(self.open_segments)
        out.known = set(self.known)
        return out

    def fold(self, entries: Iterable[AddressSliceEntry]) -> None:
        """Extend the analysis by one page's entries."""
        txs = self._txs
        open_segments = self.open_segments
        known = self.known
        for entry in entries:
            tx_id = entry.tx_id
            known.add(tx_id)
            if entry.retired:
                txs.pop(tx_id, None)
                continue
            tail = entry.tail_slice
            tx = txs.get(tx_id)
            txs[tx_id] = CommittedTx(
                tx_id, (tail,) if tx is None else tx.segment_tails + (tail,)
            )
            if entry.committed:
                self._committed_ids.append(tx_id)
            else:
                open_segments[tx_id] = open_segments.get(tx_id, ()) + (tail,)

    def logged(self) -> List[CommittedTx]:
        """Live (committed, unretired) transactions in commit order.

        A transaction is included iff its final entry carries the
        ``committed`` bit and is not retired; its tails oldest first.
        """
        txs = self._txs
        return [txs[tx_id] for tx_id in self._committed_ids if tx_id in txs]


class CommitLog:
    """Manages address memory slices and the retired-bit lifecycle."""

    __snapshot_state__ = "__all__"

    def __init__(self, region: OOPRegion, codec: SliceCodec) -> None:
        self.region = region
        self.codec = codec
        self._pages: List[_Page] = []
        # Slice indexes of pages with entries not yet written out.
        self._dirty: Set[int] = set()
        self._next_sequence = 0
        self.commits = 0
        self.segments = 0
        self.retired = 0
        self.telemetry = NULL_TELEMETRY
        self.track = "ctrl0"

    # -- commit path --------------------------------------------------------

    def append_entry(
        self, tx_id: int, tail_slice: int, committed: bool, now_ns: float
    ) -> float:
        """Record a chain segment; returns completion time.

        Commit entries are *lazy*: the transaction's durability comes from
        its synchronously-persisted STATE_LAST data slice, and the address
        slice exists to let GC and recovery find transactions quickly
        (§III-D), so a page is only written out when it fills — batching
        up to ``entries_per_addr_slice`` commits into one 128-byte write.
        Mid-transaction *segment* entries (uncommitted continuations) are
        persisted eagerly because the final data slice alone cannot reach
        them.
        """
        page = self._current_page(now_ns)
        page = self._pages[-1] = _Page(
            page.slice_index,
            page.entries
            + (
                AddressSliceEntry(
                    tx_id=tx_id, tail_slice=tail_slice, committed=committed
                ),
            ),
            page.sequence,
        )
        self.segments += 1
        if committed:
            self.commits += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                now_ns,
                "commit_log_append",
                self.track,
                {"tx": tx_id, "committed": committed},
            )
        if not committed:
            return self._flush_page(page, now_ns, sync=True)
        if len(page.entries) >= self.codec.entries_per_addr_slice:
            return self._flush_page(page, now_ns, sync=False)
        self._dirty.add(page.slice_index)
        return now_ns

    def _flush_page(self, page: "_Page", now_ns: float, *, sync: bool) -> float:
        raw = self.codec.encode_addr(page)
        self._dirty.discard(page.slice_index)
        return self.region.write_slice(page.slice_index, raw, now_ns, sync=sync)

    def flush_dirty(self, now_ns: float, *, sync: bool = True) -> float:
        """Persist every page with unwritten entries (pre-retire barrier)."""
        completion = now_ns
        for page in self._pages:
            if page.slice_index in self._dirty:
                completion = self._flush_page(page, now_ns, sync=sync)
        return completion

    def _current_page(self, now_ns: float) -> _Page:
        if self._pages and (
            len(self._pages[-1].entries) < self.codec.entries_per_addr_slice
        ):
            return self._pages[-1]
        return self._open_page((), now_ns)

    def _open_page(
        self, entries: Tuple[AddressSliceEntry, ...], now_ns: float
    ) -> _Page:
        slice_index = self.region.allocate_slice(now_ns, stream="addr")
        page = _Page(slice_index, entries, self._next_sequence)
        self._next_sequence += 1
        self._pages.append(page)
        return page

    def record_commits(self, txs: List[CommittedTx], now_ns: float) -> float:
        """Durably log recovered commits on fresh pages; returns completion.

        Each transaction gets one committed entry for its last segment
        tail (its earlier tails are already on durable pages).  The
        pages are fresh, never the open one: a torn rewrite loses every
        entry on its page, and one there may be the only durable copy
        of a commit decision.
        """
        per_page = self.codec.entries_per_addr_slice
        completion = now_ns
        for start in range(0, len(txs), per_page):
            entries = tuple(
                AddressSliceEntry(tx.tx_id, tx.segment_tails[-1])
                for tx in txs[start:start + per_page]
            )
            page = self._open_page(entries, now_ns)
            completion = self._flush_page(page, now_ns, sync=True)
        return completion

    # -- consumers (GC, recovery) ------------------------------------------------

    def analyse(self) -> LogAnalysis:
        """The volatile pages' committed, open and known transactions."""
        analysis = LogAnalysis()
        for page in self._pages:
            analysis.fold(page.entries)
        return analysis

    def retire(self, tx_ids: Iterable[int], now_ns: float) -> float:
        """Mark transactions migrated; rewrites each affected page durably.

        Must complete before the data blocks those transactions reference
        are reclaimed, otherwise a crash between reclaim and retire would
        leave recovery chasing chains into reused slices.
        """
        ids = set(tx_ids)
        pages = self._pages
        # tx -> positions of the pages holding its entries, in page then
        # entry order (the order entries were appended in); built per
        # call rather than kept, so a snapshot clone has no
        # per-transaction list to copy.
        tx_pages: Dict[int, List[int]] = {}
        for position, page in enumerate(pages):
            for entry in page.entries:
                if entry.tx_id in ids:
                    tx_pages.setdefault(entry.tx_id, []).append(position)
        dirty: List[int] = []
        for tx_id in ids:
            for position in tx_pages.get(tx_id, ()):
                page = pages[position]
                entries = list(page.entries)
                changed = False
                for i, entry in enumerate(entries):
                    if entry.tx_id == tx_id and not entry.retired:
                        entries[i] = AddressSliceEntry(
                            tx_id=entry.tx_id,
                            tail_slice=entry.tail_slice,
                            committed=entry.committed,
                            retired=True,
                        )
                        self.retired += 1
                        changed = True
                if changed:
                    pages[position] = _Page(
                        page.slice_index, tuple(entries), page.sequence
                    )
                    if position not in dirty:
                        dirty.append(position)
        completion = now_ns
        for position in dirty:
            completion = self._flush_page(pages[position], now_ns, sync=True)
        return completion

    # -- page reclamation -----------------------------------------------------------

    def fully_retired_pages(self) -> List[int]:
        """Slice indexes of pages with no live entries (reclaimable)."""
        return [
            p.slice_index
            for p in self._pages[:-1]  # never reclaim the open tail page
            if p.entries and p.live_entries == 0
        ]

    def drop_pages(self, slice_indexes: Iterable[int]) -> None:
        """Forget fully-retired pages (their blocks are being reclaimed)."""
        doomed = set(slice_indexes)
        self._pages = [p for p in self._pages if p.slice_index not in doomed]
        self._dirty -= doomed

    @property
    def live_count(self) -> int:
        return sum(p.live_entries for p in self._pages)

    # -- crash lifecycle -----------------------------------------------------

    # A power cut loses the page cache, dirty set and numbering (NVM copies
    # remain); crash() is also the reset after recovery wiped the region.
    __durable__ = (
        "region", "codec", "commits", "segments", "retired", "telemetry", "track")
    crash = reset_volatile

    def rebuild(
        self, pages: List[Tuple[int, Tuple[AddressSliceEntry, ...], int]]
    ) -> None:
        """Restore the volatile view from decoded on-NVM pages (recovery).

        ``pages`` are ``(slice_index, entries, sequence)`` triples.
        """
        self._pages = sorted(
            (_Page(*page) for page in pages), key=lambda p: p.sequence
        )
        self._dirty = set()
        if self._pages:
            self._next_sequence = self._pages[-1].sequence + 1


# -- snapshot declarations ----------------------------------------------------
# CommittedTx is an immutable record built on demand; _Page and CommitLog
# declare theirs in the class body.
CommittedTx.__snapshot_state__ = "__atom__"
