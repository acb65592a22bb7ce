"""The hash-based physical-to-physical address mapping table (§III-C).

Maps home-region **word** addresses to the current out-of-place location of
their newest durable value: either a slot in a core's OOP data buffer (the
update has not been flushed yet) or a word slot inside a data memory slice
in the OOP region.  Lookups are grouped per cache line because the consumer
is the LLC-miss path, which reconstructs a whole 64-byte line.

Capacity is the SRAM budget from Section III-H: 2 MB at 16 bytes per entry
(8-byte home word address + 8-byte OOP location) = 128 K entries.  When
occupancy crosses the configured threshold the controller triggers
on-demand GC; entries belonging to still-open transactions cannot be
migrated, so the table may transiently exceed its budget — counted in
``overflow_events`` and reported, never hidden.

Design note (documented deviation): the paper removes an entry when an LLC
miss hits the table, arguing the cache hierarchy now holds the newest
version.  That optimization is purely about SRAM occupancy and re-creates
the entry on the next eviction; we keep entries until GC migrates them,
which preserves identical read results while making the occupancy we report
an upper bound.  See DESIGN.md §"Mapping-table lifetime".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.addr import CACHE_LINE_BYTES, cache_line_base
from repro.snapshot import reset_volatile

_LINE_MASK = ~(CACHE_LINE_BYTES - 1)


class OOPLocation(NamedTuple):
    """Where a word's newest durable (or buffered) value lives.

    A word still in a core's OOP data buffer maps to that core's one
    shared marker ``(True, core, 0)`` — the buffer itself knows the
    value — so staging a word allocates no location at all; a flushed
    word maps to its slot in a region slice.
    """

    in_buffer: bool  # True: core's OOP data buffer; False: OOP region slice
    slice_index: int  # region slice index (or buffer core id when in_buffer)
    word_slot: int  # word position within the slice (0 in the buffer)


@dataclass
class MappingStats:
    inserts: int = 0
    updates: int = 0
    removes: int = 0
    line_hits: int = 0
    line_misses: int = 0
    overflow_events: int = 0
    peak_entries: int = 0
    condensed_lines: int = 0


class MappingTable:
    """Home-word → OOP-location map with a hard SRAM entry budget.

    With ``condense=True`` (the paper's §III-I extension, "condense
    multiple mapping entries into one by exploiting the data locality"),
    a cache line whose eight words all map into the *same* memory slice
    is accounted as a single entry instead of eight — the SRAM-occupancy
    saving the paper sketches.  Lookup results are identical; only the
    occupancy accounting (and therefore GC-pressure timing) changes.
    """

    def __init__(self, capacity_entries: int, *, condense: bool = False) -> None:
        if capacity_entries <= 0:
            raise ValueError("mapping table capacity must be positive")
        self.capacity_entries = capacity_entries
        self.condense = condense
        # line base -> {word addr -> OOPLocation}
        self._lines: Dict[int, Dict[int, OOPLocation]] = {}
        self._condensed: set = set()
        self._entries = 0
        self.stats = MappingStats()

    # -- condensing (§III-I) --------------------------------------------------

    def _recheck_condensed(self, line: int) -> None:
        """Update the line's condensed status and entry accounting."""
        if not self.condense:
            return
        words = self._lines.get(line)
        condensable = (
            words is not None
            and len(words) == 8
            and len({loc.slice_index for loc in words.values()}) == 1
            and not any(loc.in_buffer for loc in words.values())
        )
        if condensable and line not in self._condensed:
            self._condensed.add(line)
            self._entries -= 7
            self.stats.condensed_lines += 1
        elif not condensable and line in self._condensed:
            self._condensed.discard(line)
            self._entries += 7

    # -- store-side updates -----------------------------------------------------

    def record(self, word_addr: int, location: OOPLocation) -> None:
        """Insert or update the newest location of a home word."""
        line = word_addr & _LINE_MASK
        words = self._lines.get(line)
        if words is None:
            words = {}
            self._lines[line] = words
        stats = self.stats
        if word_addr in words:
            stats.updates += 1
        else:
            entries = self._entries + 1
            self._entries = entries
            stats.inserts += 1
            if entries > self.capacity_entries:
                stats.overflow_events += 1
            if entries > stats.peak_entries:
                stats.peak_entries = entries
        words[word_addr] = location
        if self.condense:
            self._recheck_condensed(line)

    def relocate_flushed(
        self,
        addrs: Sequence[int],
        slice_index: int,
        marker: OOPLocation,
    ) -> None:
        """Repoint one flushed slice's words at their slots in it.

        ``addrs`` is the slice's word addresses in slot order and
        ``marker`` the flushing core's buffer entry.  An entry
        moves only while it is still that marker: a store from another
        core since then carries that core's marker (or already points at
        its slice) and keeps it, while a re-store from the same core
        overwrote the pending word in place, so it *is* the word flushed.
        """
        lines = self._lines
        condense = self.condense
        new = tuple.__new__  # skips OOPLocation.__new__'s Python frame
        for slot, word_addr in enumerate(addrs):
            line = word_addr & _LINE_MASK
            entries = lines.get(line)
            if entries is not None and entries.get(word_addr) == marker:
                entries[word_addr] = new(
                    OOPLocation, (False, slice_index, slot)
                )
                if condense:
                    self._recheck_condensed(line)

    # -- load-side lookups --------------------------------------------------------

    def lookup_line(self, line_addr: int) -> Optional[Dict[int, OOPLocation]]:
        """All mapped words of a cache line (the LLC-miss probe).

        Returns a live read-only view of the table's own dict — callers
        must not mutate it or hold it across table updates.
        """
        words = self._lines.get(line_addr & _LINE_MASK)
        if words:
            self.stats.line_hits += 1
            return words
        self.stats.line_misses += 1
        return None

    def lookup_word(self, word_addr: int) -> Optional[OOPLocation]:
        """The word's OOP-region location (None: no entry for it)."""
        words = self._lines.get(cache_line_base(word_addr))
        if words is None:
            return None
        return words.get(word_addr)

    # -- GC-side removal --------------------------------------------------------

    def remove_migrated(
        self, word_addr: int, src_slice: int, src_slot: int
    ) -> bool:
        """Drop the entry GC just migrated home; True when it was dropped.

        Mirrors Algorithm 1 lines 22–23: after GC writes a word home, the
        mapping entry is removed — but only if it still describes the
        version that was migrated, i.e. it points at the slice slot the
        word was read from.  A newer store (buffered, or flushed to a
        different slot) keeps its entry.
        """
        line = word_addr & _LINE_MASK
        words = self._lines.get(line)
        if words is None:
            return False
        current = words.get(word_addr)
        if (
            current is None
            or current.in_buffer
            or current.slice_index != src_slice
            or current.word_slot != src_slot
        ):
            return False
        if line in self._condensed:
            self._condensed.discard(line)
            self._entries += 7
        del words[word_addr]
        self._entries -= 1
        self.stats.removes += 1
        if not words:
            del self._lines[line]
        return True

    # -- occupancy ------------------------------------------------------------

    @property
    def entries(self) -> int:
        return self._entries

    @property
    def fill_fraction(self) -> float:
        return self._entries / self.capacity_entries

    def tracked_lines(self) -> List[int]:
        return list(self._lines.keys())

    def iter_words(self) -> Iterable[Tuple[int, OOPLocation]]:
        for words in self._lines.values():
            yield from words.items()

    # -- crash lifecycle -----------------------------------------------------------

    # SRAM content is lost on power failure; the counters stay.
    __durable__ = ("capacity_entries", "condense", "stats")
    crash = reset_volatile


# -- snapshot declarations ----------------------------------------------------
# OOPLocation is a NamedTuple of scalars: atom-shared (one lives per
# flushed word, so skipping the per-object engine call matters).
OOPLocation.__snapshot_state__ = "__atom__"
MappingStats.__snapshot_state__ = "__atoms__"
MappingTable.__snapshot_state__ = "__all__"
