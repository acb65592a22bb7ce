"""The dynamic persist-ordering sanitizer.

Every scheme in this repository *claims* a durability-ordering discipline
— redo logging drains the log before the commit record, undo logging
persists pre-images before in-place writes, HOOP's controller orders the
OOP stream ahead of the STATE_LAST slice.  The crash-point sweep
(:mod:`repro.crashtest`) samples crash sites and checks outcomes; this
module instead checks the *ordering edges themselves*, on every
transaction of an instrumented run, the way a happens-before sanitizer
checks lock discipline.

The sanitizer is attached to a :class:`~repro.txn.system.MemorySystem`
(``MemorySystem(config, scheme, checker=...)``) and observes four event
sources, all purely observationally (it never advances a clock or touches
device content — instrumented runs are bit-identical to bare runs):

* the transaction system reports ``tx_begin`` / ``store`` / the
  commit-return instant;
* each scheme annotates its persists with their *logical* meaning:
  ``log`` (redo/new-value log entry), ``undo`` (pre-image), ``data``
  (in-place home write), ``oop`` (HOOP slice word), ``commit`` (the
  commit record) — always naming the **home address** the persist covers;
* the memory port reports every ``drain`` (sfence) with the issuing port,
  so fences only order writes queued on *that* port;
* the scheme's :class:`~repro.schemes.base.SchemeTraits` declares which
  discipline the stream must satisfy (``durability``).

At each commit the sanitizer replays the transaction's slice of the
event stream against the declared discipline's rules and reports every
violation with the offending home address, transaction id, rule name,
and a minimized event window (just the events that participate in the
broken ordering edge).

Disciplines and the rules they enable:

====================  =====================================================
``none``              no guarantees (native); nothing is checked
``controller-ordered``  hardware FIFO write queue orders queued persists
                      ahead of the sync commit persist (HOOP): coverage +
                      sync commit record, no explicit fence required
``persist-domain``    queued writes are inside a battery-backed persist
                      domain (LAD): coverage + sync commit record
``log-drain``         queued log writes must be explicitly drained before
                      the commit record (Opt-Redo, logregion, LSM)
``flush-fence``       every covering persist must be synchronous or
                      drained before the commit record (OSP)
``undo-inplace``      ``log-drain`` rules plus per-address pre-image
                      ordering: undo entry durable before the first
                      in-place write of that address (Opt-Undo)
====================  =====================================================

Rules, in the order they are checked per committed transaction:

``missing-commit-record``  the transaction stored data but never
                           annotated a commit record;
``async-commit-record``    the commit record was not a synchronous persist;
``uncovered-store``        a stored word has no covering persist
                           (``log``/``data``/``oop``) before the commit
                           record — committed data that is not durable;
``unfenced-write``         every covering persist of a word is
                           asynchronous with no same-port drain between
                           it and the commit record (fence disciplines
                           only) — the dropped-sfence bug class;
``undo-after-data``        an in-place write preceded the pre-image
                           (``undo-inplace`` only);
``undo-unfenced``          the pre-image was queued but never fenced
                           before the in-place write (``undo-inplace``
                           only).

This module is import-light on purpose: the memory port and scheme base
hold a :data:`NULL_CHECKER` reference (mirroring ``NULL_TELEMETRY``), so
it must not import any simulator machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

_WORD = 8
_WORD_MASK = ~(_WORD - 1)

# Covering persist kinds: annotations that make the *new* value durable.
# ``undo`` pre-images protect the old value and are tracked separately.
_COVER_KINDS = frozenset({"log", "data", "oop"})


@dataclass(frozen=True)
class DisciplineRules:
    """Which checks a declared durability discipline enables."""

    coverage: bool  # every stored word needs a covering persist
    fence: bool  # async covers need an explicit drain before commit
    undo_order: bool  # pre-image before first in-place write per address
    commit_sync: bool  # the commit record must be a synchronous persist


DISCIPLINES: Dict[str, DisciplineRules] = {
    "none": DisciplineRules(False, False, False, False),
    "controller-ordered": DisciplineRules(True, False, False, True),
    "persist-domain": DisciplineRules(True, False, False, True),
    "log-drain": DisciplineRules(True, True, False, True),
    "flush-fence": DisciplineRules(True, True, False, True),
    "undo-inplace": DisciplineRules(True, True, True, True),
}


def rules_for(discipline: str) -> DisciplineRules:
    """Resolve a declared discipline to its rule set."""
    try:
        return DISCIPLINES[discipline]
    except KeyError:
        known = ", ".join(sorted(DISCIPLINES))
        raise KeyError(
            f"unknown durability discipline {discipline!r}; known: {known}"
        ) from None


@dataclass(frozen=True)
class CheckEvent:
    """One observed event in the durability stream."""

    seq: int
    ts_ns: float
    kind: str  # tx_begin | store | persist | drain
    tx_id: int = -1
    addr: int = -1
    size: int = 0
    note: str = ""  # persist meaning: log/undo/data/oop/commit
    sync: bool = False
    port: int = -1

    def render(self) -> str:
        """One greppable line for violation windows."""
        if self.kind == "drain":
            return f"#{self.seq} t={self.ts_ns:.0f} drain port{self.port}"
        if self.kind == "tx_begin":
            return f"#{self.seq} t={self.ts_ns:.0f} tx_begin tx={self.tx_id}"
        if self.kind == "store":
            return (
                f"#{self.seq} t={self.ts_ns:.0f} store tx={self.tx_id}"
                f" addr={self.addr:#x}+{self.size}"
            )
        mode = "sync" if self.sync else "async"
        where = f" addr={self.addr:#x}+{self.size}" if self.addr >= 0 else ""
        return (
            f"#{self.seq} t={self.ts_ns:.0f} persist:{self.note}"
            f" tx={self.tx_id}{where} {mode} port{self.port}"
        )


@dataclass
class Violation:
    """One broken ordering edge, with its minimized event window."""

    scheme: str
    discipline: str
    rule: str
    tx_id: int
    addr: int
    message: str
    window: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Greppable multi-line report with the event window indented."""
        lines = [
            f"VIOLATION [{self.rule}] scheme={self.scheme}"
            f" discipline={self.discipline} tx={self.tx_id}"
            f" addr={self.addr:#x}",
            f"  {self.message}",
        ]
        lines.extend(f"    {entry}" for entry in self.window)
        return "\n".join(lines)


# One covering persist of a word: (seq, sync, port).
_Cover = Tuple[int, bool, int]


class NullChecker:
    """The do-nothing checker every component holds by default.

    A shared singleton (:data:`NULL_CHECKER`), mirroring
    ``NULL_TELEMETRY``: the disabled hot-path cost is one attribute
    check, and a checker-off simulation is bit-identical to one built
    before this package existed.
    """

    __slots__ = ()
    active = False

    def bind_scheme(self, name: str, discipline: str) -> None:
        """No-op: a disabled checker tracks nothing."""

    def on_tx_begin(self, tx_id: int, now_ns: float) -> None:
        """No-op: a disabled checker tracks nothing."""

    def on_store(self, tx_id: int, addr: int, size: int, now_ns: float) -> None:
        """No-op: a disabled checker tracks nothing."""

    def note_persist(
        self,
        tx_id: int,
        kind: str,
        addr: int,
        size: int,
        now_ns: float,
        *,
        sync: bool,
        port=None,
    ) -> None:
        """No-op: a disabled checker tracks nothing."""

    def on_drain(self, port, now_ns: float, completion_ns: float) -> None:
        """No-op: a disabled checker tracks nothing."""

    def on_tx_committed(self, tx_id: int, now_ns: float) -> None:
        """No-op: a disabled checker tracks nothing."""


NULL_CHECKER = NullChecker()


class PersistOrderSanitizer(NullChecker):
    """Happens-before-durable checker for one instrumented system."""

    active = True

    def __init__(self, *, max_events: int = 250_000) -> None:
        self.scheme = "?"
        self.discipline = "none"
        self.rules = DISCIPLINES["none"]
        self.events: List[CheckEvent] = []
        self.max_events = max_events
        self.violations: List[Violation] = []
        self.transactions_checked = 0
        self._seq = 0
        self._ports: Dict[int, int] = {}  # id(port) -> small stable id
        self._drains: Dict[int, List[int]] = {}  # port id -> drain seqs
        self._begin_seq: Dict[int, int] = {}
        self._stores: Dict[int, Dict[int, int]] = {}  # tx -> word -> seq
        self._covers: Dict[int, Dict[int, List[_Cover]]] = {}
        self._undo: Dict[int, Dict[int, List[_Cover]]] = {}
        self._commit: Dict[int, CheckEvent] = {}

    # -- event intake ---------------------------------------------------------

    def bind_scheme(self, name: str, discipline: str) -> None:
        """Adopt the attached scheme's identity and declared discipline."""
        self.scheme = name
        self.discipline = discipline
        self.rules = rules_for(discipline)

    def _record(self, event: CheckEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _port_id(self, port) -> int:
        if port is None:
            return -1
        key = id(port)
        pid = self._ports.get(key)
        if pid is None:
            pid = len(self._ports)
            self._ports[key] = pid
        return pid

    def on_tx_begin(self, tx_id: int, now_ns: float) -> None:
        """Open per-transaction tracking tables."""
        seq = self._next_seq()
        self._begin_seq[tx_id] = seq
        self._stores[tx_id] = {}
        self._covers[tx_id] = {}
        self._undo[tx_id] = {}
        self._record(CheckEvent(seq, now_ns, "tx_begin", tx_id))

    def on_store(self, tx_id: int, addr: int, size: int, now_ns: float) -> None:
        """A program store: every touched word becomes an obligation."""
        seq = self._next_seq()
        self._record(CheckEvent(seq, now_ns, "store", tx_id, addr, size))
        stores = self._stores.get(tx_id)
        if stores is None:  # store outside a tracked transaction
            return
        for word in range(addr & _WORD_MASK, addr + size, _WORD):
            stores.setdefault(word, seq)

    def note_persist(
        self,
        tx_id: int,
        kind: str,
        addr: int,
        size: int,
        now_ns: float,
        *,
        sync: bool,
        port=None,
    ) -> None:
        """A scheme annotated one persist with its logical meaning.

        ``addr``/``size`` name the **home-address range** the persist
        covers (the physical target may be a log or shadow location).
        ``kind='commit'`` marks the transaction's commit record.
        """
        pid = self._port_id(port)
        seq = self._next_seq()
        event = CheckEvent(
            seq, now_ns, "persist", tx_id, addr, size, kind, sync, pid
        )
        self._record(event)
        if kind == "commit":
            self._commit.setdefault(tx_id, event)
            return
        if kind in _COVER_KINDS:
            table = self._covers.get(tx_id)
        elif kind == "undo":
            table = self._undo.get(tx_id)
        else:
            return
        if table is None:
            return
        cover = (seq, sync, pid)
        for word in range(addr & _WORD_MASK, addr + size, _WORD):
            table.setdefault(word, []).append(cover)

    def on_drain(self, port, now_ns: float, completion_ns: float) -> None:
        """A write-queue drain: the global fence on that port."""
        pid = self._port_id(port)
        seq = self._next_seq()
        self._drains.setdefault(pid, []).append(seq)
        self._record(CheckEvent(seq, completion_ns, "drain", port=pid))

    # -- validation -----------------------------------------------------------

    def _drained_between(self, pid: int, after: int, before: int) -> bool:
        """True when a drain on ``pid`` falls strictly inside (after, before)."""
        drains = self._drains.get(pid)
        if not drains:
            return False
        index = bisect_right(drains, after)
        return index < len(drains) and drains[index] < before

    def _window(self, tx_id: int, word: int, upto: int) -> List[str]:
        """Minimize the event stream to the edge under report.

        Keeps the transaction's begin, the word's stores and persists,
        every drain (fences are global ordering points worth seeing), and
        the commit record — capped at 20 rendered lines.
        """
        begin = self._begin_seq.get(tx_id, 0)
        relevant: List[CheckEvent] = []
        for event in self.events:
            if event.seq < begin or event.seq > upto:
                continue
            if event.kind == "drain":
                relevant.append(event)
            elif event.tx_id == tx_id:
                if event.addr < 0 or (
                    event.addr <= word < event.addr + max(event.size, 1)
                ) or event.kind == "tx_begin" or event.note == "commit":
                    relevant.append(event)
        lines = [event.render() for event in relevant]
        if len(lines) > 20:
            omitted = len(lines) - 19
            lines = lines[:10] + [f"    ... {omitted} events omitted ..."] + lines[-9:]
        return lines

    def _flag(
        self, rule: str, tx_id: int, addr: int, message: str, upto: int
    ) -> None:
        self.violations.append(
            Violation(
                scheme=self.scheme,
                discipline=self.discipline,
                rule=rule,
                tx_id=tx_id,
                addr=addr,
                message=message,
                window=self._window(tx_id, addr, upto),
            )
        )

    def on_tx_committed(self, tx_id: int, now_ns: float) -> None:
        """Commit returned: validate the transaction's ordering edges."""
        stores = self._stores.pop(tx_id, {})
        covers = self._covers.pop(tx_id, {})
        undos = self._undo.pop(tx_id, {})
        commit = self._commit.pop(tx_id, None)
        self.transactions_checked += 1
        rules = self.rules
        if not rules.coverage or not stores:
            self._begin_seq.pop(tx_id, None)
            return
        horizon = self._seq
        if commit is None:
            first_word = min(stores)
            self._flag(
                "missing-commit-record",
                tx_id,
                first_word,
                f"transaction stored {len(stores)} word(s) but never"
                " annotated a commit record",
                horizon,
            )
            self._begin_seq.pop(tx_id, None)
            return
        if rules.commit_sync and not commit.sync:
            self._flag(
                "async-commit-record",
                tx_id,
                min(stores),
                "the commit record was queued asynchronously; its"
                " durability instant is unordered",
                horizon,
            )
        commit_seq = commit.seq
        for word in sorted(stores):
            usable = [c for c in covers.get(word, ()) if c[0] < commit_seq]
            if not usable:
                self._flag(
                    "uncovered-store",
                    tx_id,
                    word,
                    "stored word has no covering persist (log/data/oop)"
                    " before the commit record — committed data is not"
                    " durable",
                    horizon,
                )
                continue
            if rules.fence:
                fenced = any(
                    sync or self._drained_between(pid, seq, commit_seq)
                    for seq, sync, pid in usable
                )
                if not fenced:
                    self._flag(
                        "unfenced-write",
                        tx_id,
                        word,
                        "every covering persist is asynchronous and no"
                        " drain separates it from the commit record"
                        " (dropped fence)",
                        horizon,
                    )
            if rules.undo_order:
                inplace = [
                    c for c in covers.get(word, ()) if c[0] < commit_seq
                ]
                first_data = min(c[0] for c in inplace)
                pre = [u for u in undos.get(word, ()) if u[0] < first_data]
                if not pre:
                    self._flag(
                        "undo-after-data",
                        tx_id,
                        word,
                        "an in-place write preceded the word's pre-image;"
                        " a crash between them loses the old value",
                        horizon,
                    )
                else:
                    useq, usync, upid = pre[0]
                    if not usync and not self._drained_between(
                        upid, useq, first_data
                    ):
                        self._flag(
                            "undo-unfenced",
                            tx_id,
                            word,
                            "the pre-image was queued but not fenced"
                            " before the first in-place write",
                            horizon,
                        )
        self._begin_seq.pop(tx_id, None)

    # -- reporting ------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when no committed transaction broke its discipline."""
        return not self.violations

# -- snapshot declarations ----------------------------------------------------
# CheckEvent/DisciplineRules are frozen records; Violation's window list is
# append-only per instance, so the sanitizer deep-clones it via "__all__".
CheckEvent.__snapshot_state__ = "__atom__"
DisciplineRules.__snapshot_state__ = "__shared__"
Violation.__snapshot_state__ = "__all__"
NullChecker.__snapshot_state__ = "__shared__"
PersistOrderSanitizer.__snapshot_state__ = "__all__"


def _sanitizer_snapshot_fixup(self, memo: dict) -> None:
    """Re-key ``_ports`` from old port ids to cloned port ids.

    ``_ports`` maps ``id(port)`` to a small stable display id; a snapshot
    clone has new port objects.  Ports are reachable through the scheme,
    so the memo covers every live key; dead keys keep their entry (the
    stable ids must not be reassigned).
    """
    self._ports = {
        (id(memo[key]) if key in memo else key): pid
        for key, pid in self._ports.items()
    }


PersistOrderSanitizer.__snapshot_fixup__ = _sanitizer_snapshot_fixup
