"""The cache hierarchy, driven the way production drives it.

Stores and word loads never enter :class:`CacheHierarchy` through a
method: ``MemorySystem._store`` / ``_load_u64`` probe L1 inline and call
``_miss_resident`` on a miss; every other read goes through
``CacheHierarchy.load``.  So the cases here run a real ``MemorySystem``
around a scheme that records every fill, eviction and store it is
handed, and the two properties compare that path with references kept
in this file: a three-level inclusive LRU model, and the layered
``hierarchy.store`` + ``peek_line`` loop that used to be ``_store``'s
second body.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.sanitizer import NullChecker
from repro.common.addr import split_by_cache_line
from repro.common.config import CacheConfig, SystemConfig
from repro.common.errors import AddressError, TransactionError
from repro.memhier.hierarchy import CacheHierarchy
from repro.nvm.device import NVMDevice
from repro.schemes.base import PersistenceScheme, SchemeTraits
from repro.snapshot import clone_state
from repro.telemetry.hub import NullTelemetry
from repro.txn.system import _OP_OVERHEAD_NS, MemorySystem

LINE = 64
STORE_CHARGE_NS = 0.3


def fill_latency(line_addr):
    """Varies by line, in fractions a float cannot hold exactly."""
    return 50.0 + (line_addr // LINE) % 7 * 0.1


class RecordingScheme(PersistenceScheme):
    """Backs the caches with a dict and logs every call they make."""

    name = "recording"
    traits = SchemeTraits("None", "Low", False, False, "Low", durability="none")

    def __init__(self, config):
        super().__init__(config, NVMDevice(config.nvm))
        self.backing = {}
        self.events = []

    def on_store(self, core, tx_id, addr, size, line_addr, line_data, now_ns):
        self.events.append(
            ("store", core, tx_id, addr, size, line_addr, line_data, now_ns)
        )
        return now_ns + STORE_CHARGE_NS

    def tx_end(self, core, tx_id, now_ns):
        return now_ns

    def fill_line(self, line_addr, now_ns):
        self.events.append(("fill", line_addr, now_ns))
        return self.backing.get(line_addr, bytes(LINE)), fill_latency(line_addr)

    def on_evict(self, line_addr, data, dirty, persistent, tx_id, now_ns):
        self.events.append(
            ("evict", line_addr, data, dirty, persistent, tx_id, now_ns)
        )
        if dirty:
            self.backing[line_addr] = data


class Harness:
    """A memory system wired to an in-memory backing store."""

    def __init__(self, config=None, **system_kwargs):
        self.config = config or SystemConfig.small()
        self.scheme = RecordingScheme(self.config)
        self.system = MemorySystem(self.config, self.scheme, **system_kwargs)

    @property
    def hierarchy(self):
        return self.system.hierarchy

    @property
    def fills(self):
        return [e[1] for e in self.scheme.events if e[0] == "fill"]

    @property
    def evictions(self):
        """``(line, dirty, persistent, tx_id)`` per eviction, in order."""
        return [
            (e[1],) + e[3:6] for e in self.scheme.events if e[0] == "evict"
        ]

    def store(self, core, addr, data):
        """One transactional store; returns the transaction's id."""
        with self.system.transaction(core) as tx:
            tx.store(addr, data)
        return tx.tx_id

    def thrash_llc(self, core=0):
        """Touch twice the LLC's capacity in fresh lines."""
        for i in range(1, self.config.llc.num_lines * 2):
            self.hierarchy.load(core, i * LINE, 8, 0.0)


@pytest.fixture
def h():
    return Harness()


def test_store_then_load_round_trip(h):
    h.store(0, 128, b"payload!")
    data, outcome = h.hierarchy.load(0, 128, 8, 1.0)
    assert data == b"payload!"
    assert outcome.hit_level == "L1"


def test_first_access_misses_to_memory(h):
    _, outcome = h.hierarchy.load(0, 0, 8, 0.0)
    assert outcome.hit_level == "MEM"
    assert outcome.llc_miss
    assert h.fills == [0]
    assert outcome.latency_ns > 50.0


def test_fill_latency_included(h):
    _, miss = h.hierarchy.load(0, 0, 8, 0.0)
    _, hit = h.hierarchy.load(0, 0, 8, 1.0)
    assert miss.latency_ns > hit.latency_ns


def test_l2_and_llc_hit_levels(h):
    cfg = h.config
    h.hierarchy.load(0, 0, 8, 0.0)
    # Evict from L1 by filling its sets with conflicting lines.
    l1_span = cfg.l1.num_sets * 64
    for i in range(1, cfg.l1.ways + 1):
        h.hierarchy.load(0, i * l1_span, 8, 0.0)
    _, outcome = h.hierarchy.load(0, 0, 8, 0.0)
    assert outcome.hit_level in ("L2", "LLC")


def test_other_core_hits_shared_llc(h):
    h.hierarchy.load(0, 0, 8, 0.0)
    _, outcome = h.hierarchy.load(1, 0, 8, 0.0)
    assert outcome.hit_level == "LLC"


def test_dirty_eviction_delivers_data(h):
    h.store(0, 0, b"A" * 64)
    h.thrash_llc()
    assert any(addr == 0 and dirty for addr, dirty, _, _ in h.evictions)
    assert h.hierarchy.stats.dirty_evictions == 1
    # The write-back reached the backing store.
    data, _ = h.hierarchy.load(0, 0, 8, 0.0)
    assert data == b"A" * 8


def test_persistent_bit_travels_with_eviction(h):
    h.scheme._next_tx_id = 42
    assert h.store(0, 0, b"B" * 8) == 42
    h.thrash_llc()
    match = [e for e in h.evictions if e[0] == 0]
    assert match and match[0][2] is True and match[0][3] == 42


def test_inclusive_back_invalidation(h):
    h.hierarchy.load(0, 0, 8, 0.0)  # in core 0's L1 and the LLC
    h.thrash_llc(core=1)
    assert 0 in [e[0] for e in h.evictions]
    # After the LLC eviction, core 0's L1 must not still hold it.
    _, outcome = h.hierarchy.load(0, 0, 8, 0.0)
    assert outcome.hit_level == "MEM"


def test_crash_loses_everything(h):
    h.store(0, 0, b"F" * 8)
    h.hierarchy.crash()
    data, outcome = h.hierarchy.load(0, 0, 8, 0.0)
    assert outcome.hit_level == "MEM"
    assert data == bytes(8)  # the dirty data never reached backing


def test_line_crossing_accesses_rejected(h):
    """``hierarchy.load`` is per line; a store is split, never refused."""
    with pytest.raises(AddressError):
        h.hierarchy.load(0, 60, 8, 0.0)
    h.store(0, 60, b"12345678")
    stores = [e for e in h.scheme.events if e[0] == "store"]
    assert [e[3:6] for e in stores] == [(60, 4, 0), (64, 4, 64)]
    assert h.system.load(60, 8) == b"12345678"
    with pytest.raises(TransactionError):
        h.store(0, 0, b"")


def test_bad_core_rejected(h):
    with pytest.raises(AddressError):
        h.hierarchy.load(99, 0, 8, 0.0)
    with pytest.raises(AddressError):
        h.store(-1, 0, b"x")  # clocks[-1] exists; the hierarchy's core does not


def test_stats_track_miss_ratio(h):
    h.hierarchy.load(0, 0, 8, 0.0)
    h.hierarchy.load(0, 0, 8, 1.0)
    assert h.hierarchy.stats.llc_misses == 1
    assert 0 < h.hierarchy.stats.llc_miss_ratio <= 1.0


def test_fill_must_return_full_line():
    config = SystemConfig.small()
    bad = CacheHierarchy(config, lambda a, t: (b"short", 0.0),
                         lambda *args: None)
    with pytest.raises(AddressError):
        bad.load(0, 0, 8, 0.0)


# -- snapshot clones keep ``_flags`` and the LLC on one record per line -------


def _dirty_line_survives_eviction(scheme, clone):
    """Load a line, (clone,) store to it, push it out, read it back."""
    system = MemorySystem(SystemConfig.small(), scheme)
    line = (system.allocate(4096 * LINE) + LINE - 1) // LINE * LINE
    system.load(line, 8)
    if clone:
        system = clone_state(system)
    with system.transaction() as tx:
        tx.store_u64(line, 0xDEADBEEF)
    for i in range(1, 2048):
        system.load(line + i * LINE, 8)
    return (
        int.from_bytes(system.load(line, 8), "little"),
        system.hierarchy.stats.dirty_evictions,
        system.device.stats.bytes_written,
        system.now_ns,
    )


@pytest.mark.parametrize("scheme", ["native", "hoop", "opt-redo", "osp"])
def test_store_after_clone_is_evicted_dirty(scheme):
    """A line resident at capture and stored to in the clone is dirty."""
    plain = _dirty_line_survives_eviction(scheme, clone=False)
    assert plain[:2] == (0xDEADBEEF, 1)
    assert _dirty_line_survives_eviction(scheme, clone=True) == plain


def test_clone_flags_alias_its_own_llc(h):
    h.store(0, 0, b"x")
    h.hierarchy.load(1, 4096, 8, 0.0)
    twin = clone_state(h.system).hierarchy
    assert twin._flags.keys() == h.hierarchy._flags.keys() == {0, 4096}
    for line, flags in twin._flags.items():
        index = (line >> twin.llc._shift) & twin.llc._set_mask
        assert twin.llc._sets[index][line] is flags
        assert flags is not h.hierarchy._flags[line]
        assert flags == h.hierarchy._flags[line]


# -- (a) the production path against a three-level inclusive LRU model --------

TINY = SystemConfig.small().replace(
    num_cores=2,
    l1=CacheConfig("L1", 4 * LINE, 2, latency_ns=1.6),
    l2=CacheConfig("L2", 8 * LINE, 2, latency_ns=4.8),
    llc=CacheConfig("LLC", 16 * LINE, 4, latency_ns=12.0),
)
BASE = 0x1000
SPAN = 40 * LINE  # 2.5x the LLC, so sequences evict at every level


def _pieces(addr, size):
    """The model's own line split (not ``split_by_cache_line``, under test)."""
    while size:
        line = addr // LINE * LINE
        n = min(size, line + LINE - addr)
        yield line, addr, n
        addr, size = addr + n, size - n


class ModelLevel:
    """One level: per set, a list of resident lines with the LRU first."""

    def __init__(self, config):
        self.ways = config.ways
        self.sets = [[] for _ in range(config.num_sets)]
        self.hits = self.misses = self.evictions = 0

    def set_of(self, line):
        return self.sets[line // LINE % len(self.sets)]

    def hit(self, line):
        lru = self.set_of(line)
        if line not in lru:
            self.misses += 1
            return False
        self.hits += 1
        lru.remove(line)
        lru.append(line)
        return True

    def insert(self, line):
        """Add an absent line; returns the line it pushed out, if any."""
        lru = self.set_of(line)
        victim = None
        if len(lru) == self.ways:
            victim = lru.pop(0)
            self.evictions += 1
        lru.append(line)
        return victim


class Model:
    """What a ``MemorySystem`` around ``RecordingScheme`` must do."""

    def __init__(self, config):
        cores = range(config.num_cores)
        self.l1 = [ModelLevel(config.l1) for _ in cores]
        self.l2 = [ModelLevel(config.l2) for _ in cores]
        self.llc = ModelLevel(config.llc)
        self.latency = [c.latency_ns for c in (config.l1, config.l2, config.llc)]
        self.lines = {}  # line -> [bytearray, dirty, persistent, tx_id]
        self.backing = {}
        self.events = []
        self.clocks = [0.0] * config.num_cores
        self.stats = dict.fromkeys(
            ("loads", "stores", "llc_misses", "llc_accesses", "dirty_evictions"), 0
        )
        self.tx_loads = self.tx_id = 0

    def touch(self, core, line, now):
        """Make ``line`` resident in ``core``'s L1; returns the latency."""
        l1, l2, llc = self.latency
        if self.l1[core].hit(line):
            return l1
        latency = l1 + l2
        if not self.l2[core].hit(line):
            self.stats["llc_accesses"] += 1
            latency = l1 + l2 + llc
            if not self.llc.hit(line):
                self.stats["llc_misses"] += 1
                self.events.append(("fill", line, now))
                data = self.backing.get(line, bytes(LINE))
                latency += fill_latency(line)
                victim = self.llc.insert(line)
                if victim is not None:
                    for level in self.l1 + self.l2:
                        if victim in level.set_of(victim):
                            level.set_of(victim).remove(victim)
                    old, dirty, persistent, tx_id = self.lines.pop(victim)
                    self.stats["dirty_evictions"] += dirty
                    self.events.append(
                        ("evict", victim, bytes(old), dirty, persistent, tx_id, now)
                    )
                    if dirty:
                        self.backing[victim] = bytes(old)
                self.lines[line] = [bytearray(data), False, False, 0]
            self.l2[core].insert(line)
        self.l1[core].insert(line)
        return latency

    def load(self, core, addr, size):
        now = self.clocks[core]
        out = b""
        for line, piece_addr, n in _pieces(addr, size):
            self.stats["loads"] += 1
            now += self.touch(core, line, now) + _OP_OVERHEAD_NS
            out += self.lines[line][0][piece_addr - line : piece_addr - line + n]
        self.clocks[core] = now
        self.tx_loads += 1
        return out

    def store(self, core, addr, data):
        now = self.clocks[core]
        for line, piece_addr, n in _pieces(addr, len(data)):
            self.stats["stores"] += 1
            now += self.touch(core, line, now) + _OP_OVERHEAD_NS
            entry = self.lines[line]
            offset = piece_addr - line
            entry[0][offset : offset + n] = data[piece_addr - addr :][:n]
            entry[1:] = [True, True, self.tx_id]
            self.events.append(
                ("store", core, self.tx_id, piece_addr, n, line, bytes(entry[0]), now)
            )
            now += STORE_CHARGE_NS
        self.clocks[core] = now

    def run(self, op):
        """One operation; returns what the program sees: value and clock."""
        core, kind, addr, size, fill = op
        value = None
        if kind == "load":
            value = self.load(core, addr, size)
        else:
            self.tx_id += 1  # word loads and stores run in a transaction
            if kind == "load_u64":
                value = int.from_bytes(self.load(core, addr, 8), "little")
            else:
                self.store(core, addr, _payload(size, fill))
        return value, self.clocks[core]

    def state(self):
        def level(m):
            sets = {index: lru for index, lru in enumerate(m.sets) if lru}
            return (m.hits, m.misses, m.evictions, sets)

        return {
            "l1": [level(m) for m in self.l1],
            "l2": [level(m) for m in self.l2],
            "llc": level(self.llc),
            "stats": self.stats,
            "tx_loads": self.tx_loads,
            "events": self.events,
            "clocks": self.clocks,
            "lines": {k: (bytes(v[0]), *v[1:]) for k, v in self.lines.items()},
        }


def _payload(size, fill):
    return bytes((fill + i) % 256 for i in range(size))


def run_op(system, op):
    """The same operation through the public surface of a real system."""
    core, kind, addr, size, fill = op
    value = None
    if kind == "load":
        value = system.load(addr, size, core)
    else:
        with system.transaction(core) as tx:
            if kind == "load_u64":
                value = tx.load_u64(addr)
            else:
                tx.store(addr, _payload(size, fill))
    return value, system.clocks[core]


def system_state(system):
    h = system.hierarchy

    def level(cache):
        # Buckets exist once a line maps to them: compare the non-empty.
        sets = {
            index: list(bucket)
            for index, bucket in cache._sets.items()
            if bucket
        }
        return (cache.hits, cache.misses, cache.evictions, sets)

    return {
        "l1": [level(cache) for cache in h._l1],
        "l2": [level(cache) for cache in h._l2],
        "llc": level(h.llc),
        "stats": dataclasses.asdict(h.stats),
        "tx_loads": system.scheme.stats.tx_loads,
        "events": system.scheme.events,
        "clocks": system.clocks,
        "lines": {
            line: (bytes(h._data[line]), f.dirty, f.persistent, f.tx_id)
            for line, f in h._flags.items()
        },
    }


# Sizes up to 200 B at any alignment: an access covers one to five lines.
_ops = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from(["load", "load_u64", "store"]),
        st.integers(BASE, BASE + SPAN - 1),
        st.integers(1, 200),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=_ops, cut=st.floats(0, 1))
def test_accesses_match_reference_model(ops, cut):
    """Hits, fills, evictions, bytes, flags and clocks all equal the model.

    At ``cut`` the system is cloned and both copies run the same suffix.
    The clone goes first, while the original still sits at the capture
    point: in lockstep, state the two wrongly shared would be kept in
    step by the other copy and never show.
    """
    model = Model(TINY)
    system = Harness(TINY).system
    cut = int(cut * len(ops))
    for op in ops[:cut]:
        assert run_op(system, op) == model.run(op)
    twin = clone_state(system)
    expected = [model.run(op) for op in ops[cut:]]
    for copy in (twin, system):
        assert [run_op(copy, op) for op in ops[cut:]] == expected
        assert system_state(copy) == model.state()


# -- (b) ``_store`` against the layered loop it replaced ----------------------

_LINE_MASK = ~(LINE - 1)


def layered_hierarchy_store(h, core, addr, data, now_ns, *, persistent, tx_id):
    """``CacheHierarchy.store`` as deleted: one line, through ``probe``."""
    if not 0 <= core < h._num_cores:
        raise AddressError(f"core {core} out of range")
    if not data:
        raise AddressError("empty store")
    line = addr & _LINE_MASK
    if (addr + len(data) - 1) & _LINE_MASK != line:
        raise AddressError("store must not cross a cache-line boundary")
    h.stats.stores += 1
    if h._l1[core].probe(line):
        outcome = h._out_l1
    else:
        outcome = h._miss_resident(core, line, now_ns)
    offset = addr - line
    h._data[line][offset : offset + len(data)] = data
    flags = h._flags[line]
    flags.dirty = True
    if persistent:
        flags.persistent = True
        flags.tx_id = tx_id
    return outcome


def layered_peek_line(h, line_addr):
    data = h._data.get(line_addr & _LINE_MASK)
    return bytes(data) if data is not None else None


def layered_store(system, tx, addr, data):
    """``MemorySystem._store``'s split-line body as deleted."""
    core = tx.core
    now = system.clocks[core]
    if system._chk_on:
        system.check.on_store(tx.tx_id, addr, len(data), now)
    start_ns = now
    for line_addr, piece_addr, piece_size in split_by_cache_line(addr, len(data)):
        offset = piece_addr - addr
        outcome = layered_hierarchy_store(
            system.hierarchy,
            core,
            piece_addr,
            data[offset : offset + piece_size],
            now,
            persistent=True,
            tx_id=tx.tx_id,
        )
        now += outcome.latency_ns + _OP_OVERHEAD_NS
        line_data = layered_peek_line(system.hierarchy, line_addr)
        now = system.scheme.on_store(
            core, tx.tx_id, piece_addr, piece_size, line_addr, line_data, now
        )
    system.clocks[core] = now
    if system._tel_on:
        system.telemetry.record("store_latency_ns", now - start_ns)


class RecordingTelemetry(NullTelemetry):
    enabled = True

    def __init__(self):
        self.records = []

    def record(self, name, value):
        self.records.append((name, value))


class RecordingChecker(NullChecker):
    active = True

    def __init__(self):
        self.stores = []

    def on_store(self, tx_id, addr, size, now_ns):
        self.stores.append((tx_id, addr, size, now_ns))


_stores = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(BASE, BASE + SPAN - 1),
        st.binary(min_size=1, max_size=200),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(stores=_stores, cut=st.integers(0, 30))
def test_store_matches_layered_reference(stores, cut):
    """Same clocks, ``on_store`` bytes, flags, stats and telemetry.

    Both systems are cloned at ``cut`` so the copy-on-write arm runs on
    each side.
    """

    def rig():
        return Harness(
            TINY, telemetry=RecordingTelemetry(), checker=RecordingChecker()
        ).system

    real, ref = rig(), rig()
    for index, (core, addr, data) in enumerate(stores):
        if index == cut:
            real, ref = clone_state(real), clone_state(ref)
        with real.transaction(core) as tx:
            tx.store(addr, data)
        with ref.transaction(core) as tx:
            layered_store(ref, tx, addr, data)
        assert system_state(real) == system_state(ref)
    assert real.telemetry.records == ref.telemetry.records
    assert real.check.stores == ref.check.stores
    assert len(real.check.stores) == len(stores)
