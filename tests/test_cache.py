"""One cache level: what ``CacheLevel`` does itself, and LRU in the miss path.

A level only probes; lines enter and leave its buckets in
``CacheHierarchy._miss_resident``.  The probe cases use the level alone
(filled by hand); the replacement cases drive a hierarchy whose levels
are one or two sets wide.  ``tests/test_hierarchy.py`` checks all three
levels together against a reference model.
"""

import pytest

from repro.common.config import CacheConfig, SystemConfig
from repro.memhier.cache import _TAG, CacheLevel
from repro.memhier.hierarchy import CacheHierarchy
from repro.snapshot import clone_state


def tiny_cache(ways=2, sets=2):
    return CacheLevel(CacheConfig("T", sets * ways * 64, ways))


def fill(cache, line):
    cache._sets[line // 64 % cache.config.num_sets][line] = _TAG


class TinyHierarchy:
    """Two cores over caches of the given ``(sets, ways)``; logs evictions."""

    def __init__(self, l1=(1, 2), l2=(1, 2), llc=(1, 2)):
        def level(name, shape):
            return CacheConfig(name, shape[0] * shape[1] * 64, shape[1])

        config = SystemConfig.small().replace(
            num_cores=2,
            l1=level("L1", l1),
            l2=level("L2", l2),
            llc=level("LLC", llc),
        )
        self.evicted = []
        self.hierarchy = CacheHierarchy(
            config, lambda line, now: (bytes(64), 50.0), self._evict
        )

    def _evict(self, line, data, dirty, persistent, tx_id, now):
        self.evicted.append((line, dirty, persistent, tx_id))

    def load(self, core, line):
        return self.hierarchy.load(core, line, 8, 0.0)[1].hit_level


def test_miss_then_hit():
    cache = tiny_cache()
    assert not cache.probe(0)
    fill(cache, 0)
    assert cache.probe(0)
    assert cache.hits == 1
    assert cache.misses == 1


def test_lru_victim_selection():
    t = TinyHierarchy()
    t.load(0, 0)
    t.load(0, 64)
    assert t.load(1, 0) == "LLC"  # refreshes 0 in the LLC: now 64 is LRU
    t.load(0, 128)
    assert [e[0] for e in t.evicted] == [64]


def test_insert_existing_refreshes_without_eviction():
    """A probe hit refreshes the line; the next refill pushes out the other."""
    t = TinyHierarchy(l2=(1, 4), llc=(1, 4))
    t.load(0, 0)
    t.load(0, 64)
    assert t.load(0, 0) == "L1"
    l1 = t.hierarchy._l1[0]
    assert l1.evictions == 0
    t.load(0, 128)
    assert l1.evictions == 1
    assert t.load(0, 0) == "L1"  # 0 was refreshed by the hit
    assert t.load(0, 64) == "L2"
    assert t.evicted == []


def test_different_sets_do_not_interfere():
    t = TinyHierarchy(l1=(2, 1), l2=(2, 1), llc=(2, 1))
    t.load(0, 0)  # set 0
    t.load(0, 64)  # set 1
    assert t.evicted == []
    assert t.load(0, 0) == "L1"
    t.load(0, 128)  # set 0 again
    assert [e[0] for e in t.evicted] == [0]
    assert t.load(0, 64) == "L1"


def test_victim_carries_flags():
    """An eviction reads the record a store wrote, also in a clone."""
    t = TinyHierarchy(llc=(1, 1))
    t.load(0, 0)
    twin = clone_state(t)
    for side in (twin, t):
        flags = side.hierarchy._flags[0]
        flags.dirty = flags.persistent = True
        flags.tx_id = 9
        side.load(0, 64)
        assert side.evicted == [(0, True, True, 9)]


def test_invalidate():
    """An LLC eviction drops the line from L1/L2; that is not *their* eviction."""
    t = TinyHierarchy(llc=(1, 1))
    t.load(0, 0)
    t.load(1, 64)  # core 1 pushes line 0 out of the one-way LLC
    assert [e[0] for e in t.evicted] == [0]
    l1, l2 = t.hierarchy._l1[0], t.hierarchy._l2[0]
    assert not any(l1._sets.values()) and not any(l2._sets.values())
    assert (l1.evictions, l2.evictions) == (0, 0)
    assert t.load(0, 0) == "MEM"


def test_miss_ratio():
    cache = tiny_cache()
    cache.probe(0)
    fill(cache, 0)
    cache.probe(0)
    assert cache.miss_ratio == pytest.approx(0.5)
    assert tiny_cache().miss_ratio == 0.0


def test_clear_and_reset():
    cache = tiny_cache()
    fill(cache, 0)
    cache.probe(0)
    cache.clear()
    assert not any(cache._sets.values())
    cache.reset_stats()
    assert cache.hits == 0 and cache.misses == 0


def test_probe_refreshes_recency():
    cache = tiny_cache(ways=2, sets=1)
    fill(cache, 0)
    fill(cache, 64)
    cache.probe(0)
    assert list(cache._sets[0]) == [64, 0]
    cache.probe(128)  # a miss moves nothing
    assert list(cache._sets[0]) == [64, 0]


def test_clone_copies_buckets_in_order():
    cache = tiny_cache(ways=2, sets=1)
    fill(cache, 0)
    fill(cache, 64)
    cache.probe(0)
    twin = clone_state(cache)
    assert list(twin._sets[0]) == [64, 0]
    assert (twin.hits, twin.misses) == (1, 0)
    twin.probe(64)
    twin.clear()
    assert list(cache._sets[0]) == [64, 0]  # the original is its own
    assert cache.hits == 1
