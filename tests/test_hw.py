"""Tests for the hardware models: caches, TLBs, PWCs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import PageSize
from repro.hw.cache import CacheHierarchy, SetAssociativeCache
from repro.hw.config import CacheConfig, PWCConfig, TLBConfig, xeon_gold_6138
from repro.hw.pwc import NestedPWC, PageWalkCache
from repro.hw.stats import HitStats
from repro.hw.tlb import TLB, TLBHierarchy
from repro.sim.tlb_vec import TLBFilterStream


class TestCacheConfig:
    def test_table3_geometry(self):
        machine = xeon_gold_6138()
        assert machine.l1d.size_bytes == 32 * 1024 and machine.l1d.assoc == 8
        assert machine.l2.size_bytes == 1024 * 1024 and machine.l2.assoc == 16
        assert machine.llc.size_bytes == 22 * 1024 * 1024 and machine.llc.assoc == 11
        assert (machine.l1d.latency, machine.l2.latency, machine.llc.latency) == (4, 14, 54)
        assert machine.memory_latency == 200
        assert machine.l2_stlb.entries == 1536 and machine.l2_stlb.assoc == 12
        assert machine.pwc.entries_per_level == (2, 4, 32)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 64, 8, 64).num_sets


class TestSetAssociativeCache:
    def make(self, sets=4, assoc=2):
        return SetAssociativeCache(CacheConfig("t", sets * assoc * 64, assoc, 64))

    def test_miss_then_hit(self):
        cache = self.make()
        assert not cache.lookup(0x1000)
        cache.install(0x1000)
        assert cache.lookup(0x1000)

    def test_lru_eviction(self):
        cache = self.make(sets=1, assoc=2)
        cache.install(0x000)
        cache.install(0x040)
        cache.lookup(0x000)         # make 0x000 most recent
        assert cache.install(0x080) == 1  # evicts line 1 (0x040)
        assert cache.contains(0x000)
        assert not cache.contains(0x040)

    def test_same_line_no_duplicate(self):
        cache = self.make()
        cache.install(0x1000)
        cache.install(0x1008)  # same 64B line
        assert cache.contains(0x1000) and cache.contains(0x1038)

    def test_invalidate(self):
        cache = self.make()
        cache.install(0x1000)
        cache.invalidate(0x1000)
        assert not cache.contains(0x1000)


class TestHierarchy:
    def test_latency_progression(self):
        machine = xeon_gold_6138()
        hierarchy = CacheHierarchy.from_machine(machine)
        assert hierarchy.access(0x1000).latency == 200   # cold: memory
        assert hierarchy.access(0x1000).latency == 4     # now in L1

    def test_install_on_miss_fills_all_levels(self):
        hierarchy = CacheHierarchy.from_machine(xeon_gold_6138())
        hierarchy.access(0x1000)
        for cache in hierarchy.levels:
            assert cache.contains(0x1000)

    def test_pte_side_capacity_scaled(self):
        machine = xeon_gold_6138()
        hierarchy = CacheHierarchy.pte_side(machine)
        assert hierarchy.access(0x1000).latency == 200
        assert hierarchy.access(0x1000).latency == 4  # survives in the L1 slice
        # each level keeps only the PT share of its capacity
        for level, full in zip(hierarchy.levels,
                               (machine.l1d, machine.l2, machine.llc)):
            assert level.config.size_bytes < full.size_bytes

    def test_probe_does_not_allocate(self):
        hierarchy = CacheHierarchy.pte_side(xeon_gold_6138())
        assert hierarchy.probe(0x9000).latency == 200
        assert hierarchy.probe(0x9000).latency == 200  # still not cached
        hierarchy.access(0x9000)
        assert hierarchy.probe(0x9000).latency < 200

    def test_warm_avoids_latency(self):
        hierarchy = CacheHierarchy.pte_side(xeon_gold_6138())
        hierarchy.warm(0x2000)
        assert hierarchy.access(0x2000).latency < 200


class TestTLB:
    def test_hierarchy_refill(self):
        machine = xeon_gold_6138()
        tlbs = TLBHierarchy.from_machine(machine)
        assert not tlbs.lookup(1, 0x1000, PageSize.SIZE_4K)
        tlbs.fill(1, 0x1000, PageSize.SIZE_4K)
        assert tlbs.lookup(1, 0x1000, PageSize.SIZE_4K)

    def test_asid_isolation(self):
        tlbs = TLBHierarchy.from_machine(xeon_gold_6138())
        tlbs.fill(1, 0x1000, PageSize.SIZE_4K)
        assert not tlbs.lookup(2, 0x1000, PageSize.SIZE_4K)

    def test_huge_pages_one_entry(self):
        tlbs = TLBHierarchy.from_machine(xeon_gold_6138())
        tlbs.fill(1, 0x40000000, PageSize.SIZE_2M)
        # any address in the same 2 MB page hits
        assert tlbs.lookup(1, 0x40000000 + 0x123456, PageSize.SIZE_2M)

    def test_l1_eviction_backed_by_stlb(self):
        small = TLBHierarchy(TLBConfig("l1", 4, 4), TLBConfig("stlb", 64, 4))
        for i in range(16):
            small.fill(1, i << 12, PageSize.SIZE_4K)
        # early entries evicted from L1 but still in the STLB
        assert small.lookup(1, 0 << 12, PageSize.SIZE_4K)

    def test_capacity_miss(self):
        tiny = TLB(TLBConfig("t", 4, 4))
        for i in range(8):
            tiny.install(1, i << 12, PageSize.SIZE_4K)
        hits = sum(tiny.lookup(1, i << 12, PageSize.SIZE_4K) for i in range(8))
        assert hits == 4

    def test_invalidate_asid(self):
        tlb = TLB(TLBConfig("t", 16, 4))
        tlb.install(1, 0x1000, PageSize.SIZE_4K)
        tlb.install(2, 0x1000, PageSize.SIZE_4K)
        tlb.invalidate_asid(1)
        assert not tlb.lookup(1, 0x1000, PageSize.SIZE_4K)
        assert tlb.lookup(2, 0x1000, PageSize.SIZE_4K)


class TestPWC:
    def test_fill_then_skip(self):
        pwc = PageWalkCache(PWCConfig())
        va = 0x7F00_1234_5000
        assert pwc.best_entry(va) == (4, None)
        pwc.fill(va, 3, 0xAAAA000)
        level, addr = pwc.best_entry(va)
        assert (level, addr) == (3, 0xAAAA000)
        pwc.fill(va, 1, 0xBBBB000)
        assert pwc.best_entry(va) == (1, 0xBBBB000)  # deepest wins

    def test_keys_are_va_prefixes(self):
        pwc = PageWalkCache(PWCConfig())
        pwc.fill(0x7F00_0000_0000, 1, 0xAAAA000)
        # same 2 MB region -> same L1-table entry
        assert pwc.best_entry(0x7F00_0000_5000)[1] == 0xAAAA000
        # different 2 MB region -> miss
        assert pwc.best_entry(0x7F00_0020_0000) == (4, None)

    def test_capacity_eviction(self):
        pwc = PageWalkCache(PWCConfig(entries_per_level=(1, 1, 2)))
        pwc.fill(0 << 21, 1, 0x1000)
        pwc.fill(1 << 21, 1, 0x2000)
        pwc.fill(2 << 21, 1, 0x3000)
        assert pwc.best_entry(0 << 21) == (4, None)  # evicted

    def test_accept_rate_thinning(self):
        pwc = PageWalkCache(PWCConfig(entries_per_level=(4, 4, 4)),
                            accept_rates=(1.0, 1.0, 0.25))
        pwc.fill(0x0, 1, 0x9000)
        hits = sum(pwc.best_entry(0x0)[1] is not None for _ in range(100))
        assert hits == 25  # deterministic 1-in-4 acceptance

    def test_nested_pwc(self):
        npwc = NestedPWC(PWCConfig())
        assert npwc.get(42) is None
        npwc.fill(42, 999)
        assert npwc.get(42) == 999

    def test_nested_pwc_thinning(self):
        npwc = NestedPWC(PWCConfig(), accept_rate=0.5)
        npwc.fill(42, 999)
        hits = sum(npwc.get(42) is not None for _ in range(100))
        assert hits == 50


_UNIT_PWC = PWCConfig(entries_per_level=(1, 2, 2))
_SMALL_TLBS = dict(l1d_tlb=TLBConfig("L1", 4, 2), l2_stlb=TLBConfig("L2", 8, 2))


def _page_size_of(va):
    """Page size by region: 4 KB below 1 GB, 2 MB from 1 GB, 1 GB from
    4 GB (uniform within each 2 MB unit, as stage 1 requires)."""
    if va >= 4 << 30:
        return PageSize.SIZE_1G
    return PageSize.SIZE_2M if va >= 1 << 30 else PageSize.SIZE_4K


# VAs over a few 4 KB pages, 2 MB pages and 1 GB pages, so short streams
# both hit and evict in the small structures above.
_vas = st.one_of(
    st.integers(0, 40).map(lambda i: i << 12),
    st.integers(0, 6).map(lambda i: (1 << 30) + (i << 21)),
    st.integers(0, 3).map(lambda i: (4 + i) << 30),
)


class TestUnitRatesAreUnthinned:
    """A structure built without rates is the structure with every rate
    1.0, and a rate of 1.0 accepts every hit the LRU state holds."""

    @given(st.lists(st.tuples(st.booleans(), _vas, st.integers(1, 3)),
                    max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_pwc(self, ops):
        plain = PageWalkCache(_UNIT_PWC)
        unit = PageWalkCache(_UNIT_PWC, accept_rates=[1.0, 1.0, 1.0])
        for fill, va, level in ops:
            if fill:
                for pwc in (plain, unit):
                    pwc.fill(va, level, va >> 12)
                continue
            present = [lvl for lvl in (1, 2, 3)
                       if plain.peek(va, lvl) is not None]
            expected = (min(present), plain.peek(va, min(present))) \
                if present else (4, None)
            assert plain.best_entry(va) == expected
            assert unit.best_entry(va) == expected
        for pwc in (plain, unit):
            assert pwc._credit == [0.0, 0.0, 0.0]
        assert [list(t._entries.items()) for t in plain._tables] == \
            [list(t._entries.items()) for t in unit._tables]
        assert plain.stats == unit.stats

    @given(st.lists(st.tuples(st.booleans(), _vas), max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_tlb_hierarchy(self, ops):
        l1, l2 = _SMALL_TLBS["l1d_tlb"], _SMALL_TLBS["l2_stlb"]
        plain = TLBHierarchy(l1, l2)
        unit = TLBHierarchy(l1, l2, {size: 1.0 for size in PageSize})
        for fill, va in ops:
            size = _page_size_of(va)
            if fill:
                for tlbs in (plain, unit):
                    tlbs.fill(1, va, size)
                continue
            present = plain.probe(1, va, size)
            assert plain.lookup(1, va, size) == present
            assert unit.lookup(1, va, size) == present
        for level in ("l1", "stlb"):
            a, b = getattr(plain, level), getattr(unit, level)
            assert a._sets == b._sets
            assert [list(ways) for ways in a._sets.values()] == \
                [list(ways) for ways in b._sets.values()]
        assert plain._credit == unit._credit == {}

    @given(st.lists(_vas, max_size=300), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_filter_stream(self, vas, chunk):
        machine = replace(xeon_gold_6138(), **_SMALL_TLBS)
        trace = np.asarray(vas, dtype=np.int64)
        plain = TLBFilterStream(machine, _page_size_of, chunk=chunk)
        unit = TLBFilterStream(machine, _page_size_of, chunk=chunk,
                               accept_rates={size: 1.0 for size in PageSize})
        oracle = TLBHierarchy.from_machine(machine)
        expected = []
        for va in vas:
            size = _page_size_of(va)
            if not oracle.lookup(1, va, size):
                expected.append(va)
                oracle.fill(1, va, size)
        assert plain.feed(trace).tolist() == expected
        assert unit.feed(trace).tolist() == expected
        assert plain.end_state() == unit.end_state()
        assert plain.credit == [0.0, 0.0, 0.0]


class TestHitStats:
    def test_plain_values_over_tlb_pte_cache_and_pwc(self):
        """TLB, PTE-cache and PWC counts are plain ints with value
        equality (the parity suites compare independent machines)."""
        machine = xeon_gold_6138()
        tlb = TLB(machine.l1d_tlb)
        assert not tlb.lookup(1, 0x1000, PageSize.SIZE_4K)
        tlb.install(1, 0x1000, PageSize.SIZE_4K)
        assert tlb.lookup(1, 0x1000, PageSize.SIZE_4K)
        cache = CacheHierarchy.pte_side(machine).levels[0]
        assert not cache.lookup(0x4000)
        cache.install(0x4000)
        assert cache.lookup(0x4000)
        pwc = PageWalkCache(PWCConfig())
        assert pwc.best_entry(0x0) == (4, None)
        pwc.fill(0x0, 1, 0x9000)
        assert pwc.best_entry(0x0) == (1, 0x9000)
        for stats in (tlb.stats, cache.stats, pwc.stats):
            assert (stats.hits, stats.misses, stats.accesses) == (1, 1, 2)
            assert type(stats.hits) is int and type(stats.misses) is int
            assert stats == HitStats(hits=1, misses=1)
        assert tlb.stats == cache.stats == pwc.stats
        tlb.stats.hits += 10
        tlb.stats.misses += 2
        assert (tlb.stats.hits, tlb.stats.accesses) == (11, 14)
        assert tlb.stats == HitStats(11, 3)
        assert tlb.stats != cache.stats
