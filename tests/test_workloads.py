"""Tests for workload generators, SPEC profiles, and VMA statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.vma_stats import (
    cdf,
    cluster_adjacent,
    cluster_count,
    coverage_count,
    total_mapped,
    vma_stats,
)
from repro.kernel.kernel import Kernel
from repro.workloads import catalogue, get, spec2006_layouts, spec2017_layouts

MB = 1 << 20
SCALE = 2048


class TestCatalogue:
    def test_seven_workloads(self):
        names = set(catalogue(SCALE))
        assert names == {"Redis", "Memcached", "GUPS", "BTree", "Canneal",
                         "XSBench", "Graph500"}

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get("Postgres")

    @pytest.mark.parametrize("scale", [SCALE, 4096])
    def test_get_builds_the_catalogue_workload(self, scale):
        """``get`` builds one workload; each layout has its own RNG, so
        the layout is the one the full catalogue builds."""
        for name, workload in catalogue(scale).items():
            assert get(name, scale) == workload, name

    def test_table1_vma_characteristics(self):
        """The synthetic layouts reproduce Table 1's three statistics."""
        for name, wl in catalogue(1024).items():
            layout = [(s, e) for s, e, _ in wl.layout()]
            stats = vma_stats(layout)
            assert stats.total == wl.paper_total_vmas, name
            assert abs(stats.cov99 - wl.paper_cov99) <= 2, name
            assert abs(stats.clusters - wl.paper_clusters) <= 1, name

    def test_working_sets_scale(self):
        small = get("GUPS", 4096).working_set_bytes()
        large = get("GUPS", 1024).working_set_bytes()
        assert large == small * 4


class TestTraces:
    @pytest.mark.parametrize("name", sorted(catalogue(SCALE)))
    def test_trace_stays_inside_hot_vmas(self, name):
        kernel = Kernel(memory_bytes=512 * MB)
        proc = kernel.create_process()
        wl = get(name, 4096)
        layout = wl.install(proc, populate=False)
        trace = wl.generate_trace(layout, 5000, seed=1)
        assert len(trace) == 5000
        spans = [(v.start, v.end) for v in layout.hot_vmas]
        samples = trace[::97]
        for va in samples.tolist():
            assert any(s <= va < e for s, e in spans), hex(va)

    def test_traces_deterministic(self):
        kernel = Kernel(memory_bytes=256 * MB)
        proc = kernel.create_process()
        wl = get("Redis", 4096)
        layout = wl.install(proc, populate=False)
        t1 = wl.generate_trace(layout, 2000, seed=7)
        t2 = wl.generate_trace(layout, 2000, seed=7)
        assert np.array_equal(t1, t2)
        t3 = wl.generate_trace(layout, 2000, seed=8)
        assert not np.array_equal(t1, t3)

    def test_trace_salt_is_interpreter_stable(self):
        """The per-workload RNG salt must not come from builtin hash():
        str hashes are salted by PYTHONHASHSEED, which once made every
        trace — and every downstream latency — vary run to run."""
        import zlib

        kernel = Kernel(memory_bytes=256 * MB)
        proc = kernel.create_process()
        wl = get("Redis", 4096)
        layout = wl.install(proc, populate=False)
        expected_rng = np.random.default_rng(7 ^ zlib.crc32(b"Redis"))
        pieces = list(wl.chunk_fn(wl, layout, 2000, expected_rng, 512))
        expected = np.concatenate(pieces).astype(np.int64)
        assert np.array_equal(wl.generate_trace(layout, 2000, seed=7),
                              expected)

    def test_gups_is_uniform(self):
        kernel = Kernel(memory_bytes=256 * MB)
        proc = kernel.create_process()
        wl = get("GUPS", 4096)
        layout = wl.install(proc, populate=False)
        trace = wl.generate_trace(layout, 20000, seed=0)
        # unique pages touched should approach the VMA's page count
        # (ws at scale 4096 is 32 MB = 8192 pages): poor locality
        total_pages = layout.main.size >> 12
        pages = np.unique(trace >> 12)
        assert len(pages) > 0.75 * total_pages

    def test_btree_reuses_upper_levels(self):
        kernel = Kernel(memory_bytes=256 * MB)
        proc = kernel.create_process()
        wl = get("BTree", 4096)
        layout = wl.install(proc, populate=False)
        trace = wl.generate_trace(layout, 20000, seed=0)
        pages, counts = np.unique(trace >> 12, return_counts=True)
        # root pages are touched once per lookup: far hotter than leaves
        assert counts.max() > 50


class TestSpecProfiles:
    def test_workload_counts(self):
        assert len(spec2006_layouts()) == 30
        assert len(spec2017_layouts()) == 47

    def test_stats_within_paper_ranges(self):
        """Table 1 bottom: 2006 totals 18-39 / cov 1-14 / clusters 1-8;
        2017 totals 24-70 / 1-21 / 1-12."""
        for layout in spec2006_layouts().values():
            stats = vma_stats(layout)
            assert 18 <= stats.total <= 40
            assert 1 <= stats.cov99 <= 14
            assert 1 <= stats.clusters <= 9
        for layout in spec2017_layouts().values():
            stats = vma_stats(layout)
            assert 24 <= stats.total <= 71
            assert 1 <= stats.cov99 <= 21
            assert 1 <= stats.clusters <= 13

    def test_deterministic(self):
        a = spec2006_layouts(seed=1)
        b = spec2006_layouts(seed=1)
        assert a == b


class TestVMAStats:
    def test_coverage_count_simple(self):
        layout = [(0, 100 * MB), (200 * MB, 201 * MB), (300 * MB, 301 * MB)]
        assert coverage_count(layout, 0.99) == 2
        assert coverage_count(layout, 0.5) == 1
        assert coverage_count(layout, 1.0) == 3

    def test_cluster_adjacent_merges_small_bubbles(self):
        layout = [(0, 10 * MB), (10 * MB + 4096, 20 * MB)]
        clusters = cluster_adjacent(layout, bubble_allowance=0.02)
        assert len(clusters) == 1

    def test_cluster_adjacent_respects_allowance(self):
        layout = [(0, 10 * MB), (15 * MB, 25 * MB)]  # 20% bubble
        clusters = cluster_adjacent(layout, bubble_allowance=0.02)
        assert len(clusters) == 2

    def test_cluster_count_memcached_shape(self):
        # hundreds of adjacent slabs with tiny bubbles in two groups -> 2
        layout = []
        start = 0
        for i in range(100):
            if i == 50:
                start += 500 * MB
            layout.append((start, start + MB))
            start += MB + 4096
        assert cluster_count(layout) == 2

    def test_cdf(self):
        points = cdf([3, 1, 2])
        assert points == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]

    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 1000)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_coverage_monotone_in_fraction(self, raw):
        cursor = 0
        layout = []
        for gap, pages in raw:
            cursor += gap * 4096
            layout.append((cursor, cursor + pages * 4096))
            cursor += pages * 4096
        c50 = coverage_count(layout, 0.5)
        c99 = coverage_count(layout, 0.99)
        assert 1 <= c50 <= c99 <= len(layout)
        assert cluster_count(layout) <= len(layout)
        assert total_mapped(layout) == sum(e - s for s, e in layout)
