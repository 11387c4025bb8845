"""Cross-design integration tests: correctness, determinism, invariants.

The strongest check in the suite: every translation design, in every
environment, must produce the *same physical address* as the software
composition of the page tables — on real miss streams, not hand-picked
addresses.
"""

import numpy as np
import pytest

from repro.sim import (
    NativeSimulation,
    NestedSimulation,
    SimConfig,
    VirtSimulation,
    make_size_lookup,
    tlb_filter_scalar,
)

CFG = SimConfig(scale=4096, nrefs=5000, record_refs=True)


@pytest.fixture(scope="module")
def native_sim():
    return NativeSimulation("Redis", CFG)


@pytest.fixture(scope="module")
def virt_sim():
    return VirtSimulation("Redis", CFG)


@pytest.fixture(scope="module")
def nested_sim():
    return NestedSimulation("GUPS", CFG)


class TestTranslationCorrectness:
    """Every design translates every sampled miss to the right PA."""

    def test_native_designs_agree(self, native_sim):
        expected = {
            va: native_sim.process.page_table.translate(va)[0]
            for va in native_sim.tlb.miss_vas[:200]
        }
        for design in native_sim.designs:
            walker = native_sim.walker(design)
            for va, pa in expected.items():
                result = walker.translate(va)
                assert result.pa == pa, (design, hex(va))

    def test_virt_designs_agree(self, virt_sim):
        expected = {}
        for va in virt_sim.tlb.miss_vas[:120]:
            gpa, _ = virt_sim.process.page_table.translate(va)
            expected[va] = virt_sim.vm.gpa_to_hpa(gpa)
        for design in virt_sim.designs:
            if design == "shadow":
                continue  # sPT pre-dates lazily backed pages; checked below
            walker = virt_sim.walker(design)
            for va, pa in expected.items():
                result = walker.translate(va)
                assert result.pa == pa, (design, hex(va))

    def test_shadow_agrees_after_sync(self, virt_sim):
        walker = virt_sim.walker("shadow")
        virt_sim.shadow.sync()
        for va in virt_sim.tlb.miss_vas[:120]:
            gpa, _ = virt_sim.process.page_table.translate(va)
            assert walker.translate(va).pa == virt_sim.vm.gpa_to_hpa(gpa)

    def test_nested_designs_agree(self, nested_sim):
        for va in nested_sim.tlb.miss_vas[:80]:
            l2pa, _ = nested_sim.process.page_table.translate(va)
            l0pa = nested_sim.nested.l2pa_to_l0pa(l2pa)
            for design in nested_sim.designs:
                walker = nested_sim.walker(design)
                assert walker.translate(va).pa == l0pa, (design, hex(va))


class TestReferenceCounts:
    """Table 6 checked on live machines rather than paper numbers."""

    def test_pvdmt_never_exceeds_two_refs_virtualized(self, virt_sim):
        walker = virt_sim.walker("pvdmt")
        for va in virt_sim.tlb.miss_vas[:300]:
            result = walker.translate(va)
            if not result.fallback:
                assert result.sequential_steps <= 2

    def test_dmt_never_exceeds_three_refs_virtualized(self, virt_sim):
        walker = virt_sim.walker("dmt")
        for va in virt_sim.tlb.miss_vas[:300]:
            result = walker.translate(va)
            if not result.fallback:
                assert result.sequential_steps <= 3

    def test_pvdmt_never_exceeds_three_refs_nested(self, nested_sim):
        walker = nested_sim.walker("pvdmt")
        for va in nested_sim.tlb.miss_vas[:200]:
            result = walker.translate(va)
            if not result.fallback:
                assert result.sequential_steps <= 3

    def test_vanilla_nested_bounded_by_24(self, virt_sim):
        walker = virt_sim.walker("vanilla")
        for va in virt_sim.tlb.miss_vas[:300]:
            assert len(walker.translate(va).refs) <= 24


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        a = NativeSimulation("GUPS", SimConfig(scale=4096, nrefs=3000, seed=3))
        b = NativeSimulation("GUPS", SimConfig(scale=4096, nrefs=3000, seed=3))
        assert np.array_equal(a.tlb.miss_vas, b.tlb.miss_vas)
        for design in ("vanilla", "dmt"):
            assert a.run(design).total_cycles == b.run(design).total_cycles

    def test_seed_changes_trace(self):
        a = NativeSimulation("GUPS", SimConfig(scale=4096, nrefs=3000, seed=3))
        b = NativeSimulation("GUPS", SimConfig(scale=4096, nrefs=3000, seed=4))
        assert not np.array_equal(a.tlb.miss_vas, b.tlb.miss_vas)

    def test_engines_agree_end_to_end(self):
        """The machine's streamed vec stage 1 equals the scalar oracle
        run on the same machine's trace."""
        sim = NativeSimulation("GUPS", SimConfig(scale=4096, nrefs=3000,
                                                 seed=3))
        cfg = sim.config
        trace = sim.workload.generate_trace(sim.layout, cfg.nrefs, cfg.seed)
        oracle = tlb_filter_scalar(trace, cfg.machine,
                                   make_size_lookup(sim.process.page_table),
                                   accept_rates=sim._accept_rates())
        assert np.array_equal(sim.tlb.miss_vas, oracle.miss_vas)
        assert sim.tlb.total_refs == oracle.total_refs


class TestCoverageClaims:
    """§6.1: DMT registers cover 99+% of walk requests in all environments."""

    def test_native_coverage(self, native_sim):
        assert native_sim.run("dmt").fallback_rate < 0.01

    def test_virt_coverage(self, virt_sim):
        assert virt_sim.run("pvdmt").fallback_rate < 0.01

    def test_nested_coverage(self, nested_sim):
        assert nested_sim.run("pvdmt").fallback_rate < 0.01


class TestTHPSimulation:
    def test_thp_native_dmt_wins_with_shorter_walks(self):
        sim = NativeSimulation("GUPS", SimConfig(scale=4096, nrefs=5000,
                                                 thp=True, record_refs=True))
        vanilla = sim.run("vanilla")
        dmt = sim.run("dmt")
        assert dmt.mean_latency < vanilla.mean_latency
        # with 2 MB pages the radix walk stops at L2: at most 3 refs
        walker = sim.walker("vanilla")
        for va in sim.tlb.miss_vas[:100]:
            assert len(walker.translate(va).refs) <= 3

    def test_thp_fetcher_selects_huge_tea(self):
        sim = NativeSimulation("GUPS", SimConfig(scale=4096, nrefs=5000,
                                                 thp=True, record_refs=True))
        walker = sim.walker("dmt")
        from repro.arch import PageSize
        result = walker.translate(sim.tlb.miss_vas[0])
        assert result.page_size == PageSize.SIZE_2M
