"""Tests for the simulation engine and the §5 performance model."""

import dataclasses
import warnings

import pytest

from repro.hw.config import xeon_gold_6138
from repro.sim.calibration import CALIBRATION, IDEAL_SECONDS, profile
from repro.sim.machine import (
    NativeSimulation,
    NestedSimulation,
    SimConfig,
    VirtSimulation,
)
from repro.sim.perfmodel import apply_model, baseline_times, model_from_stats
from repro.sim.simulator import WalkStats, geomean

SMALL = SimConfig(scale=4096, nrefs=6000)


@pytest.fixture(scope="module")
def native_sim():
    return NativeSimulation("GUPS", SMALL)


@pytest.fixture(scope="module")
def virt_sim():
    return VirtSimulation("GUPS", SMALL)


class TestNativeSimulation:
    def test_tlb_filter_produces_misses(self, native_sim):
        assert native_sim.tlb.total_refs == SMALL.nrefs
        assert 0 < native_sim.tlb.miss_count <= SMALL.nrefs
        # GUPS over a working set >> TLB reach misses badly
        assert native_sim.tlb.miss_rate > 0.5

    def test_all_designs_run(self, native_sim):
        for design in native_sim.designs:
            stats = native_sim.run(design)
            assert stats.walks > 0
            assert stats.mean_latency > 0

    def test_dmt_beats_vanilla(self, native_sim):
        vanilla = native_sim.run("vanilla")
        dmt = native_sim.run("dmt")
        assert dmt.mean_latency < vanilla.mean_latency, \
            "DMT must speed up native page walks (Fig. 14)"
        assert dmt.fallback_rate < 0.01, \
            "registers must cover 99+% of walks (§6.1)"

    def test_run_is_cached(self, native_sim):
        assert native_sim.run("vanilla") is native_sim.run("vanilla")

    def test_unknown_design(self, native_sim):
        with pytest.raises(KeyError):
            native_sim.walker("nope")


class TestVirtSimulation:
    def test_paper_ordering_of_designs(self, virt_sim):
        """Figure 15's qualitative ordering: pvDMT fastest, then DMT, and
        every advanced design beats vanilla nested paging."""
        latency = {d: virt_sim.run(d).mean_latency
                   for d in ("vanilla", "ecpt", "dmt", "pvdmt")}
        assert latency["pvdmt"] < latency["dmt"] < latency["vanilla"]
        assert latency["pvdmt"] < latency["ecpt"] < latency["vanilla"]

    def test_pvdmt_coverage(self, virt_sim):
        stats = virt_sim.run("pvdmt")
        assert stats.fallback_rate < 0.01

    def test_shadow_walks_fast_but_spt_maintained(self, virt_sim):
        shadow = virt_sim.run("shadow")
        vanilla = virt_sim.run("vanilla")
        # the walk itself is native-speed; the cost of shadow paging is the
        # VM exits, which the perf model charges from calibration (§2.2)
        assert shadow.mean_latency < vanilla.mean_latency
        assert virt_sim.shadow.spt.mapped_pages > 0


class TestNestedSimulation:
    def test_pvdmt_nested_runs_and_wins(self):
        sim = NestedSimulation("GUPS", SMALL)
        vanilla = sim.run("vanilla")
        pvdmt = sim.run("pvdmt")
        assert pvdmt.walks > 0 and vanilla.walks > 0
        assert pvdmt.fallback_rate < 0.05
        # pvDMT: at most 3 references; baseline 2D walk: many more
        assert pvdmt.mean_latency < vanilla.mean_latency * 1.5


class TestCalibration:
    def test_profiles_for_all_workloads(self):
        for name in ("Redis", "Memcached", "GUPS", "BTree", "Canneal",
                     "XSBench", "Graph500"):
            assert profile(name) is not None
        with pytest.raises(KeyError):
            profile("nope")

    def test_average_walk_fractions_match_section_2_2(self):
        """§2.2: average PW overhead 21% native / 43% virt / 48% nested."""
        native = sum(p.native.pw_frac for p in CALIBRATION.values()) / 7
        virt = sum(p.virt_npt.pw_frac for p in CALIBRATION.values()) / 7
        nested = sum(p.nested.pw_frac for p in CALIBRATION.values()) / 7
        assert native == pytest.approx(0.21, abs=0.03)
        assert virt == pytest.approx(0.43, abs=0.03)
        assert nested == pytest.approx(0.48, abs=0.03)

    def test_virtualization_slowdown_shape(self):
        """§2.2: virtualization ~1.46x, nested ~4.13x (GUPS 13.9x)."""
        ratios = []
        for name, prof in CALIBRATION.items():
            t_native = prof.native.total_seconds()
            ratios.append(prof.virt_npt.total_seconds() / t_native)
        assert 1.25 <= geomean(ratios) <= 1.65
        gups = CALIBRATION["GUPS"]
        nested_ratio = gups.nested.total_seconds() / gups.native.total_seconds()
        assert nested_ratio == pytest.approx(13.9, rel=0.15)

    def test_overfull_fractions_rejected(self):
        from repro.sim.calibration import EnvProfile
        with pytest.raises(ValueError):
            EnvProfile(0.6, 0.6, 0.5).total_seconds()


class TestPerfModel:
    def test_identity_when_no_improvement(self):
        model = apply_model("GUPS", "native", "same", 100.0, 100.0)
        assert model.app_speedup == pytest.approx(1.0)
        assert model.pw_speedup == pytest.approx(1.0)

    def test_walk_speedup_translates_to_app_speedup(self):
        model = apply_model("GUPS", "virt_npt", "dmt", 200.0, 100.0)
        assert model.pw_speedup == pytest.approx(2.0)
        # app speedup is bounded by the walk fraction (55% for GUPS virt)
        assert 1.0 < model.app_speedup < 2.0
        expected = 1.0 / (1 - 0.55 + 0.55 / 2.0)
        assert model.app_speedup == pytest.approx(expected, rel=1e-6)

    def test_removing_shadow_overhead(self):
        """pvDMT under nested virtualization removes shadow-paging exits."""
        kept = apply_model("GUPS", "nested", "x", 100, 100,
                           retained_other_fraction=1.0)
        removed = apply_model("GUPS", "nested", "x", 100, 100,
                              retained_other_fraction=0.0)
        assert removed.app_speedup > kept.app_speedup
        assert kept.app_speedup == pytest.approx(1.0)

    def test_model_from_stats(self):
        vanilla = WalkStats("vanilla", walks=10, total_cycles=1000)
        target = WalkStats("dmt", walks=10, total_cycles=500)
        model = model_from_stats("Redis", "virt_npt", vanilla, target)
        assert model.pw_speedup == pytest.approx(2.0)
        assert model.design == "dmt"

    def test_zero_vanilla_overhead_rejected(self):
        """A zero baseline overhead is a broken replay, not ratio 1.0."""
        with pytest.raises(ValueError, match="o_sim_vanilla"):
            apply_model("GUPS", "native", "dmt", 0.0, 100.0)

    def test_zero_vanilla_stats_rejected(self):
        vanilla = WalkStats("vanilla", walks=0, total_cycles=0)
        target = WalkStats("dmt", walks=10, total_cycles=500)
        with pytest.raises(ValueError, match="o_sim_vanilla"):
            model_from_stats("Redis", "virt_npt", vanilla, target)

    def test_baseline_times_normalized_shape(self):
        """Figure 4: virt > native, nested >> native for every workload."""
        for name in CALIBRATION:
            times = baseline_times(name)
            assert times["virt_npt"]["total"] > times["native"]["total"]
            assert times["nested"]["total"] > times["virt_npt"]["total"]
            assert times["virt_spt"]["total"] > times["virt_npt"]["total"]

    def test_thp_reduces_walk_fraction(self):
        for name in CALIBRATION:
            t4k = baseline_times(name, thp=False)
            thp = baseline_times(name, thp=True)
            frac_4k = t4k["virt_npt"]["pw"] / t4k["virt_npt"]["total"]
            frac_thp = thp["virt_npt"]["pw"] / thp["virt_npt"]["total"]
            assert frac_thp < frac_4k


class TestGeomean:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([5.0]) == pytest.approx(5.0)

    def test_clean_input_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_nonpositive_values_warn(self):
        """A zero/negative design stat must not inflate the mean silently."""
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geomean([2.0, 0.0, 8.0]) == pytest.approx(4.0)
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geomean([-1.0]) == 0.0


class TestSimConfigSmall:
    def test_small_overrides_only_scale_and_nrefs(self):
        cfg = SimConfig(scale=512, nrefs=50_000, seed=7, thp=True, levels=5,
                        record_refs=True, register_count=8,
                        sanitize=True, walk_engine="scalar")
        small = cfg.small(nrefs=123, scale=64)
        assert small.nrefs == 123 and small.scale == 64

    def test_small_propagates_every_field(self):
        """small() must carry every field over — including ones added
        after it was written (it once dropped one)."""
        overrides = {"seed": 9, "thp": True, "levels": 5,
                     "record_refs": True, "register_count": 4,
                     "sanitize": True, "walk_engine": "scalar"}
        cfg = SimConfig(**overrides)
        small = cfg.small()
        for field in dataclasses.fields(SimConfig):
            if field.name in ("scale", "nrefs"):
                continue
            assert getattr(small, field.name) == getattr(cfg, field.name), \
                f"small() dropped SimConfig.{field.name}"
