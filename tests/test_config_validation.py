"""SimConfig construction-time validation and sweep error handling."""

import dataclasses

import pytest

from repro.hw.config import CacheConfig, MachineConfig, TLBConfig
from repro.sim.machine import SimConfig
from repro.sim.sweep import run_sweep, summarize


# --------------------------------------------------------------------- #
# SimConfig validation
# --------------------------------------------------------------------- #

def test_valid_default_config_constructs():
    SimConfig()


@pytest.mark.parametrize("count", [0, -1, 17, 64])
def test_register_count_outside_figure_13_range_rejected(count):
    with pytest.raises(ValueError, match="register_count"):
        SimConfig(register_count=count)


@pytest.mark.parametrize("count", [1, 8, 16])
def test_register_count_in_range_accepted(count):
    assert SimConfig(register_count=count).register_count == count


@pytest.mark.parametrize("kwargs,match", [
    ({"levels": 3}, "levels"),
    ({"levels": 6}, "levels"),
    ({"walk_engine": "turbo"}, "engine"),
    ({"scale": 0}, "scale"),
    ({"nrefs": 0}, "nrefs"),
])
def test_bad_scalar_knobs_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SimConfig(**kwargs)


def test_non_power_of_two_tlb_sets_rejected():
    machine = MachineConfig(l2_stlb=TLBConfig("L2 STLB", 1536, 8))
    # 1536 entries / 8-way = 192 sets: not a power of two
    with pytest.raises(ValueError, match="power of two"):
        SimConfig(machine=machine)


def test_non_power_of_two_cache_line_rejected():
    machine = MachineConfig(
        l1d=CacheConfig("L1D", 32 * 1024, 8, latency=4, line_bytes=48))
    with pytest.raises(ValueError, match="power of two"):
        SimConfig(machine=machine)


def test_small_copy_revalidates():
    config = SimConfig()
    small = config.small()
    assert small.nrefs == 8_000 and small.register_count == 16
    with pytest.raises(ValueError):
        dataclasses.replace(config, register_count=17)


# --------------------------------------------------------------------- #
# Sweep error cells
# --------------------------------------------------------------------- #

def test_sweep_records_error_cell_for_bad_group():
    document = run_sweep(
        envs=["native"], workloads=["GUPS", "NoSuchWorkload"],
        designs=["vanilla", "dmt"], workers=1, scale=4096, nrefs=2000,
    )
    good = [c for c in document["cells"] if "error" not in c]
    bad = [c for c in document["cells"] if "error" in c]
    assert {c["design"] for c in good} == {"vanilla", "dmt"}
    assert len(bad) == 1
    assert bad[0]["workload"] == "NoSuchWorkload"
    assert bad[0]["design"] is None
    assert "KeyError" in bad[0]["error"]
    # good cells still compute speedups despite the failed group
    dmt = next(c for c in good if c["design"] == "dmt")
    assert dmt["walk_speedup"] is not None


def test_sweep_error_cells_render_in_summary():
    document = run_sweep(
        envs=["native"], workloads=["NoSuchWorkload"], workers=1,
        scale=4096, nrefs=2000,
    )
    rows = summarize(document)
    assert len(rows) == 1
    assert rows[0][3] == "(group)"
    assert rows[0][4].startswith("ERROR: KeyError")


def test_sweep_error_cell_survives_process_pool():
    document = run_sweep(
        envs=["native"], workloads=["GUPS", "NoSuchWorkload"],
        designs=["dmt"], workers=2, scale=4096, nrefs=2000,
    )
    bad = [c for c in document["cells"] if "error" in c]
    assert len(bad) == 1 and bad[0]["workload"] == "NoSuchWorkload"
    assert any("error" not in c for c in document["cells"])
