"""Order-independent cells, the cell executor and the result cache.

DESIGN.md §15. Order independence: a cell's result depends only on
(env, design, config, miss stream). Running a design alone, in grid
order or in reversed grid order gives the same :class:`WalkStats`, and
once a machine has built the state its designs share, no cell changes
that state.

Thread parity: ``run_cells(..., threads=4)`` must be bit-identical to
sequential replay — same :class:`WalkStats` *and* same end state of
everything replay mutates (cache sets, PWCs, the ECPT walker's CWC,
ASAP's inner walker), across all fifteen supported (environment, design) pairs.

Result cache: a warm sweep over a shared artifact directory must serve
every stage-2 cell from disk (zero replays) and emit a byte-identical
document, also for a design subset of a grid cached earlier; corrupted
payloads evict and recompute; bumping the cost model or stage-2 key
version invalidates every cached result.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.registers import RegisterSet
from repro.sim import kernels
from repro.sim.artifacts import ArtifactCache
from repro.sim.jobs import JobSpec
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.sim.simulator import Stage1Cache
from repro.sim.sweep import (
    NO_JIT_THREADS_REASON,
    effective_split,
    run_cells,
    run_group,
    run_sweep,
)

from tests.test_walk_vec import _design_state, _memsys_state

CONFIG = dict(scale=4096, nrefs=2500, seed=3)

#: All fifteen supported (environment, design) pairs.
ALL_PAIRS = [(env, design)
             for env, env_cls in sorted(ENVIRONMENTS.items())
             for design in env_cls.designs]


def _capture_walkers(sim):
    """Record every walker ``sim.run`` builds, keyed by design."""
    walkers = {}
    build = sim.walker

    def walker(design):
        walkers[design] = built = build(design)
        return built

    sim.walker = walker
    return walkers


def _ecpt_state(ecpt):
    """An ECPT's cuckoo tables: geometry, backing frames and bucket tags.

    The tables hold only shared, read-only state: the cuckoo-walk cache
    a replay updates lives on the walker.
    """
    assert set(vars(ecpt)) == {"memory", "tables"}, sorted(vars(ecpt))
    return [(table.nbuckets, table.groups, table.resizes,
             tuple(table._way_frames),
             [tuple(tags.items()) for tags in table._tags])
            for table in ecpt.tables.values()]


def _shared_state(sim):
    """What one machine's cells share: allocator fill, register files,
    page-table and shadow-table entry and PTE-write counts (the nested
    sPT among them), ECPT tables, and VM exit counters."""
    sim.build()
    if sim.env_name == "native":
        vms = []
        memories = [sim.kernel.memory]
        files = [sim.dmt.register_file]
        tables = [sim.process.page_table]
        ecpts = [sim.ecpt]
    elif sim.env_name == "virt":
        vms = [sim.vm]
        memories = [sim.host_kernel.memory, sim.vm.guest_memory]
        files = [sim.host_dmt.register_file]
        tables = [sim.process.page_table, sim.vm.ept, sim.shadow.spt]
        ecpts = [sim.guest_ecpt, sim.host_ecpt]
    else:
        vms = [sim.nested.l1_vm, sim.nested.l2_vm]
        memories = [sim.host_kernel.memory] + [vm.guest_memory for vm in vms]
        files = [sim.l0_dmt.register_file]
        tables = ([sim.process.page_table, sim.nested.shadow.spt]
                  + [vm.ept for vm in vms])
        ecpts = []
    return {
        "free_frames": [memory.allocator.free_frames for memory in memories],
        "registers": [(regs.reloads,
                       [[reg.encode() for reg in regs.registers(which)]
                        for which in RegisterSet])
                      for regs in files],
        "mapped_pages": [table.mapped_pages for table in tables],
        "pte_writes": [table.stats.pte_writes for table in tables],
        "ecpt": [_ecpt_state(ecpt) for ecpt in ecpts],
        "exits": [dataclasses.astuple(vm.exits) for vm in vms],
    }


@pytest.mark.parametrize("workload,thp", [("GUPS", False), ("Redis", True)],
                         ids=["GUPS-4KB", "Redis-THP"])
@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_cell_alone_equals_forward_and_reversed_order(env, workload, thp):
    """Each design's cell is the same alone, in grid order and reversed.

    Redis/THP virt/ecpt differed by 6.5% between the full grid and a
    run alone while mirrors were built lazily per design; the config is
    the end-to-end benchmark's.
    """
    config = SimConfig(scale=4096, nrefs=5000, seed=0, thp=thp)
    stage1 = Stage1Cache()
    env_cls = ENVIRONMENTS[env]
    designs = list(env_cls.designs)

    forward = env_cls(workload, config, stage1=stage1)
    forward._ensure_shared()
    shared = _shared_state(forward)
    in_order = {}
    for design in designs:
        in_order[design] = forward.run(design)
        assert _shared_state(forward) == shared, \
            f"{env}/{design} changed state the other cells share"
    backward = env_cls(workload, config, stage1=stage1)
    reversed_order = {d: backward.run(d) for d in reversed(designs)}
    for design in designs:
        alone = env_cls(workload, config, stage1=stage1).run(design)
        assert alone == in_order[design] == reversed_order[design], \
            (f"{env}/{design}: alone {alone.total_cycles}, forward "
             f"{in_order[design].total_cycles}, reversed "
             f"{reversed_order[design].total_cycles} cycles")


def test_second_ecpt_replay_equals_a_fresh_machine():
    """A second ecpt replay on one machine starts from a cold CWC.

    The CWC used to sit on the shared cuckoo tables, so
    ``run("ecpt", collect_steps=True)`` after ``run("ecpt")`` replayed
    with a warm CWC: 146.638 cycles per walk against 146.647 on a fresh
    machine (the end-to-end benchmark's config, with ``record_refs``).
    """
    config = SimConfig(scale=4096, nrefs=5000, seed=0, record_refs=True)
    stage1 = Stage1Cache()
    env_cls = ENVIRONMENTS["virt"]
    sim = env_cls("GUPS", config, stage1=stage1)
    sim.run("ecpt")
    second = sim.run("ecpt", collect_steps=True)
    fresh = env_cls("GUPS", config, stage1=stage1).run("ecpt",
                                                       collect_steps=True)
    assert second == fresh, (second.mean_latency, fresh.mean_latency)
    assert second.step_breakdown() == fresh.step_breakdown()


def test_thread_parity_all_pairs():
    """run_cells on 4 threads replays all 15 pairs bit-identically to 1.

    More threads than cores and a short switch interval interleave the
    cells finely, so a race on shared machine state would show.
    """
    config = SimConfig(**CONFIG)
    stage1 = Stage1Cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for env, env_cls in sorted(ENVIRONMENTS.items()):
            designs = list(env_cls.designs)
            runs = {}
            for threads in (1, 4):
                sim = env_cls("GUPS", config, stage1=stage1)
                walkers = _capture_walkers(sim)
                results = run_cells(sim, designs, threads)
                assert [design for design, _, _ in results] == designs
                runs[threads] = ({d: r for d, r, _ in results}, walkers)
            (seq, seq_walkers), (par, par_walkers) = runs[1], runs[4]
            for design in designs:
                assert not isinstance(par[design], Exception), par[design]
                assert seq[design] == par[design], \
                    f"{env}/{design}: stats diverged"
                assert _memsys_state(seq_walkers[design]) == \
                    _memsys_state(par_walkers[design]), \
                    f"{env}/{design}: memory-subsystem end state diverged"
                assert _design_state(seq_walkers[design]) == \
                    _design_state(par_walkers[design]), \
                    f"{env}/{design}: design end state diverged"
    finally:
        sys.setswitchinterval(interval)
    assert len(ALL_PAIRS) == 15


@pytest.mark.parametrize("env,design", [("native", "vanilla"),
                                        ("native", "dmt"),
                                        ("virt", "pvdmt")])
def test_replay_walks_native_matches_scalar_oracle(env, design):
    """replay_walks_native on a worker thread == the scalar oracle."""
    from repro.sim.kernels import replay_walks_native
    from repro.sim.simulator import replay_walks

    config = SimConfig(**CONFIG)
    stage1 = Stage1Cache()
    oracle_sim = ENVIRONMENTS[env]("GUPS", config, stage1=stage1)
    oracle_walker = oracle_sim.walker(design)
    oracle = replay_walks(oracle_walker, oracle_sim.tlb.miss_vas,
                          engine="scalar")

    sim = ENVIRONMENTS[env]("GUPS", config, stage1=stage1)
    walker = sim.walker(design)
    with ThreadPoolExecutor(max_workers=1) as pool:
        stats = pool.submit(replay_walks_native, walker,
                            sim.tlb.miss_vas).result()
    # engine/fallback_reason are compare=False provenance fields; the
    # replayed numbers and the mutated machine state are the contract.
    assert stats == oracle
    assert _memsys_state(walker) == _memsys_state(oracle_walker)
    assert _design_state(walker) == _design_state(oracle_walker)


def test_run_cells_matches_sim_run():
    """run_cells returns sim.run's stats in design order; a design that
    raises becomes that cell's exception and the others still run."""
    config = SimConfig(**CONFIG)
    stage1 = Stage1Cache()
    env_cls = ENVIRONMENTS["virt"]
    designs = list(env_cls.designs)
    oracle_sim = env_cls("GUPS", config, stage1=stage1)
    oracle = {d: oracle_sim.run(d) for d in designs}
    results = run_cells(env_cls("GUPS", config, stage1=stage1),
                        designs + ["bogus"], threads=4)
    assert [design for design, _, _ in results] == designs + ["bogus"]
    assert {d: r for d, r, _ in results[:-1]} == oracle
    assert isinstance(results[-1][1], KeyError)


def _stable(cells):
    from repro.sim.jobs import stable_cells

    return stable_cells(cells)


def _task(envs, workloads, designs, cell_threads=1, **config):
    """The group task of a one-group grid, as the scheduler builds it."""
    spec = JobSpec.build(envs=envs, workloads=workloads, designs=designs,
                         **config)
    return spec.task(spec.shards()[0], cell_threads=cell_threads)


def test_run_group_cell_threads_matches_sequential():
    grid = (("native", "virt"), ["GUPS"], ("vanilla", "dmt"))
    sequential = run_group(_task(*grid, **CONFIG))
    threaded = run_group(_task(*grid, cell_threads=4, **CONFIG))
    assert _stable(threaded) == _stable(sequential)
    for cell in threaded:
        assert cell["stage2_source"] == "computed"
        assert cell["group_seconds"] > 0.0


def test_job_tasks_and_split_carry_cell_threads(monkeypatch):
    task = _task(("native",), ["GUPS"], None, cell_threads=3)
    assert task[7] == 3
    assert _task(("native",), ["GUPS"], None)[7] == 1
    monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
    assert effective_split(4, 10, 2) == (4, 2, None)
    monkeypatch.setattr(kernels, "HAVE_NUMBA", False)
    assert effective_split(4, 10, 2) == (4, 1, NO_JIT_THREADS_REASON)
    assert effective_split(8, 2, None) == (2, 1, None)


# --------------------------------------------------------------------- #
# stage-2 result cache
# --------------------------------------------------------------------- #

def _sim(artifact_dir, env="native", **overrides):
    kwargs = dict(CONFIG)
    kwargs.update(overrides)
    stage1 = Stage1Cache(artifacts=ArtifactCache(str(artifact_dir)))
    return ENVIRONMENTS[env]("GUPS", SimConfig(**kwargs), stage1=stage1)


def test_result_cache_cold_then_warm(tmp_path, monkeypatch):
    cold = _sim(tmp_path)
    stats_cold = cold.run("dmt")
    assert cold.stage2_source("dmt") == "computed"

    warm = _sim(tmp_path)

    def explode(*args, **kwargs):
        raise AssertionError("warm run must not replay stage 2")

    monkeypatch.setattr("repro.sim.machine.replay_walks", explode)
    stats_warm = warm.run("dmt")
    assert warm.stage2_source("dmt") == "disk"
    assert not warm._shared_ready, "a warm hit must not build shared state"
    assert stats_warm == stats_cold
    assert stats_warm.engine == stats_cold.engine
    assert stats_warm.step_cycles == stats_cold.step_cycles
    assert warm._result_artifacts().result_hits >= 1


def test_result_cache_key_separates_designs_and_config(tmp_path):
    sim = _sim(tmp_path)
    sim.run("dmt")
    other_design = _sim(tmp_path)
    other_design.run("vanilla")
    assert other_design.stage2_source("vanilla") == "computed"
    other_seed = _sim(tmp_path, seed=4)
    other_seed.run("dmt")
    assert other_seed.stage2_source("dmt") == "computed"


def test_result_cache_invalidated_by_cost_model_bump(tmp_path, monkeypatch):
    _sim(tmp_path).run("dmt")
    monkeypatch.setattr("repro.core.costs.COST_MODEL_VERSION", 999)
    bumped = _sim(tmp_path)
    bumped.run("dmt")
    assert bumped.stage2_source("dmt") == "computed"
    # entries written before a change of what a cell means are not served
    monkeypatch.setattr("repro.sim.machine.STAGE2_KEY_VERSION", 1)
    older = _sim(tmp_path)
    older.run("dmt")
    assert older.stage2_source("dmt") == "computed"


def test_result_cache_evicts_corrupted_payload(tmp_path):
    sim = _sim(tmp_path)
    stats = sim.run("dmt")
    artifacts = sim._result_artifacts()
    key = sim._stage2_key("dmt", False)
    from repro.sim.artifacts import digest

    key_digest = digest("stage2", key)
    sidecar_path = [p for p in tmp_path.rglob("*.json")
                    if key_digest in p.name]
    assert len(sidecar_path) == 1
    sidecar_path = sidecar_path[0]
    doc = json.loads(sidecar_path.read_text())
    doc["payload"]["stats"]["total_cycles"] += 1
    sidecar_path.write_text(json.dumps(doc))

    assert artifacts.load_result("stage2", key) is None
    assert not sidecar_path.exists(), "corrupt entry must be evicted"
    recomputed = _sim(tmp_path)
    assert recomputed.run("dmt") == stats
    assert recomputed.stage2_source("dmt") == "computed"


def test_sanitize_bypasses_result_cache(tmp_path):
    from repro.analysis import sanitizer

    _sim(tmp_path).run("dmt")
    try:
        sanitized = _sim(tmp_path, sanitize=True)
        sanitized.run("dmt")
        assert sanitized.stage2_source("dmt") == "computed"
    finally:
        sanitizer.reset()  # the sanitizer is process-wide


def test_scalar_oracle_bypasses_result_cache(tmp_path):
    """``walk_engine="scalar"`` is the oracle: a sweep with it against a
    warm cache must replay every cell, not serve the fast path's."""
    kwargs = dict(envs=("native",), workloads=["GUPS"],
                  designs=("vanilla", "dmt"), workers=1,
                  artifact_dir=str(tmp_path / "cache"), **CONFIG)
    fast = run_sweep(**kwargs)
    oracle = run_sweep(walk_engine="scalar", **kwargs)
    assert [c["stage2_source"] for c in oracle["cells"]] == ["computed"] * 2
    assert [c["walk_engine"] for c in oracle["cells"]] == ["scalar"] * 2
    strip = [{k: v for k, v in cell.items() if k != "walk_engine"}
             for cell in _stable(fast["cells"])]
    assert strip == [{k: v for k, v in cell.items() if k != "walk_engine"}
                     for cell in _stable(oracle["cells"])]


def test_warm_sweep_serves_stage2_from_disk_byte_identical(tmp_path):
    kwargs = dict(envs=("native",), workloads=["GUPS"],
                  designs=("vanilla", "dmt", "ecpt"), workers=1,
                  artifact_dir=str(tmp_path / "cache"), **CONFIG)
    cold = run_sweep(cell_threads=1, **kwargs)
    warm = run_sweep(cell_threads=2, **kwargs)
    assert [c["stage2_source"] for c in cold["cells"]] == ["computed"] * 3
    assert [c["stage2_source"] for c in warm["cells"]] == ["disk"] * 3
    blob_cold = json.dumps(_stable(cold["cells"]), sort_keys=True)
    blob_warm = json.dumps(_stable(warm["cells"]), sort_keys=True)
    assert blob_warm == blob_cold, \
        "warm sweep must emit a byte-identical stable document"
    threads = 2 if kernels.HAVE_NUMBA else 1
    assert warm["meta"]["requested_cell_threads"] == 2
    assert warm["meta"]["cell_threads"] == threads
    assert warm["meta"]["parallelism"] == threads
    assert (warm["meta"]["cell_threads_reason"] is None) == kernels.HAVE_NUMBA


def test_subset_sweep_from_full_grid_cache_equals_cold_subset(tmp_path):
    """A design subset served from a full grid's cache equals the same
    subset computed cold: the cache key holds no earlier cells."""
    grid = dict(envs=("virt",), workloads=["GUPS"], workers=1, **CONFIG)
    full_cache = str(tmp_path / "full")
    run_sweep(artifact_dir=full_cache, **grid)
    warm = run_sweep(designs=("ecpt", "fpt"), artifact_dir=full_cache,
                     **grid)
    cold = run_sweep(designs=("ecpt", "fpt"),
                     artifact_dir=str(tmp_path / "subset"), **grid)
    assert [c["stage2_source"] for c in warm["cells"]] == ["disk"] * 2
    assert [c["stage2_source"] for c in cold["cells"]] == ["computed"] * 2
    assert _stable(warm["cells"]) == _stable(cold["cells"])


# --------------------------------------------------------------------- #
# warm stage-1 artifacts stay memory-mapped (regression pin)
# --------------------------------------------------------------------- #

def test_warm_run_miss_stream_is_memmapped(tmp_path):
    """The warm path must mmap cached traces/miss streams, not copy.

    ``Stage1Cache.fetch`` and ``_generate_trace`` both load with
    ``mmap=True``; this pins that so a plain ``np.load`` regression
    (whole-array copy per warm run) can't sneak back in.
    """
    _sim(tmp_path).run("vanilla")  # populate the artifact cache
    warm = _sim(tmp_path)
    assert warm.stage1_source == "disk"
    backing = warm.tlb.miss_vas
    seen_memmap = isinstance(backing, np.memmap)
    while isinstance(backing, np.ndarray) and backing.base is not None:
        backing = backing.base
        seen_memmap = seen_memmap or isinstance(backing, np.memmap)
    assert seen_memmap, \
        "warm miss stream must stay a view of the on-disk memmap"
