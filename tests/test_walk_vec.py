"""Oracle parity for the batched and native stage-2 replay engines.

``walk_vec.replay_walks_vec`` and ``kernels.replay_walks_native`` must
be bit-identical to the scalar ``replay_walks`` oracle: same
:class:`WalkStats` (including the step breakdown on the vec path), same
walker/fetcher counters, and the same memory-subsystem state (cache
sets + LRU order, PWC tables + thinning credits, the ECPT cuckoo-walk
cache) after the replay. Designs the engines do not support must
transparently fall back to the scalar path under ``engine="auto"``.
The parity cases run against both batched engines (the ``ENGINES``
parametrization); the native leg calls the kernels directly, so the
same assertions hold whichever kernel backend (numba or pure Python)
is active.

Both walkers of a parity case come from one machine, shared by every
case with the same (env, workload, config) (the ``machines`` fixture):
walkers keep all replay state (memory subsystem, CWC, fetcher)
private and only read the machine's. The DMT-fallback cases prune a
register file, so they build private machines.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.arch import PAGE_SHIFT, PageSize
from repro.core.registers import RegisterSet
from repro.hw.config import xeon_gold_6138
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import PTE_HUGE, PTE_PRESENT
from repro.sim.kernels import HAVE_NUMBA, replay_walks_native
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.sim.simulator import Stage1Cache, replay_walks
from repro.sim.sweep import run_group
from repro.sim.walk_vec import (
    _plan_asap,
    replay_batched,
    replay_walks_vec,
    unsupported_reason,
)
from repro.translation.asap import ASAPNestedWalker, PREFETCH_LEVELS
from repro.translation.base import MemorySubsystem
from repro.virt.hypervisor import Hypervisor

#: Both batched stage-2 engines; the parity suite runs each against the
#: scalar oracle.
ENGINES = ("vec", "native")

#: What ``engine="auto"`` resolves to in this process: the native
#: kernels when the compiled backend imported, else the vec engine.
AUTO_ENGINE = "native" if HAVE_NUMBA else "vec"

MB = 1 << 20

#: Every (environment, design) pair the batched engine vectorizes —
#: since the ECPT/FPT/Agile/ASAP planners landed, that is the full
#: design grid of all three environments.
SUPPORTED = [
    ("native", "vanilla"), ("native", "fpt"), ("native", "ecpt"),
    ("native", "asap"), ("native", "dmt"),
    ("virt", "vanilla"), ("virt", "shadow"), ("virt", "fpt"),
    ("virt", "ecpt"), ("virt", "agile"), ("virt", "asap"),
    ("virt", "dmt"), ("virt", "pvdmt"),
    ("nested", "vanilla"), ("nested", "pvdmt"),
]

#: DMT flavours and the register set their fetcher consults.
DMT_CASES = [
    ("native", "dmt", RegisterSet.NATIVE),
    ("virt", "dmt", RegisterSet.GUEST),
    ("virt", "pvdmt", RegisterSet.GUEST),
    ("nested", "pvdmt", RegisterSet.NESTED),
]

PARITY_CASES = [(env, design, thp, seed)
                for env, design in SUPPORTED
                for thp in (False, True)
                for seed in ((0, 3) if not thp else (0,))]


def _config(thp=False, seed=0):
    return SimConfig(scale=4096, nrefs=3000, thp=thp, seed=seed,
                     record_refs=True)


@pytest.fixture(scope="module")
def machines():
    """``get(env, config, workload)``: one built machine per key, shared
    by this module's cases (a virt build takes about a second)."""
    built = {}

    def get(env, config, workload="GUPS"):
        key = (env, workload, repr(config))
        if key not in built:
            built[key] = ENVIRONMENTS[env](workload, config)
        return built[key]

    yield get
    built.clear()


def _walker_pair(sim, design):
    """Two walkers of one machine, with identical initial state."""
    return sim.walker(design), sim.walker(design), sim.tlb.miss_vas


def _build_pair(env, design, config, workload="GUPS"):
    """Two independent machines + walkers with identical initial state."""
    env_cls = ENVIRONMENTS[env]
    sim_s, sim_v = env_cls(workload, config), env_cls(workload, config)
    assert np.array_equal(sim_s.tlb.miss_vas, sim_v.tlb.miss_vas)
    return sim_s.walker(design), sim_v.walker(design), sim_s.tlb.miss_vas


def _pwc_state(pwc):
    view = pwc.batch_view()
    return ([tuple(table.items()) for table in view.tables],
            list(view.credit), view.stats)


def _memsys_state(walker):
    """Everything replay mutates, in a directly comparable shape.

    Insertion order IS the LRU order of the set dicts and PWC tables,
    so snapshots keep it (plain dict equality would ignore it).
    """
    memsys = walker.memsys
    state = {
        "caches": [(cache.stats,
                    {idx: tuple(ways) for idx, ways in cache._sets.items()})
                   for cache in memsys.caches.levels],
        "memory_accesses": memsys.caches.memory_accesses,
        "pwc": _pwc_state(memsys.pwc),
        "guest_pwc": _pwc_state(memsys.guest_pwc),
    }
    npwc = memsys.nested_pwc
    view = npwc.batch_view()
    state["nested_pwc"] = (tuple(view.table.items()), npwc.credit, view.stats)
    return state


def _walker_counters(walker):
    return (walker.walks, walker.total_cycles, walker.fallbacks)


def _design_state(walker):
    """Mutable design-side state outside the memory subsystem.

    An ECPT walker's cuckoo-walk cache is LRU-ordered like the cache
    sets, so its entry *order* is part of the snapshot; ASAP keeps a
    prefetch count plus a full inner radix walker whose counters the
    batched path must reproduce.
    """
    state = {}
    cwc = getattr(walker, "cwc", None)
    if cwc is not None:
        state["cwc"] = (tuple(cwc._entries.items()), cwc.hits, cwc.misses)
    if hasattr(walker, "prefetches"):
        state["prefetches"] = walker.prefetches
    inner = getattr(walker, "_walker", None)
    if inner is not None:
        state["inner"] = _walker_counters(inner)
    return state


def _assert_parity(walker_scalar, walker_vec, miss_vas, engine="vec"):
    if engine == "native":
        # The kernels carry no step tags (collection delegates to the
        # vec runners), so the native leg compares stats and the full
        # post-replay state without step collection.
        stats_scalar = replay_walks(walker_scalar, miss_vas,
                                    collect_steps=False, engine="scalar")
        stats_vec = replay_walks_native(walker_vec, miss_vas)
    else:
        stats_scalar = replay_walks(walker_scalar, miss_vas,
                                    collect_steps=True, engine="scalar")
        stats_vec = replay_walks_vec(walker_vec, miss_vas,
                                     collect_steps=True)
    assert stats_scalar.engine == "scalar" and stats_vec.engine == engine
    assert stats_scalar == stats_vec
    assert stats_scalar.step_breakdown() == stats_vec.step_breakdown()
    assert _walker_counters(walker_scalar) == _walker_counters(walker_vec)
    assert _memsys_state(walker_scalar) == _memsys_state(walker_vec)
    assert _design_state(walker_scalar) == _design_state(walker_vec)
    for attr in ("fetcher", "fallback_walker"):
        scalar_part = getattr(walker_scalar, attr, None)
        vec_part = getattr(walker_vec, attr, None)
        assert (scalar_part is None) == (vec_part is None)
        if scalar_part is None:
            continue
        if attr == "fetcher":
            assert (scalar_part.hits, scalar_part.fallbacks) == \
                (vec_part.hits, vec_part.fallbacks)
        else:
            assert _walker_counters(scalar_part) == _walker_counters(vec_part)
    return stats_scalar


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("env,design,thp,seed", PARITY_CASES)
def test_vec_replay_matches_scalar_oracle(env, design, thp, seed, engine,
                                         machines):
    sim = machines(env, _config(thp=thp, seed=seed))
    walker_scalar, walker_vec, miss_vas = _walker_pair(sim, design)
    assert unsupported_reason(walker_scalar) is None
    assert unsupported_reason(walker_vec) is None
    stats = _assert_parity(walker_scalar, walker_vec, miss_vas,
                           engine=engine)
    assert stats.walks > 0 and stats.ref_count > 0


#: The op-program designs whose planners fold probes that can only miss.
FOLD_CASES = [(env, design, thp) for env in ("native", "virt")
              for design in ("ecpt", "fpt") for thp in (False, True)]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("env,design,thp", FOLD_CASES)
def test_warm_walker_replays_match_scalar(env, design, thp, engine,
                                          machines):
    """Replays on warm walkers: the miss stream's first half, then its
    second half, on one scalar/batched walker pair.

    The ECPT/FPT planners drop a background probe of a line that is
    neither resident at replay start nor installed by one of the
    replay's own accesses. Before the second replay the caches hold
    lines the first half installed, and some of them are probed but
    never fetched by the second half, so a live set built from the
    plans alone would count those hits as misses."""
    sim = machines(env, _config(thp=thp))
    walker_scalar, walker_vec, miss_vas = _walker_pair(sim, design)
    half = len(miss_vas) // 2
    replay = replay_walks_native if engine == "native" else replay_walks_vec
    for part in (miss_vas[:half], miss_vas[half:]):
        stats_scalar = replay_walks(walker_scalar, part, engine="scalar")
        assert replay(walker_vec, part) == stats_scalar
    assert _walker_counters(walker_scalar) == _walker_counters(walker_vec)
    assert _memsys_state(walker_scalar) == _memsys_state(walker_vec)
    assert _design_state(walker_scalar) == _design_state(walker_vec)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("env", ["native", "virt"])
def test_probe_fold_keeps_a_live_set_per_line_size(env, engine, machines):
    """With 64 B L1, 128 B L2 and 256 B LLC lines a probe is live when
    its line at *any* level may be resident there; a live set kept at
    one line size would fold probes that hit the wider outer lines."""
    base = xeon_gold_6138()
    machine = replace(base, l2=replace(base.l2, line_bytes=128),
                      llc=replace(base.llc, line_bytes=256))
    config = replace(_config(), machine=machine)
    walker_scalar, walker_vec, miss_vas = _walker_pair(
        machines(env, config), "ecpt")
    assert [level.batch_view().line_shift
            for level in walker_vec.memsys.caches.levels] == [6, 7, 8]
    half = len(miss_vas) // 2
    replay = replay_walks_native if engine == "native" else replay_walks_vec
    for part in (miss_vas[:half], miss_vas[half:]):
        stats_scalar = replay_walks(walker_scalar, part, engine="scalar")
        assert replay(walker_vec, part) == stats_scalar
    assert _memsys_state(walker_scalar) == _memsys_state(walker_vec)
    assert _design_state(walker_scalar) == _design_state(walker_vec)


def _asap_prefetch_definition(walker):
    """The scalar ASAP walker's prefetch addresses for a VA, in issue
    order (``ASAPNativeWalker._prefetch`` /
    ``ASAPNestedWalker._prefetch`` without the cache accesses)."""
    if walker.name == "asap-native":
        def native(va):
            return tuple(step.pte_addr
                         for step in walker.page_table.walk_steps(va)
                         if step.level in PREFETCH_LEVELS)
        return native
    vm = walker.vm

    def nested(gva):
        addrs = []
        for step in walker.guest_pt.walk_steps(gva):
            if step.level not in PREFETCH_LEVELS:
                continue
            addrs.append(vm.gpa_to_hpa(step.pte_addr))
            addrs += [ept_step.pte_addr
                      for ept_step in vm.ept.walk_steps(step.pte_addr)
                      if ept_step.level in PREFETCH_LEVELS]
        return tuple(addrs)
    return nested


def _chain_kinds(page_table, vpn):
    """How the radix walk of ``vpn`` ends: "dead" at L2 or L1 (some
    prefetch remains), "dead-high" above, "huge" at a 2 MB leaf, or
    "leaf"."""
    last = page_table.walk_steps(vpn << PAGE_SHIFT)[-1]
    if not last.pte_value & PTE_PRESENT:
        return "dead" if last.level in PREFETCH_LEVELS else "dead-high"
    return "huge" if last.pte_value & PTE_HUGE else "leaf"


@pytest.mark.parametrize("thp", [False, True])
@pytest.mark.parametrize("workload", ["GUPS", "BTree"])
@pytest.mark.parametrize("env", ["native", "virt"])
def test_asap_prefetch_plan_equals_walk_steps(env, workload, thp,
                                              machines):
    """ASAP's prefetch addresses are read off the inner walk plan; for
    every unique miss VPN, plus VPNs whose walk dies at L1, L2 or
    higher, they equal the scalar walker's ``walk_steps`` definition
    (2 MB guest leaves included under THP)."""
    sim = machines(env, _config(thp=thp), workload)
    walker = sim.walker("asap")
    vpns = (sim.tlb.miss_vas >> PAGE_SHIFT).tolist()
    uniq = list(dict.fromkeys(vpns))
    top = max(uniq)
    uniq += [vpn for vpn in (top + 1, top + 512, top + (1 << 18), 0)
             if vpn not in uniq]
    page_table = walker.page_table if env == "native" else walker.guest_pt
    kinds = {_chain_kinds(page_table, vpn) for vpn in uniq}
    assert {"leaf", "dead", "dead-high"} <= kinds
    if thp:
        assert "huge" in kinds
    _inner, _plan, prefetch = _plan_asap(walker.batch_spec(), walker.memsys,
                                        uniq, False)
    definition = _asap_prefetch_definition(walker)
    assert [prefetch[vpn] for vpn in uniq] == \
        [definition(vpn << PAGE_SHIFT) for vpn in uniq]


@pytest.mark.parametrize("engine", ENGINES)
def test_asap_prefetch_plan_follows_huge_host_chains(engine):
    """Guest page-table pages backed by 2 MB EPT leaves: every host
    chain of a prefetched guest entry ends at L2, so it adds one host
    prefetch, not two. (Machine builds back guest page-table pages with
    4 KB leaves, so the parity grid never meets this case.)"""
    host = Kernel(memory_bytes=512 * MB)
    vm = Hypervisor(host).create_vm(128 * MB)
    vm.back_range(0, vm.memory_bytes, PageSize.SIZE_2M)
    proc = vm.guest_kernel.create_process()
    vma = proc.mmap(8 * MB, populate=True)
    rng = np.random.default_rng(0)
    vas = vma.start + rng.integers(0, vma.size, 2000)
    walkers = [ASAPNestedWalker(proc.page_table, vm,
                                MemorySubsystem(xeon_gold_6138()))
               for _ in range(2)]
    uniq = list(dict.fromkeys((vas >> PAGE_SHIFT).tolist()))
    memsys = walkers[1].memsys
    _inner, _plan, prefetch = _plan_asap(
        walkers[1].batch_spec(), memsys, uniq, False)
    definition = _asap_prefetch_definition(walkers[1])
    assert [prefetch[vpn] for vpn in uniq] == \
        [definition(vpn << PAGE_SHIFT) for vpn in uniq]
    assert {len(addrs) for addrs in prefetch.values()} == {4}
    _assert_parity(walkers[0], walkers[1], vas, engine=engine)


def test_asap_on_a_lazily_backed_vm_replays_on_the_scalar_path():
    """Without backing, the scalar ASAP walker faults a walk's L2/L1
    guest-PTE pages in before the rest of its chain; a plan read off
    the walk plan would fault them in walk order and allocate other
    host frames. So a VM with unbacked frames gets no batched nested
    ASAP: ``auto`` replays it on the scalar path and says why."""
    def walker():
        host = Kernel(memory_bytes=512 * MB)
        vm = Hypervisor(host).create_vm(128 * MB)
        proc = vm.guest_kernel.create_process()
        vma = proc.mmap(8 * MB, populate=True)
        assert not vm.fully_backed()
        return vma, ASAPNestedWalker(proc.page_table, vm,
                                     MemorySubsystem(xeon_gold_6138()))

    vma, walker_scalar = walker()
    vas = vma.start + np.random.default_rng(0).integers(0, vma.size, 1000)
    _, walker_auto = walker()
    assert unsupported_reason(walker_auto) is not None
    stats = replay_walks(walker_auto, vas, engine="auto")
    assert stats.engine == "scalar"
    assert stats.fallback_reason == "asap-nested plans need a fully backed VM"
    assert stats == replay_walks(walker_scalar, vas, engine="scalar")


@pytest.mark.parametrize("engine", ("scalar",) + ENGINES)
def test_virt_asap_replay_allocates_nothing(engine, machines):
    """The nested ASAP plan takes guest-PTE host addresses from the
    walk plan instead of calling ``gpa_to_hpa`` per prefetch, which is
    only equal if that call has no side effect on a built machine: a
    replay leaves the guest's and the host's free lists and the EPT
    violation count as they were."""
    sim = machines("virt", _config())
    walker = sim.walker("asap")

    def state():
        return ([list(blocks)
                 for blocks in sim.vm.guest_memory.allocator.free_lists],
                [list(blocks)
                 for blocks in sim.host_kernel.memory.allocator.free_lists],
                sim.vm.exits.ept_violations)

    before = state()
    if engine == "native":
        replay_walks_native(walker, sim.tlb.miss_vas)
    elif engine == "vec":
        replay_walks_vec(walker, sim.tlb.miss_vas)
    else:
        replay_walks(walker, sim.tlb.miss_vas, engine=engine)
    assert walker.prefetches > 0
    assert state() == before


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("env,design,which", DMT_CASES)
def test_vec_replay_matches_scalar_on_dmt_fallbacks(env, design, which,
                                                    engine):
    """Prune the register file so fetcher misses exercise the fallback."""
    config = _config(seed=3)
    walker_scalar, walker_vec, miss_vas = _build_pair(
        env, design, config, workload="Redis")
    for walker in (walker_scalar, walker_vec):
        register_file = walker.fetcher.register_file
        registers = register_file.registers(which)
        kept = set(sorted(set(r.vma_base for r in registers))[::2])
        register_file.load(which, [r for r in registers
                                   if r.vma_base in kept])
    stats = _assert_parity(walker_scalar, walker_vec, miss_vas,
                           engine=engine)
    assert stats.fallbacks > 0, "pruning must force register misses"


@pytest.mark.parametrize("env,design,pte_share", [
    ("native", "vanilla", None),    # Table 3 default: single-set L1(pte)
    pytest.param("native", "vanilla", 0.25, id="wide-l1-per-walk"),
    ("virt", "shadow", None),
])
def test_vec_chunk_runner_matches_scalar_without_step_collection(
        env, design, pte_share, machines, monkeypatch):
    """Without step collection radix-native replays of the Table 3
    cache shape take the fused chunk runner (inlined probe + hierarchy,
    counters flushed per chunk); a small chunk size exercises the flush
    boundaries. A wide L1(pte) (``pte_share`` 0.25, several sets) builds
    no chunk runner and replays walk by walk, still matching the
    oracle."""
    from repro.sim import walk_vec

    config = _config(seed=1)
    if pte_share is not None:
        machine = replace(xeon_gold_6138(), pte_cache_share=pte_share)
        config = replace(config, machine=machine)
    walker_scalar, walker_vec, miss_vas = _walker_pair(
        machines(env, config), design)
    if pte_share is not None:
        l1 = walker_vec.memsys.caches.levels[0]
        assert l1.batch_view().num_sets > 1
    built = []
    make_runner = walk_vec._make_radix_runner

    def spy(*args, **kwargs):
        run, run_many = make_runner(*args, **kwargs)
        built.append(run_many is not None)
        return run, run_many

    monkeypatch.setattr(walk_vec, "_make_radix_runner", spy)
    stats_scalar = replay_walks(walker_scalar, miss_vas, engine="scalar")
    stats_vec = replay_walks_vec(walker_vec, miss_vas, chunk=512)
    assert built == [pte_share is None]
    assert stats_vec.engine == "vec"
    assert stats_scalar == stats_vec
    assert _walker_counters(walker_scalar) == _walker_counters(walker_vec)
    assert _memsys_state(walker_scalar) == _memsys_state(walker_vec)


def test_auto_engine_falls_back_to_scalar():
    """Every design now has a planner, so the remaining genuine
    fallbacks are environmental — here a sanitized run, whose runtime
    hooks the batched engine would bypass. ``auto`` must fall back and
    record why."""
    from repro.analysis import sanitizer

    config = replace(_config(), sanitize=True)
    sim = ENVIRONMENTS["native"]("GUPS", config)
    with sanitizer.enabled():
        walker = sim.walker("vanilla")
        reason = unsupported_reason(walker)
        assert "sanitizer" in reason
        stats = replay_walks(walker, sim.tlb.miss_vas[:64], engine="auto")
        assert stats.engine == "scalar"
        assert stats.fallback_reason == reason
    assert not sanitizer.active()


def test_auto_engine_prefers_native_when_compiled(machines):
    """``auto`` resolves to the native kernels only when the compiled
    backend imported; with the pure-Python backend it stays on vec (the
    uncompiled kernels are bit-identical but slower, DESIGN.md §11)."""
    sim = machines("native", _config())
    stats = replay_walks(sim.walker("ecpt"), sim.tlb.miss_vas[:64],
                         engine="auto")
    assert stats.engine == AUTO_ENGINE
    assert stats.fallback_reason is None


@pytest.mark.parametrize("engine", ["vec", "native"])
def test_vec_and_native_are_unknown_engines(engine, machines):
    """The engine choice is ``auto`` or ``scalar``: the batched backend
    is picked inside ``auto`` (native with numba, else vec), so naming
    one is an unknown engine, in replay, in the config and on the
    command line (an argparse error, exit 2)."""
    from repro.__main__ import main

    sim = machines("native", _config())
    with pytest.raises(ValueError, match="unknown stage-2 engine"):
        replay_walks(sim.walker("vanilla"), sim.tlb.miss_vas[:64],
                     engine=engine)
    with pytest.raises(ValueError, match="walk_engine"):
        SimConfig(walk_engine=engine)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--workload", "GUPS", "--walk-engine", engine])
    assert exit_info.value.code == 2


def test_native_step_collection_delegates_to_vec(machines):
    """Step collection needs the interpreted runners' latency tags, so
    an ``auto`` replay that collects steps runs on vec whatever the
    backend (and so do ``replay_batched``'s default backend and a
    forced native one), says ``vec``, and is bit-identical to the
    oracle."""
    sim = machines("native", _config())
    miss_vas = sim.tlb.miss_vas
    walker_scalar = sim.walker("vanilla")
    stats_scalar = replay_walks(walker_scalar, miss_vas,
                                collect_steps=True, engine="scalar")
    assert stats_scalar.step_cycles
    for replay in (partial(replay_walks, engine="auto"), replay_batched,
                   replay_walks_native):
        walker = sim.walker("vanilla")
        stats = replay(walker, miss_vas, collect_steps=True)
        assert stats.engine == "vec"
        assert stats.fallback_reason is None
        assert stats_scalar == stats
        assert stats_scalar.step_breakdown() == stats.step_breakdown()
        assert _memsys_state(walker_scalar) == _memsys_state(walker)


def test_independent_machines_replay_identically():
    """Two machines built independently from one config are identical:
    same miss stream and same oracle results (what lets the parity
    cases share one machine per config)."""
    config = _config()
    for env, design in (("virt", "ecpt"), ("nested", "pvdmt")):
        walker_a, walker_b, miss_vas = _build_pair(env, design, config)
        stats_a = replay_walks(walker_a, miss_vas, engine="scalar")
        stats_b = replay_walks(walker_b, miss_vas, engine="scalar")
        assert stats_a == stats_b and stats_a.walks > 0
        assert _memsys_state(walker_a) == _memsys_state(walker_b)
        assert _design_state(walker_a) == _design_state(walker_b)


def test_replay_rejects_unknown_engine(machines):
    sim = machines("native", _config())
    with pytest.raises(ValueError):
        replay_walks(sim.walker("vanilla"), sim.tlb.miss_vas[:8],
                     engine="turbo")


def test_stage1_cache_shares_miss_stream_across_environments():
    """One trace + TLB filter serves native, virt, and nested machines."""
    cache = Stage1Cache()
    config = _config()
    sims = [ENVIRONMENTS[env]("GUPS", config, stage1=cache)
            for env in ("native", "virt", "nested")]
    assert cache.computed == 1 and cache.reused == 2
    assert [sim.stage1_source for sim in sims] == [
        "computed", "memo", "memo"]
    for sim in sims[1:]:
        assert np.array_equal(sims[0].tlb.miss_vas, sim.tlb.miss_vas)
        assert sim.stage1_seconds == sims[0].stage1_seconds > 0.0


def test_run_group_reports_stage1_reuse_telemetry(tmp_path):
    artifact_dir = str(tmp_path / "artifacts")
    task = (("native", "virt"), "GUPS", False, ("vanilla",),
            dict(scale=4096, nrefs=3000), None, artifact_dir, 1)
    cells = run_group(task)
    assert [cell["env"] for cell in cells] == ["native", "virt"]
    assert [cell["stage1_source"] for cell in cells] == ["computed", "memo"]
    assert cells[0]["stage1_seconds"] == cells[1]["stage1_seconds"] > 0.0
    assert all(cell["walk_engine"] == AUTO_ENGINE for cell in cells)
    assert all(cell["stage2_fallback_reason"] is None for cell in cells)
    # A rerun of the group (fresh Stage1Cache, as in a new worker or a
    # new process) serves stage 1 from the on-disk artifact cache.
    warm = run_group(task)
    assert warm[0]["stage1_source"] == "disk"
    assert warm[0]["mean_latency"] == cells[0]["mean_latency"]
