"""Bulk page-table construction and lazy machines.

Bulk builds (DESIGN.md §17): ``RadixPageTable.map_run`` descends once
per leaf table and ``leaves()`` reads each table page once. The build
paths rebuilt on them (``Process.populate``, ``VM.back_range``, both
shadow ``sync`` methods, FPT/ECPT ``load_from_radix``) must leave a
machine in exactly the state the per-page loops they replaced left it
in: the same words in physical memory, the same buddy free lists, the
same reverse map, exit counters and PTE-write counts, and the same
mapping order. The per-page loops live on below as the oracle.

Lazy machines: a cell served from the stage-1 and stage-2 caches
builds no machine, and a machine built late (on the first walker)
gives the same cells as one built while computing stage 1.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import sanitizer
from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize
from repro.kernel import kernel as kernel_module
from repro.kernel.page_table import PTE_PRESENT, RadixPageTable, pte_frame
from repro.kernel.process import Process
from repro.mem.buddy import OutOfMemoryError
from repro.mem.physmem import PhysicalMemory
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.sim.sweep import run_sweep
from repro.translation.ecpt import ElasticCuckooPageTables
from repro.translation.fpt import FlattenedPageTable
from repro.virt.hypervisor import VM
from repro.virt.shadow import NestedShadowPager, ShadowPager

MB = 1 << 20


# --------------------------------------------------------------------- #
# The per-page build loops the bulk paths replaced (test oracle)
# --------------------------------------------------------------------- #

def _oracle_populate(self, vma, page_size=None):
    mapped = 0
    va = vma.start
    while va < vma.end:
        use_huge = False
        if page_size == PageSize.SIZE_2M:
            use_huge = True
        elif page_size is None and self.thp_enabled:
            use_huge = (va % PageSize.SIZE_2M.bytes == 0
                        and va + PageSize.SIZE_2M.bytes <= vma.end)
        if use_huge:
            mapped += _oracle_map_huge(self, va)
            va += PageSize.SIZE_2M.bytes
        else:
            if self.page_table.lookup(va) is None:
                frame = self.memory.allocator.alloc_pages(0, movable=True)
                self.page_table.map(va, frame, PageSize.SIZE_4K)
            mapped += 1
            va += PAGE_SIZE
    return mapped


def _oracle_map_huge(self, va):
    if self.page_table.lookup(va) is not None:
        return 0
    try:
        frame = self.memory.allocator.alloc_pages(9, movable=True)
    except OutOfMemoryError:
        for offset in range(0, PageSize.SIZE_2M.bytes, PAGE_SIZE):
            frame = self.memory.allocator.alloc_pages(0, movable=True)
            self.page_table.map(va + offset, frame, PageSize.SIZE_4K)
        return 512
    self.page_table.map(va, frame, PageSize.SIZE_2M)
    return 512


def _oracle_back_range(self, gpa_start, nbytes, page_size=PageSize.SIZE_4K):
    gpa = gpa_start
    end = gpa_start + nbytes
    host_alloc = self.hypervisor.host_memory.allocator
    while gpa < end:
        if page_size == PageSize.SIZE_2M and gpa % page_size.bytes == 0 \
                and gpa + page_size.bytes <= end \
                and self.ept.table_frame(gpa, 1) is None:
            if self.ept.lookup(gpa) is None:
                hfn = host_alloc.alloc_pages(9, movable=True)
                self.ept.map(gpa, hfn, PageSize.SIZE_2M)
                gfn = gpa >> PAGE_SHIFT
                for i in range(512):
                    self._reverse[hfn + i] = gfn + i
            gpa += page_size.bytes
        else:
            if self.ept.lookup(gpa) is None:
                hfn = host_alloc.alloc_pages(0, movable=True)
                self.ept.map(gpa, hfn, PageSize.SIZE_4K)
                self._reverse[hfn] = gpa >> PAGE_SHIFT
            gpa += PAGE_SIZE


def _oracle_shadow_sync(self):
    installed = 0
    guest_pt = self.guest_process.page_table
    for va, size in sorted(guest_pt.mappings()):
        gpa = guest_pt.translate(va)[0]
        if size == PageSize.SIZE_4K:
            installed += _oracle_install(self, va, self.vm.gpa_to_hpa(gpa),
                                         size)
            continue
        ept_leaf = self.vm.ept.lookup(gpa)
        if ept_leaf is not None and ept_leaf[2] == size \
                and gpa % size.bytes == 0:
            installed += _oracle_install(self, va, self.vm.gpa_to_hpa(gpa),
                                         size)
            continue
        for offset in range(0, size.bytes, PAGE_SIZE):
            hpa = self.vm.gpa_to_hpa(gpa + offset)
            installed += _oracle_install(self, va + offset, hpa,
                                         PageSize.SIZE_4K)
    return installed


def _oracle_install(self, va, hpa, size):
    existing = self.spt.lookup(va)
    if existing is not None:
        if existing[2] == size and existing[1] >> PAGE_SHIFT == \
                hpa >> PAGE_SHIFT:
            return 0
        self.spt.unmap(va)
    self.spt.map(va, hpa >> PAGE_SHIFT, size)
    return 1


def _oracle_nested_sync(self):
    installed = 0
    for gpa_base, size in sorted(self.l2_vm.ept.mappings()):
        l1pa = self.l2_vm.ept.translate(gpa_base)[0]
        for offset in range(0, size.bytes, PAGE_SIZE):
            l0pa = self.l1_vm.gpa_to_hpa(l1pa + offset)
            if self.spt.lookup(gpa_base + offset) is None:
                self.spt.map(gpa_base + offset, l0pa >> PAGE_SHIFT,
                             PageSize.SIZE_4K)
                installed += 1
    return installed


def _oracle_load(skip_1g):
    def load_from_radix(self, page_table):
        count = 0
        for va, size in page_table.mappings():
            found = page_table.lookup(va)
            if found is None or (skip_1g and size == PageSize.SIZE_1G):
                continue
            self.map(va, pte_frame(found[1]), size)
            count += 1
        return count
    return load_from_radix


ORACLE = [
    (Process, "populate", _oracle_populate),
    (VM, "back_range", _oracle_back_range),
    (ShadowPager, "sync", _oracle_shadow_sync),
    (NestedShadowPager, "sync", _oracle_nested_sync),
    (FlattenedPageTable, "load_from_radix", _oracle_load(skip_1g=True)),
    (ElasticCuckooPageTables, "load_from_radix", _oracle_load(skip_1g=False)),
]


# --------------------------------------------------------------------- #
# Machine state snapshot
# --------------------------------------------------------------------- #

def _memory_state(memory):
    allocator = memory.allocator
    return {
        "words": list(memory._words.items()),
        "free_lists": [list(blocks) for blocks in allocator.free_lists],
        "allocated": list(allocator._allocated.items()),
        "movable": sorted(allocator._movable),
    }


def _table_state(table):
    return {"pte_writes": table.stats.pte_writes,
            "tables": table.stats.tables_allocated,
            "mappings": table.mappings()}


def _machine_state(sim):
    """Everything a machine build writes, after the shared mirrors."""
    sim._ensure_shared()
    if sim.env_name == "native":
        memories = [sim.kernel.memory]
        tables = [sim.process.page_table]
        vms = []
        mirrors = [sim.fpt, sim.ecpt]
    elif sim.env_name == "virt":
        memories = [sim.host_kernel.memory, sim.vm.guest_memory]
        tables = [sim.process.page_table, sim.vm.ept, sim.shadow.spt]
        vms = [sim.vm]
        mirrors = [sim.guest_fpt, sim.host_fpt, sim.guest_ecpt,
                   sim.host_ecpt]
    else:
        vms = [sim.nested.l1_vm, sim.nested.l2_vm]
        memories = [sim.host_kernel.memory] + [vm.guest_memory for vm in vms]
        tables = [sim.process.page_table, sim.nested.shadow.spt] \
            + [vm.ept for vm in vms]
        mirrors = []
    return {
        "memories": [_memory_state(memory) for memory in memories],
        "tables": [_table_state(table) for table in tables],
        "reverse": [list(vm._reverse.items()) for vm in vms],
        "exits": [dataclasses.astuple(vm.exits) for vm in vms],
        "fpt": [(m.mapped, list(m._leaves.items()),
                 list(m._huge_tables.items()))
                for m in mirrors if isinstance(m, FlattenedPageTable)],
        "ecpt": [[(t.nbuckets, t.resizes, tuple(t._way_frames),
                   [list(tags.items()) for tags in t._tags])
                  for t in m.tables.values()]
                 for m in mirrors if isinstance(m, ElasticCuckooPageTables)],
    }


@pytest.mark.parametrize("workload", ["GUPS", "Memcached"])
@pytest.mark.parametrize("thp", [False, True], ids=["4KB", "THP"])
@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_bulk_build_equals_per_page_build(env, thp, workload, monkeypatch):
    config = SimConfig(scale=4096, nrefs=500, thp=thp)
    bulk = _machine_state(ENVIRONMENTS[env](workload, config))
    with monkeypatch.context() as patch:
        for owner, name, oracle in ORACLE:
            patch.setattr(owner, name, oracle)
        reference = _machine_state(ENVIRONMENTS[env](workload, config))
    for key in reference:
        assert bulk[key] == reference[key], f"{env}/{workload}: {key}"


@pytest.mark.parametrize("thp,page_size", [
    (False, None), (True, None), (True, PageSize.SIZE_4K),
    (False, PageSize.SIZE_2M)])
def test_populate_equals_per_page_populate(thp, page_size):
    """Unaligned heads and tails, a VMA smaller than a huge page, and a
    second populate that finds everything mapped."""
    def run(populate):
        memory = PhysicalMemory(64 * MB)
        proc = Process(memory, thp_enabled=thp)
        counts = []
        for start, size in [(6 * MB + 3 * PAGE_SIZE, 5 * MB),
                            (16 * MB, 4 * MB), (24 * MB + PAGE_SIZE, 8192)]:
            vma = proc.mmap(size, addr=start)
            counts.append(populate(proc, vma, page_size))
            counts.append(populate(proc, vma, page_size))
        return counts, _memory_state(memory), _table_state(proc.page_table)

    assert run(Process.populate) == run(_oracle_populate)


# --------------------------------------------------------------------- #
# map_run / leaves units
# --------------------------------------------------------------------- #

def _table(frames=1 << 14):
    return RadixPageTable(PhysicalMemory(frames * PAGE_SIZE))


def test_leaves_yield_every_mapping_in_va_order():
    pt = _table()
    base = 0x7F00_0000_0000
    pt.map(base + 5 * PAGE_SIZE, 40)
    pt.map(base + 4 * MB, 512, PageSize.SIZE_2M)
    pt.map(base, 41)
    pt.map(base + (1 << 30), 42)
    leaves = list(pt.leaves())
    assert [va for va, _, _ in leaves] == sorted(va for va, _ in
                                                 pt.mappings())
    for va, pte, size in leaves:
        assert pt.lookup(va)[1:] == (pte, size)


def test_map_run_skips_present_pages_and_crosses_leaf_tables():
    pt = _table()
    start = 2 * MB - 3 * PAGE_SIZE
    pt.map(start + PAGE_SIZE, 99)
    frames = iter(range(1000, 2000))
    calls = []

    def frame_for(va, old):
        calls.append((va, old & PTE_PRESENT))
        return None if old & PTE_PRESENT else next(frames)

    assert pt.map_run(start, 6, PageSize.SIZE_4K, frame_for) == 5
    assert [va for va, _ in calls] == [start + i * PAGE_SIZE
                                       for i in range(6)]
    assert [present for _, present in calls] == [0, 1, 0, 0, 0, 0]
    assert pt.translate(start + PAGE_SIZE)[0] == 99 << PAGE_SHIFT
    assert pt.translate(start + 5 * PAGE_SIZE)[0] == 1004 << PAGE_SHIFT


def test_map_run_allocates_the_data_frame_before_its_leaf_table():
    memory = PhysicalMemory((1 << 14) * PAGE_SIZE)
    pt = RadixPageTable(memory)
    order = []
    real = memory.allocator.alloc_pages

    def alloc(order_=0, movable=True):
        frame = real(order_, movable=movable)
        order.append("data" if movable else "table")
        return frame

    memory.allocator.alloc_pages = alloc
    pt.map_run(0, 2, PageSize.SIZE_4K,
               lambda va, old: memory.allocator.alloc_pages(0, True))
    assert order == ["data", "table", "table", "table", "data"]


def test_sanitizer_catches_a_planted_frame_in_a_bulk_build(monkeypatch):
    """A populate whose allocator hands out one frame past the end of
    memory raises inside ``map_run`` with the sanitizer on."""
    memory = PhysicalMemory(64 * MB)
    proc = Process(memory)
    real = memory.allocator.alloc_pages
    calls = [0]

    def planted(order=0, movable=True):
        frame = real(order, movable=movable)
        if movable:
            calls[0] += 1
            if calls[0] == 3:
                return memory.total_frames
        return frame

    monkeypatch.setattr(memory.allocator, "alloc_pages", planted)
    with sanitizer.enabled():
        with pytest.raises(sanitizer.SanitizerError) as raised:
            proc.mmap(MB, addr=16 * MB, populate=True)
    assert any(entry.name == "map_run" for entry in raised.traceback)
    assert proc.page_table.mapped_pages == 2


def test_leaf_cursor_agrees_with_lookup():
    pt = _table()
    pt.map_run(0, 700, PageSize.SIZE_4K, lambda va, old: va >> PAGE_SHIFT)
    pt.map(8 * MB, 1024, PageSize.SIZE_2M)
    cursor = pt.cursor()
    for va in list(range(0, 800 * PAGE_SIZE, 3 * PAGE_SIZE)) \
            + [8 * MB + 5 * PAGE_SIZE, 9 * MB, 64 * MB, 4 * PAGE_SIZE]:
        assert cursor.lookup(va) == pt.lookup(va), hex(va)


# --------------------------------------------------------------------- #
# Lazy machines in sweeps
# --------------------------------------------------------------------- #

SWEEP = dict(workloads=["GUPS"], thp_modes=(False, True), workers=1,
             scale=4096, nrefs=2000, seed=1)
STABLE = ("env", "workload", "design", "thp", "walks", "mean_latency",
          "fallback_rate", "miss_count", "total_refs", "tlb_miss_rate")


def _stable(document):
    return [{key: cell.get(key) for key in STABLE}
            for cell in document["cells"]]


@pytest.fixture
def kernels_built(monkeypatch):
    """Counts ``Kernel`` constructions (one per machine, VM or host)."""
    count = [0]
    init = kernel_module.Kernel.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernel_module.Kernel, "__init__", counted)
    return count


def test_warm_sweep_builds_no_machine(tmp_path, kernels_built):
    cache = str(tmp_path / "cache")
    grid = dict(envs=["native", "virt"], designs=["vanilla", "pvdmt"],
                artifact_dir=cache, **SWEEP)
    cold = run_sweep(**grid)
    assert kernels_built[0] > 0
    kernels_built[0] = 0
    warm = run_sweep(**grid)
    assert kernels_built[0] == 0
    assert {cell["stage2_source"] for cell in warm["cells"]} == {"disk"}
    assert _stable(warm) == _stable(cold)


def test_stage1_hit_stage2_miss_builds_on_the_first_walker(tmp_path):
    cache = str(tmp_path / "cache")
    cold = run_sweep(envs=["nested"], artifact_dir=cache, **SWEEP)
    scalar = run_sweep(envs=["nested"], artifact_dir=cache,
                       walk_engine="scalar", **SWEEP)
    assert len(cold["cells"]) == 4
    cells = scalar["cells"]
    assert {cell["stage1_source"] for cell in cells} == {"disk"}
    assert {cell["stage2_source"] for cell in cells} == {"computed"}
    assert {cell["walk_engine"] for cell in cells} == {"scalar"}
    assert _stable(scalar) == _stable(cold)


def test_group_of_two_environments_equals_separate_sweeps(tmp_path):
    designs = ["vanilla", "dmt"]
    grouped = run_sweep(envs=["native", "virt"], designs=designs, **SWEEP)
    native = run_sweep(envs=["native"], designs=designs, **SWEEP)
    virt = run_sweep(envs=["virt"], designs=designs, **SWEEP)
    by_cell = {(c["env"], c["design"], c["thp"]): c
               for c in _stable(native) + _stable(virt)}
    cells = _stable(grouped)
    # the virt machine of a group reuses native's stage 1 and builds late
    assert {(c["env"], c["stage1_source"]) for c in grouped["cells"]} == \
        {("native", "computed"), ("virt", "memo")}
    assert len(cells) == len(by_cell)
    for cell in cells:
        assert cell == by_cell[(cell["env"], cell["design"], cell["thp"])]
