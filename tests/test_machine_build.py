"""Bulk page-table construction and lazy machines.

Bulk builds (DESIGN.md §17): ``RadixPageTable.map_run`` descends once
per leaf table and ``leaves()`` reads each table page once. The build
paths rebuilt on them (``Process.populate``, ``VM.back_range``, both
shadow ``sync`` methods, FPT/ECPT ``load_from_radix``) must leave a
machine in exactly the state the per-page loops they replaced left it
in: the same words in physical memory, the same buddy free lists and
block heads, the same reverse map, exit counters and PTE-write counts,
and the same mappings. The per-page loops live on below as the oracle.

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
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import PTE_PRESENT, RadixPageTable, pte_frame
from repro.kernel.process import Process
from repro.mem.buddy import OutOfMemoryError
from repro.mem.physmem import PhysicalMemory
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.sim.sweep import run_sweep
from repro.translation.ecpt import ElasticCuckooPageTables
from repro.translation.fpt import FlattenedPageTable
from repro.virt.hypervisor import VM, Hypervisor
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
                    self._set_reverse((hfn + i,), (gfn + i,))
            gpa += page_size.bytes
        else:
            if self.ept.lookup(gpa) is None:
                hfn = host_alloc.alloc_pages(0, movable=True)
                self.ept.map(gpa, hfn, PageSize.SIZE_4K)
                self._set_reverse((hfn,), (gpa >> PAGE_SHIFT,))
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
        "pages": [(frame, page.tobytes())
                  for frame, page in memory._pages.items()],
        "free_lists": [list(blocks) for blocks in allocator.free_lists],
        "blocks": list(allocator.owned_blocks()),
    }


def _reverse_state(vm):
    """The VM's reverse map as sorted (host frame, guest frame) pairs,
    and its count of backed host frames."""
    pairs = [(hfn, vm.reverse_lookup(hfn))
             for hfn in range(vm.hypervisor.host_memory.total_frames)]
    return [pair for pair in pairs if pair[1] is not None], \
        vm._reverse_count


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
        "reverse": [_reverse_state(vm) for vm in vms],
        "exits": [dataclasses.astuple(vm.exits) for vm in vms],
        "fpt": [(m.mapped, list(m._leaves.items()),
                 list(m._huge_tables.items()))
                for m in mirrors if isinstance(m, FlattenedPageTable)],
        "ecpt": [[(t.nbuckets, t.resizes, tuple(t._way_frames),
                   [list(tags.items()) for tags in t._tags])
                  for t in m.tables.values()]
                 for m in mirrors if isinstance(m, ElasticCuckooPageTables)],
    }


#: (env, thp, workload): every environment at 4 KB and THP for GUPS and
#: Memcached, plus the other machines the Figure 17 grid builds.
BUILDS = [(env, thp, workload) for env in sorted(ENVIRONMENTS)
          for thp in (False, True) for workload in ("GUPS", "Memcached")] \
    + [("nested", False, workload) for workload in ("Redis", "BTree",
                                                     "Canneal")]


@pytest.mark.parametrize(
    "env,thp,workload", BUILDS,
    ids=[f"{env}-{'THP' if thp else '4KB'}-{workload}"
         for env, thp, workload in BUILDS])
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


def test_huge_populate_out_of_2mb_blocks_equals_per_page_populate():
    """The allocator runs out of 2 MB blocks partway through a huge run:
    the pages after that fall back to 4 KB pages one by one."""
    def run(populate):
        memory = PhysicalMemory(16 * MB)
        allocator = memory.allocator
        proc = Process(memory, thp_enabled=True)
        # order-8 blocks whose buddies stay allocated: 4 KB frames are
        # plentiful, 2 MB blocks are not
        halves = []
        while allocator.free_lists[8] or allocator.free_lists[9] \
                or allocator.free_lists[10]:
            halves.append(allocator.alloc_pages(8, movable=False))
        for half in halves[4::2]:
            allocator.free_pages(half)
        for half in halves[:4]:  # two 2 MB blocks
            allocator.free_pages(half)
        assert len(allocator.free_lists[9]) == 2
        vma = proc.mmap(10 * MB, addr=32 * MB)
        counts = [populate(proc, vma, PageSize.SIZE_2M)]
        return counts, _memory_state(memory), _table_state(proc.page_table)

    counts, state, table = run(Process.populate)
    assert (counts, state, table) == run(_oracle_populate)
    sizes = [size for _, size in table["mappings"]]
    assert sizes.count(PageSize.SIZE_2M) == 2
    assert sizes.count(PageSize.SIZE_4K) == 3 * 512


@pytest.mark.parametrize("thp", [False, True], ids=["4KB", "THP"])
@pytest.mark.parametrize("nested", [False, True], ids=["shadow", "nested"])
def test_sync_faulting_in_backing_equals_per_page_sync(nested, thp):
    """A sync over partly backed memory faults the rest in: each fault
    lands between the sPT writes of the pages around it, as the
    per-page sync did, and counts one exit."""
    def run(sync):
        host = Kernel(memory_bytes=64 * MB)
        vm = Hypervisor(host).create_vm(16 * MB, thp_enabled=thp)
        if nested:
            l2_vm = Hypervisor(vm.guest_kernel).create_vm(8 * MB)
            l2_vm.back_range(0, 3 * MB)
            pager = NestedShadowPager(vm, l2_vm)
        else:
            proc = vm.guest_kernel.create_process("guest")
            proc.mmap(5 * MB, addr=6 * MB + 3 * PAGE_SIZE, populate=True)
            pager = ShadowPager(vm, proc)
        for gfn in range(0, 2048, 3):  # every third frame backed already
            vm.ensure_backed(gfn)
        installed = [sync(pager), sync(pager)]
        return (installed, _memory_state(host.memory),
                _table_state(pager.spt), _reverse_state(vm),
                dataclasses.astuple(vm.exits))

    oracle = _oracle_nested_sync if nested else _oracle_shadow_sync
    bulk = run(NestedShadowPager.sync if nested else ShadowPager.sync)
    assert bulk == run(oracle)
    assert bulk[-1][0] > 1000  # it did fault frames in


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

    def frames_for(va, olds):
        calls.append((va, [old & PTE_PRESENT for old in olds]))
        return [None if old & PTE_PRESENT else next(frames) for old in olds]

    assert pt.map_run(start, 6, PageSize.SIZE_4K, frames_for) == 5
    assert calls == [(start, [0, 1, 0]), (2 * MB, [0]),
                     (2 * MB + PAGE_SIZE, [0, 0])]
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
               lambda va, olds: [memory.allocator.alloc_pages(0, True)
                                 for _ in olds])
    assert order == ["data", "table", "table", "table", "data"]


def test_map_run_calls_frames_for_once_per_leaf_table():
    """The callback contract: one call per leaf table the run crosses,
    two for a table the run opens (the opening page alone, its data
    frame before the table), present pages skipped, a declined opening
    page followed by the next page alone, and a short answer continued
    in a next call."""
    memory = PhysicalMemory((1 << 14) * PAGE_SIZE)
    pt = RadixPageTable(memory)
    pt.map(2 * MB - 2 * PAGE_SIZE, 7)  # the first table exists
    events = []
    real = memory.allocator.alloc_pages

    def alloc(order=0, movable=True):
        events.append("data" if movable else "table")
        return real(order, movable=movable)

    memory.allocator.alloc_pages = alloc
    calls = []

    def frames_for(va, olds):
        calls.append((va, len(olds)))
        events.append(va)
        if va == 4 * MB:
            return [None]
        if va == 4 * MB + 2 * PAGE_SIZE:
            olds = olds[:10]
        return [None if old & PTE_PRESENT else alloc() for old in olds]

    start = 2 * MB - 3 * PAGE_SIZE
    written = pt.map_run(start, 3 + 512 + 300, PageSize.SIZE_4K, frames_for)
    page = PAGE_SIZE
    assert calls == [(start, 3),
                     (2 * MB, 1), (2 * MB + page, 511),
                     (4 * MB, 1), (4 * MB + page, 1), (4 * MB + 2 * page, 298),
                     (4 * MB + 12 * page, 288)]
    assert written == 2 + 512 + 299
    assert events[events.index(2 * MB):][:4] == [2 * MB, "data", "table",
                                                 2 * MB + page]
    assert events[events.index(4 * MB):][:5] == [4 * MB, 4 * MB + page,
                                                 "data", "table",
                                                 4 * MB + 2 * page]
    assert pt.translate(2 * MB - 2 * page)[0] == 7 << PAGE_SHIFT
    assert pt.lookup(4 * MB) is None
    assert pt.mapped_pages == 1 + written


def test_leaf_frames_agree_with_lookup():
    pt = _table()
    pt.map_run(0, 700, PageSize.SIZE_4K,
               lambda va, olds: [None if (va >> PAGE_SHIFT) + i == 5 else
                                 (va >> PAGE_SHIFT) + 3000 + i
                                 for i in range(len(olds))])
    pt.map(8 * MB, 1024, PageSize.SIZE_2M)
    vpns = [3, 4, 5, 6, 600, 2, 699, 700, 2048 + 7, 2048 + 511, 4096, 5]

    def expected(vpn):
        found = pt.lookup(vpn << PAGE_SHIFT)
        if found is None:
            return None
        _, pte, size = found
        return pte_frame(pte) + (vpn & (size.bytes >> PAGE_SHIFT) - 1)

    assert pt.leaf_frames(vpns) == [expected(vpn) for vpn in vpns]
    assert pt.leaf_frames(vpns)[2] is None


def test_sanitizer_catches_a_planted_frame_in_a_bulk_build(monkeypatch):
    """A populate whose allocator hands out one frame past the end of
    memory as its third data frame raises inside ``map_run`` with the
    sanitizer on."""
    memory = PhysicalMemory(64 * MB)
    proc = Process(memory)
    real = memory.allocator.alloc_run
    handed = [0]

    def planted(count, movable=True):
        frames = real(count, movable=movable)
        if handed[0] < 3 <= handed[0] + len(frames):
            frames[2 - handed[0]] = memory.total_frames
        handed[0] += len(frames)
        return frames

    monkeypatch.setattr(memory.allocator, "alloc_run", planted)
    with sanitizer.enabled():
        with pytest.raises(sanitizer.SanitizerError) as raised:
            proc.mmap(MB, addr=16 * MB, populate=True)
    assert any(entry.name == "map_run" for entry in raised.traceback)
    assert proc.page_table.mapped_pages == 2


def test_sanitizer_catches_a_planted_frame_in_back_range(monkeypatch):
    """A 4 KB ``VM.back_range`` whose host allocator hands out one frame
    past the end of memory raises inside ``map_run`` with the sanitizer
    on, once the pages before it are backed."""
    host = Kernel(memory_bytes=64 * MB)
    vm = Hypervisor(host).create_vm(16 * MB)
    allocator = host.memory.allocator
    real = allocator.alloc_run

    def planted(count, movable=True):
        frames = real(count, movable=movable)
        if len(frames) > 2:
            frames[2] = host.memory.total_frames
        return frames

    monkeypatch.setattr(allocator, "alloc_run", planted)
    with sanitizer.enabled():
        with pytest.raises(sanitizer.SanitizerError) as raised:
            vm.back_range(0, MB)
    assert any(entry.name == "map_run" for entry in raised.traceback)
    # the opening page alone, then two of the rest of its table
    assert vm.backed_pages() == 3


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
