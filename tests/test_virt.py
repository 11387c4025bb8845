"""Tests for the virtualization substrate: EPT, shadow paging, nesting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import pte_frame
from repro.virt.hypervisor import Hypervisor
from repro.virt.nested import NestedSetup
from repro.virt.shadow import ShadowPager

MB = 1 << 20


@pytest.fixture
def host():
    return Kernel(memory_bytes=512 * MB)


@pytest.fixture
def vm(host):
    return Hypervisor(host).create_vm(128 * MB)


class TestEPT:
    def test_lazy_backing_counts_exits(self, vm):
        assert vm.exits.ept_violations == 0
        hfn = vm.ensure_backed(10)
        assert vm.exits.ept_violations == 1
        assert vm.ensure_backed(10) == hfn  # second touch: no exit
        assert vm.exits.ept_violations == 1

    def test_gpa_to_hpa_preserves_offset(self, vm):
        hpa = vm.gpa_to_hpa(0x5678)
        assert hpa & 0xFFF == 0x678

    def test_back_range_eager(self, vm):
        vm.back_range(0, 4 * MB)
        exits_before = vm.exits.ept_violations
        for gpa in range(0, 4 * MB, PAGE_SIZE):
            vm.gpa_to_hpa(gpa)
        assert vm.exits.ept_violations == exits_before

    def test_back_range_huge(self, vm):
        vm.back_range(0, 4 * MB, PageSize.SIZE_2M)
        assert vm.ept.lookup(0)[2] == PageSize.SIZE_2M

    def test_back_range_huge_respects_existing_4k(self, vm):
        vm.ensure_backed(5)  # one 4 KB mapping inside the first 2 MB
        vm.back_range(0, 2 * MB, PageSize.SIZE_2M)
        # must not stomp the existing L1 table: falls back to 4 KB
        assert vm.ept.lookup(0)[2] == PageSize.SIZE_4K
        assert vm.ept.lookup(5 << PAGE_SHIFT) is not None

    def test_reverse_lookup(self, vm):
        hfn = vm.ensure_backed(7)
        assert vm.reverse_lookup(hfn) == 7
        assert vm.reverse_lookup(hfn + 999999) is None

    def test_map_host_frames_contiguous_view(self, host, vm):
        host_base = host.memory.allocator.alloc_contig(4)
        gpa = vm.map_host_frames(host_base, 4)
        for i in range(4):
            assert vm.gpa_to_hpa(gpa + i * PAGE_SIZE) == (host_base + i) << PAGE_SHIFT

    def test_backing_vma_represents_guest_memory(self, vm):
        # §4.5: the hypervisor creates one VMA for guest physical memory
        assert vm.backing_vma.size == vm.memory_bytes
        assert vm.gpa_space_vma().size == vm.memory_bytes

    def test_guest_frames_must_fit_in_31_bits(self, host):
        with pytest.raises(ValueError, match="31 bits"):
            Hypervisor(host).create_vm(((1 << 31) + 1) * PAGE_SIZE)


# --------------------------------------------------------------------- #
# The reverse map against a dict model
# --------------------------------------------------------------------- #

GUEST_FRAMES = 2048  # 8 MB: four 2 MB regions


@st.composite
def backing_history(draw):
    """Random back_range (4 KB and 2 MB), ensure_backed and
    map_host_frames steps; the last take fresh host frames or, with
    ``reuse``, host frames that may back guest frames already."""
    gfn = st.integers(0, GUEST_FRAMES - 1)
    step = st.one_of(
        st.tuples(st.just("back"), gfn, st.integers(1, GUEST_FRAMES),
                  st.booleans()),
        st.tuples(st.just("ensure"), gfn),
        st.tuples(st.just("insert"), st.integers(1, 8), st.booleans(),
                  st.integers(0, 1 << 16)),
    )
    return draw(st.lists(step, max_size=20))


def _ept_leaves(vm):
    """{gPA of each EPT leaf: (host frame, page size)}."""
    return {gpa: (pte_frame(pte), size) for gpa, pte, size in vm.ept.leaves()}


def _backing(vm):
    """{gfn: hfn} of every backed guest frame, read off the EPT."""
    return {gfn: hfn for gfn, hfn in
            enumerate(vm.ept.leaf_frames(range(GUEST_FRAMES)))
            if hfn is not None}


class TestReverseMap:
    @pytest.mark.parametrize("size", [PageSize.SIZE_4K, PageSize.SIZE_2M])
    def test_fully_backed_once_every_guest_frame_is(self, host, size):
        vm = Hypervisor(host).create_vm(GUEST_FRAMES * PAGE_SIZE)
        vm.back_range(PAGE_SIZE, (GUEST_FRAMES - 1) * PAGE_SIZE, size)
        assert not vm.fully_backed()
        vm.ensure_backed(0)
        assert vm.fully_backed()

    def test_map_host_frames_over_a_2mb_leaf(self, host):
        """Remapping one guest frame of a 2 MB EPT leaf unbacks the
        leaf's other 511 guest frames: their host frames leave the
        reverse map too."""
        vm = Hypervisor(host).create_vm(GUEST_FRAMES * PAGE_SIZE)
        vm.back_range(0, GUEST_FRAMES * PAGE_SIZE, PageSize.SIZE_2M)
        assert vm.fully_backed()
        base = vm.guest_memory.allocator.alloc_contig(1)
        vm.guest_memory.allocator.free_contig(base, 1)
        _, pte, size = vm.ept.lookup(base << PAGE_SHIFT)
        assert size == PageSize.SIZE_2M
        huge = pte_frame(pte)
        new = host.memory.allocator.alloc_contig(1)
        assert vm.map_host_frames(new, 1) == base << PAGE_SHIFT
        assert vm.reverse_lookup(new) == base
        lo = base - base % 512
        assert [vm.reverse_lookup(huge + k) for k in range(512)] == \
            [None] * 512
        assert vm._reverse_count == len(_backing(vm)) == GUEST_FRAMES - 511
        assert not vm.fully_backed()

    def test_map_host_frames_already_backing_the_region(self, host):
        """Given host frames that back the region shifted by one page,
        each page's old leaf maps the frame the page before entered:
        that entry stays."""
        vm = Hypervisor(host).create_vm(GUEST_FRAMES * PAGE_SIZE)
        olds = host.memory.allocator.alloc_contig(5)
        base = vm.map_host_frames(olds, 5) >> PAGE_SHIFT
        vm.guest_memory.allocator.free_contig(base, 5)
        assert vm.map_host_frames(olds + 1, 4) == base << PAGE_SHIFT
        assert [vm.reverse_lookup(olds + k) for k in range(5)] == \
            [None, base, base + 1, base + 2, base + 3]
        assert _backing(vm) == {base + i: olds + 1 + i for i in range(4)} \
            | {base + 4: olds + 4}
        assert vm._reverse_count == 4

    @given(backing_history())
    @settings(max_examples=150, deadline=None)
    def test_equals_dict_model(self, history):
        """``reverse_lookup`` and ``fully_backed()`` equal a ``{hfn:
        gfn}`` model after every step. A host frame the EPT newly maps
        is entered. ``map_host_frames`` enters its frames one by one;
        for each EPT leaf it unmaps on the way it drops every host frame
        of the leaf whose entry still names the leaf's guest frame, so
        a frame it entered itself stays."""
        host = Kernel(memory_bytes=64 * MB)
        vm = Hypervisor(host).create_vm(GUEST_FRAMES * PAGE_SIZE)
        model = {}
        for op, arg, *rest in history:
            if op == "insert":
                leaves = _ept_leaves(vm)
                if rest[0] and model:
                    host_base = min(sorted(model)[rest[1] % len(model)],
                                    host.memory.total_frames - arg)
                else:
                    host_base = host.memory.allocator.alloc_contig(arg)
                base = vm.map_host_frames(host_base, arg) >> PAGE_SHIFT
                for i in range(arg):
                    gpa = (base + i) << PAGE_SHIFT
                    for va in (gpa, gpa - gpa % PageSize.SIZE_2M.bytes):
                        if va in leaves and (va == gpa or leaves[va][1]
                                             == PageSize.SIZE_2M):
                            hfn, size = leaves.pop(va)
                            for k in range(size.bytes >> PAGE_SHIFT):
                                if model.get(hfn + k) == (va >> PAGE_SHIFT) + k:
                                    del model[hfn + k]
                            break
                    leaves[gpa] = (host_base + i, PageSize.SIZE_4K)
                    model[host_base + i] = base + i
            else:
                before = _backing(vm)
                if op == "back":
                    count = min(rest[0], GUEST_FRAMES - arg)
                    size = PageSize.SIZE_2M if rest[1] else PageSize.SIZE_4K
                    vm.back_range(arg << PAGE_SHIFT, count << PAGE_SHIFT,
                                  size)
                else:
                    vm.ensure_backed(arg)
                for gfn, hfn in _backing(vm).items():
                    if gfn not in before:
                        model[hfn] = gfn
            for hfn, gfn in model.items():
                assert vm.reverse_lookup(hfn) == gfn
            assert vm._reverse_count == len(model)
            assert vm.fully_backed() == (len(model) >= GUEST_FRAMES)
        assert [vm.reverse_lookup(hfn) for hfn in
                range(host.memory.total_frames + 4)] == \
            [model.get(hfn) for hfn in range(host.memory.total_frames + 4)]


class TestGuestKernel:
    def test_guest_process_composition(self, vm):
        proc = vm.guest_kernel.create_process()
        vma = proc.mmap(2 * MB, populate=True)
        gpa, _ = proc.page_table.translate(vma.start)
        hpa = vm.gpa_to_hpa(gpa)
        assert hpa != gpa  # actually remapped

    def test_guest_memory_is_separate_domain(self, host, vm):
        vm.guest_memory.write_word(0x1000, 77)
        assert host.memory.read_word(0x1000) != 77 or True  # domains independent
        assert vm.guest_memory.read_word(0x1000) == 77


class TestShadowPaging:
    def test_spt_matches_composed_translation(self, vm):
        proc = vm.guest_kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        pager = ShadowPager(vm, proc)
        installed = pager.sync()
        assert installed == 1024
        for offset in (0, PAGE_SIZE, vma.size - 1):
            gpa, _ = proc.page_table.translate(vma.start + offset)
            assert pager.spt.translate(vma.start + offset)[0] == vm.gpa_to_hpa(gpa)

    def test_guest_pte_writes_trap(self, vm):
        proc = vm.guest_kernel.create_process()
        pager = ShadowPager(vm, proc)
        before = vm.exits.shadow_syncs
        proc.mmap(MB, populate=True)
        assert vm.exits.shadow_syncs > before, \
            "every guest page-table update is a VM exit under shadow paging"

    def test_detach_stops_trapping(self, vm):
        proc = vm.guest_kernel.create_process()
        pager = ShadowPager(vm, proc)
        pager.detach()
        before = vm.exits.shadow_syncs
        proc.mmap(MB, populate=True)
        assert vm.exits.shadow_syncs == before

    def test_sync_is_idempotent(self, vm):
        proc = vm.guest_kernel.create_process()
        proc.mmap(MB, populate=True)
        pager = ShadowPager(vm, proc)
        pager.sync()
        assert pager.sync() == 0  # nothing new to install

    def test_huge_guest_page_fractured_when_host_is_4k(self, vm):
        guest = vm.guest_kernel
        guest.thp_enabled = True
        proc = guest.create_process()
        proc.mmap(2 * MB, populate=True)
        pager = ShadowPager(vm, proc)
        installed = pager.sync()
        assert installed == 512  # 2 MB guest page fractures into 4 KB shadows


class TestNestedVirtualization:
    def test_three_level_composition(self, host):
        nested = NestedSetup(host, 128 * MB, 64 * MB)
        proc = nested.l2_kernel.create_process()
        vma = proc.mmap(2 * MB, populate=True)
        l2pa, _ = proc.page_table.translate(vma.start)
        l1pa = nested.l2pa_to_l1pa(l2pa)
        l0pa = nested.l1pa_to_l0pa(l1pa)
        assert nested.l2pa_to_l0pa(l2pa) == l0pa
        # composition is stable once backed (no further exits / remaps)
        assert nested.l2pa_to_l0pa(l2pa) == l0pa
        assert l0pa % PAGE_SIZE == l2pa % PAGE_SIZE

    def test_l2_cannot_exceed_l1(self, host):
        with pytest.raises(ValueError):
            NestedSetup(host, 64 * MB, 128 * MB)

    def test_nested_shadow_agrees(self, host):
        nested = NestedSetup(host, 128 * MB, 64 * MB)
        proc = nested.l2_kernel.create_process()
        vma = proc.mmap(MB, populate=True)
        l2pa, _ = proc.page_table.translate(vma.start)
        nested.l2_vm.gpa_to_hpa(l2pa)  # force backing
        nested.enable_shadow()
        nested.shadow.sync()
        assert nested.shadow.spt.translate(l2pa)[0] == nested.l2pa_to_l0pa(l2pa)

    def test_l1_table_updates_trap_to_l0(self, host):
        nested = NestedSetup(host, 128 * MB, 64 * MB)
        nested.enable_shadow()
        before = nested.l1_vm.exits.shadow_syncs
        nested.l2_vm.ensure_backed(3)  # L1 writes its table for L2
        assert nested.l1_vm.exits.shadow_syncs > before

    def test_exit_accounting_aggregates(self, host):
        nested = NestedSetup(host, 128 * MB, 64 * MB)
        nested.l2_vm.ensure_backed(0)
        nested.l1_vm.ensure_backed(0)
        assert nested.total_exits() >= 2
