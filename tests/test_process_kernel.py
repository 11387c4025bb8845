"""Tests for processes, demand paging, THP, and the kernel facade."""

import pytest

from repro.arch import PAGE_SIZE, PageSize
from repro.core.dmt_os import DMTLinux
from repro.kernel.kernel import Kernel
from repro.kernel.process import PageFaultError
from repro.kernel.thp import demote, khugepaged_pass, promotable_ranges, promote

MB = 1 << 20


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=128 * MB)


class TestProcess:
    def test_populate_backs_every_page(self, kernel):
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB)
        assert proc.populate(vma) == 1024
        assert proc.resident_pages() == 1024
        for offset in (0, PAGE_SIZE, vma.size - 1):
            assert proc.page_table.translate(vma.start + offset) is not None

    def test_touch_demand_faults(self, kernel):
        proc = kernel.create_process()
        vma = proc.mmap(MB)
        assert proc.resident_pages() == 0
        pa = proc.touch(vma.start + 0x123)
        assert pa % PAGE_SIZE == 0x123
        assert proc.resident_pages() == 1

    def test_touch_outside_vma_faults(self, kernel):
        proc = kernel.create_process()
        with pytest.raises(PageFaultError):
            proc.touch(0xDEAD000)

    def test_munmap_releases_frames(self, kernel):
        proc = kernel.create_process()
        free_before = kernel.memory.allocator.free_frames
        vma = proc.mmap(2 * MB, populate=True)
        proc.munmap(vma.start, vma.size)
        assert proc.resident_pages() == 0
        # all data frames returned (table pages may remain)
        assert kernel.memory.allocator.free_frames >= free_before - 8

    def test_page_table_bytes_accounting(self, kernel):
        proc = kernel.create_process()
        base = proc.page_table_bytes()
        proc.mmap(2 * MB, populate=True)
        assert proc.page_table_bytes() > base


class TestTHPPopulate:
    def test_thp_kernel_uses_huge_pages(self):
        kernel = Kernel(memory_bytes=128 * MB, thp_enabled=True)
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        _, size = proc.page_table.translate(vma.start)
        assert size == PageSize.SIZE_2M

    def test_unaligned_tail_uses_base_pages(self):
        kernel = Kernel(memory_bytes=128 * MB, thp_enabled=True)
        proc = kernel.create_process()
        vma = proc.mmap(2 * MB + PAGE_SIZE, populate=True)
        assert proc.page_table.translate(vma.start)[1] == PageSize.SIZE_2M
        assert proc.page_table.translate(vma.end - 1)[1] == PageSize.SIZE_4K


class TestTHPPromotion:
    def test_promotable_ranges(self, kernel):
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        ranges = promotable_ranges(proc, vma)
        assert len(ranges) == 2
        assert all(base % (2 * MB) == 0 for base in ranges)

    def test_promote_then_demote_preserves_mapping(self, kernel):
        proc = kernel.create_process()
        vma = proc.mmap(2 * MB, populate=True)
        assert promote(proc, vma.start)
        assert proc.page_table.translate(vma.start)[1] == PageSize.SIZE_2M
        demote(proc, vma.start)
        assert proc.page_table.translate(vma.start)[1] == PageSize.SIZE_4K
        # every page still mapped after the round trip
        for offset in range(0, 2 * MB, PAGE_SIZE):
            assert proc.page_table.translate(vma.start + offset) is not None

    @pytest.mark.parametrize("dmt", [False, True], ids=["plain", "dmt"])
    def test_promote_releases_the_leaf_table(self, dmt):
        """Promotion frees the emptied 4 KB leaf table (to the buddy
        allocator, or back to its TEA under DMT), so a promote + demote
        round trip costs no frame: demote re-creates just that table."""
        kernel = Kernel(memory_bytes=128 * MB)
        if dmt:
            DMTLinux(kernel)
        proc = kernel.create_process()
        vma = proc.mmap(2 * MB, populate=True)
        table = proc.page_table
        alloc = proc.memory.allocator
        leaf = table.table_frame(vma.start, 1)
        assert leaf is not None
        # a buddy-placed table goes back to the allocator; a TEA slot stays
        freed = 0 if dmt else 1
        before = alloc.free_frames
        assert promote(proc, vma.start)
        assert table.table_frame(vma.start, 1) is None
        assert alloc.free_frames == before + freed
        assert table.table_pages == 3
        demote(proc, vma.start)
        assert table.table_frame(vma.start, 1) is not None
        assert alloc.free_frames == before
        if dmt:
            assert table.table_frame(vma.start, 1) == leaf

    def test_huge_map_over_a_live_leaf_table_raises(self, kernel):
        proc = kernel.create_process()
        vma = proc.mmap(2 * MB, populate=True)
        frame = proc.memory.allocator.alloc_pages(9)
        with pytest.raises(ValueError, match="still maps"):
            proc.page_table.map(vma.start, frame, PageSize.SIZE_2M)
        assert proc.page_table.translate(vma.start)[1] == PageSize.SIZE_4K

    def test_khugepaged_pass(self, kernel):
        proc = kernel.create_process()
        proc.mmap(4 * MB, populate=True)
        assert khugepaged_pass(proc) == 2
        assert khugepaged_pass(proc) == 0  # idempotent

    def test_demote_requires_huge_mapping(self, kernel):
        proc = kernel.create_process()
        vma = proc.mmap(2 * MB, populate=True)
        with pytest.raises(ValueError):
            demote(proc, vma.start)


class TestKernel:
    def test_context_switch_hooks(self, kernel):
        switched = []
        kernel.add_context_switch_hook(lambda p: switched.append(p.pid))
        p1 = kernel.create_process()
        p2 = kernel.create_process()
        kernel.context_switch(p2)
        kernel.context_switch(p1)
        assert switched[-2:] == [p2.pid, p1.pid]

    def test_cannot_switch_to_foreign_process(self, kernel):
        other = Kernel(memory_bytes=16 * MB)
        foreign = other.create_process()
        with pytest.raises(ValueError):
            kernel.context_switch(foreign)

    def test_exit_process_releases_everything(self, kernel):
        free_before = kernel.memory.allocator.free_frames
        proc = kernel.create_process()
        proc.mmap(2 * MB, populate=True)
        kernel.exit_process(proc)
        assert kernel.memory.allocator.free_frames == free_before
        assert proc.pid not in kernel.processes

    def test_page_table_bytes_sums_processes(self, kernel):
        p1 = kernel.create_process()
        p2 = kernel.create_process()
        p1.mmap(MB, populate=True)
        p2.mmap(MB, populate=True)
        assert kernel.page_table_bytes() == \
            p1.page_table_bytes() + p2.page_table_bytes()
