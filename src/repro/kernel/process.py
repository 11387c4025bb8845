"""Processes: an address space plus a hardware-walkable page table.

``Process.populate`` eagerly backs a VMA with physical frames the way the
paper's data-intensive workloads allocate memory at initialization time
(§7); ``Process.touch`` provides demand faulting for finer-grained tests.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.arch import PAGE_SIZE, PageSize, align_down, align_up
from repro.kernel.page_table import (
    PTE_PRESENT,
    RadixPageTable,
    TablePlacementPolicy,
)
from repro.kernel.vma import VMA, AddressSpace
from repro.mem.buddy import OutOfMemoryError
from repro.mem.physmem import PhysicalMemory

_HUGE_ORDER = 9  # 2 MB = 2^9 base frames


class PageFaultError(Exception):
    """Access to an address with no VMA behind it (SIGSEGV analogue)."""


class Process:
    """One simulated user process."""

    _pids = itertools.count(1)

    def __init__(
        self,
        memory: PhysicalMemory,
        levels: int = 4,
        placement: Optional[TablePlacementPolicy] = None,
        thp_enabled: bool = False,
        name: str = "proc",
    ):
        self.pid = next(Process._pids)
        self.name = name
        self.asid = self.pid
        self.memory = memory
        self.thp_enabled = thp_enabled
        self.addr_space = AddressSpace()
        self.page_table = RadixPageTable(
            memory, levels=levels, asid=self.asid, placement=placement
        )

    # ------------------------------------------------------------------ #
    # Memory mapping
    # ------------------------------------------------------------------ #

    def mmap(self, length: int, addr: Optional[int] = None, name: str = "anon",
             populate: bool = False, **kwargs) -> VMA:
        vma = self.addr_space.mmap(length, addr=addr, name=name, **kwargs)
        if populate:
            self.populate(vma)
        return vma

    def munmap(self, start: int, length: int) -> None:
        for vma in self.addr_space.munmap(start, length):
            self._unmap_range(vma.start, vma.end)

    def populate(self, vma: VMA, page_size: Optional[PageSize] = None) -> int:
        """Back every page of ``vma`` with frames; returns pages mapped.

        With THP enabled (and no explicit ``page_size``), 2 MB-aligned
        chunks are mapped with huge pages and the remainder with 4 KB pages,
        matching Linux THP behaviour for large anonymous areas. Pages that
        are mapped already keep their frames.
        """
        huge = PageSize.SIZE_2M.bytes
        start, end = vma.start, vma.end
        if page_size == PageSize.SIZE_2M:
            return self._map_huge_run(start, -(-(end - start) // huge))
        head = tail = end
        if page_size is None and self.thp_enabled:
            head = align_up(start, huge)
            tail = max(head, align_down(end, huge))
        mapped = self._map_base_run(start, min(head, end))
        mapped += self._map_huge_run(head, (tail - head) // huge)
        return mapped + self._map_base_run(tail, end)

    def _base_frames(self, va: int, olds: List[int]) -> List[Optional[int]]:
        """``map_run`` frame source: a fresh frame per unmapped page,
        taken in one ``alloc_run``."""
        frames = iter(self.memory.allocator.alloc_run(
            sum(not old & PTE_PRESENT for old in olds), movable=True))
        return [None if old & PTE_PRESENT else next(frames) for old in olds]

    def _map_base_run(self, start: int, end: int) -> int:
        """Map [start, end) with 4 KB pages; counts every page in it."""
        count = (end - start) // PAGE_SIZE
        if count > 0:
            self.page_table.map_run(start, count, PageSize.SIZE_4K,
                                    self._base_frames)
        return max(count, 0)

    def _map_huge_run(self, start: int, count: int) -> int:
        """Map ``count`` 2 MB pages from ``start``; returns 512 per page
        newly backed. A huge page the allocator cannot supply falls back
        to 512 base pages, as Linux THP does under pressure."""
        mapped = 0

        def huge_frames(va: int, olds: List[int]) -> List[Optional[int]]:
            nonlocal mapped
            frames: List[Optional[int]] = []
            for old in olds:
                if old & PTE_PRESENT:
                    frames.append(None)
                    continue
                try:
                    frames.append(self.memory.allocator.alloc_pages(
                        _HUGE_ORDER, movable=True))
                except OutOfMemoryError:
                    if frames:
                        # the fallback opens the next call, once the
                        # pages before it are written
                        return frames
                    self._map_base_run(va, va + PageSize.SIZE_2M.bytes)
                    frames.append(None)
                mapped += 512
            return frames

        if count > 0:
            self.page_table.map_run(start, count, PageSize.SIZE_2M,
                                    huge_frames)
        return mapped

    def touch(self, va: int, write: bool = False) -> int:
        """Demand-fault ``va`` if needed; returns the physical address."""
        translated = self.page_table.translate(va)
        if translated is None:
            vma = self.addr_space.find(va)
            if vma is None:
                raise PageFaultError(f"{va:#x} is not mapped by any VMA")
            frame = self.memory.allocator.alloc_pages(0, movable=True)
            self.page_table.map(align_down(va, PAGE_SIZE), frame, PageSize.SIZE_4K)
            translated = self.page_table.translate(va)
        self.page_table.set_accessed_dirty(va, dirty=write)
        return translated[0]

    def _unmap_range(self, start: int, end: int) -> None:
        va = start
        while va < end:
            found = self.page_table.lookup(va)
            if found is None:
                va += PAGE_SIZE
                continue
            _, pte, size = found
            frame = self.page_table.unmap(va)
            order = 0 if size == PageSize.SIZE_4K else _HUGE_ORDER
            try:
                self.memory.allocator.free_pages(frame, order)
            except ValueError:
                pass  # frame owned elsewhere (e.g. shared mapping)
            va = align_down(va, size.bytes) + size.bytes

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def resident_pages(self) -> int:
        return self.page_table.mapped_pages

    def page_table_bytes(self) -> int:
        return self.page_table.table_bytes
