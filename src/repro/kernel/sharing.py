"""Page sharing: fork with copy-on-write and shared mappings.

The paper states DMT "supports all existing virtual memory features, such
as huge pages and page sharing" (§1): sharing is naturally compatible
because DMT adds no PTE copies — each process's last-level PTEs live in
its own TEAs, and shared *frames* are referenced from several processes'
PTEs exactly as on vanilla Linux. This module provides the substrate to
demonstrate that:

* a frame reference counter (``FrameRefs``);
* ``fork`` — clone a process's address space, write-protecting both
  sides' PTEs for copy-on-write;
* ``share_mapping`` — map one process's populated region into another
  (shmem/mmap-SHARED analogue);
* ``cow_fault`` — the write-fault handler that splits a shared frame.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize, align_down
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import (
    PTE_PRESENT,
    PTE_WRITE,
    pte_frame,
)
from repro.kernel.process import Process, _HUGE_ORDER
from repro.kernel.vma import VMA


class FrameRefs:
    """Reference counts for shared data frames (struct page refcounts)."""

    def __init__(self):
        self._refs: Dict[int, int] = {}

    def get(self, frame: int) -> int:
        return self._refs.get(frame, 1)

    def inc(self, frame: int) -> int:
        self._refs[frame] = self._refs.get(frame, 1) + 1
        return self._refs[frame]

    def dec(self, frame: int) -> int:
        count = self._refs.get(frame, 1) - 1
        if count <= 1:
            self._refs.pop(frame, None)
            return max(count, 0)
        self._refs[frame] = count
        return count

    def is_shared(self, frame: int) -> bool:
        return self._refs.get(frame, 1) > 1


class SharingManager:
    """fork / COW / shared mappings for one kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.refs = FrameRefs()
        self.cow_faults = 0
        self.forks = 0

    # ------------------------------------------------------------------ #
    # fork + COW
    # ------------------------------------------------------------------ #

    def fork(self, parent: Process, name: Optional[str] = None) -> Process:
        """Clone ``parent``: same VMAs, shared frames, both sides COW.

        The child's page table (and hence its TEAs, when DMT-Linux is
        attached) is brand new — only the *data frames* are shared.
        """
        self.forks += 1
        child = self.kernel.create_process(name or f"{parent.name}-child")
        for vma in parent.addr_space.vmas():
            child.mmap(vma.size, addr=vma.start, name=vma.name,
                       writable=vma.writable, file_backed=vma.file_backed)
        for base_va, pte, size in parent.page_table.leaves():
            slot = parent.page_table.lookup(base_va)[0]
            frame = pte_frame(pte)
            # write-protect the parent's PTE and mirror it in the child
            if pte & PTE_WRITE:
                parent.page_table.memory.write_word(slot, pte & ~PTE_WRITE)
            flags = (pte | PTE_PRESENT) & ~PTE_WRITE
            child.page_table.map(base_va, frame, size,
                                 flags=flags & ((1 << PAGE_SHIFT) - 1))
            self.refs.inc(frame)
        return child

    def cow_fault(self, process: Process, va: int) -> int:
        """Handle a write fault on a COW page; returns the writable frame."""
        found = process.page_table.lookup(va)
        if found is None:
            raise KeyError(f"{va:#x} is not mapped")
        slot, pte, size = found
        frame = pte_frame(pte)
        if pte & PTE_WRITE:
            return frame
        self.cow_faults += 1
        if not self.refs.is_shared(frame):
            # last reference: just restore write permission
            process.page_table.memory.write_word(slot, pte | PTE_WRITE)
            return frame
        order = 0 if size == PageSize.SIZE_4K else _HUGE_ORDER
        new_frame = self.kernel.memory.allocator.alloc_pages(order, movable=True)
        base = align_down(va, size.bytes)
        process.page_table.unmap(base, size)
        process.page_table.map(base, new_frame, size)
        self.refs.dec(frame)
        return new_frame

    def write(self, process: Process, va: int) -> int:
        """A store instruction: resolves COW, returns the physical address."""
        self.cow_fault(process, va)
        translated = process.page_table.translate(va)
        assert translated is not None
        return translated[0]

    # ------------------------------------------------------------------ #
    # Shared (non-COW) mappings
    # ------------------------------------------------------------------ #

    def share_mapping(self, source: Process, source_vma: VMA,
                      target: Process, addr: Optional[int] = None,
                      name: str = "shm") -> VMA:
        """Map ``source_vma``'s frames into ``target`` (MAP_SHARED).

        Both processes keep independent PTEs (in their own TEAs under
        DMT); only the frames are common, so stores are visible to both
        without faults.
        """
        target_vma = target.mmap(source_vma.size, addr=addr, name=name,
                                 file_backed=True)
        offset = 0
        while offset < source_vma.size:
            found = source.page_table.lookup(source_vma.start + offset)
            if found is None:
                offset += PAGE_SIZE
                continue
            _, pte, size = found
            frame = pte_frame(pte)
            target.page_table.map(target_vma.start + offset, frame, size)
            self.refs.inc(frame)
            offset += size.bytes
        return target_vma

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def release_range(self, process: Process, start: int, length: int) -> None:
        """munmap-with-refcounts: frames are freed only at refcount zero."""
        va = start
        end = start + length
        while va < end:
            found = process.page_table.lookup(va)
            if found is None:
                va += PAGE_SIZE
                continue
            _, pte, size = found
            frame = process.page_table.unmap(va)
            if self.refs.dec(frame) == 0:
                try:
                    order = 0 if size == PageSize.SIZE_4K else _HUGE_ORDER
                    self.kernel.memory.allocator.free_pages(frame, order)
                except ValueError:
                    pass  # another owner freed it, or it was never counted
            va = align_down(va, size.bytes) + size.bytes
        process.addr_space.munmap(start, length)
