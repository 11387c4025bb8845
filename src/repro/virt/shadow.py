"""Shadow paging (§2.1.2, §2.1.3).

The hypervisor maintains a *shadow page table* (sPT) mapping guest virtual
addresses straight to host physical addresses, combining the guest page
table with the gPA->hPA mapping. Translation then costs a native-style
walk, but every guest PTE update must be intercepted and synchronized —
each such write is a VM exit, which is where shadow paging's overhead
comes from. This model counts those exits via the guest page table's write
hook and rebuilds the sPT on demand.

For nested virtualization the same class builds the L2PA->L0PA shadow
table of Figure 3 by composing the two hypervisors' tables.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.arch import PAGE_SHIFT, PageSize
from repro.kernel.page_table import (
    PTE_HUGE,
    PTE_PRESENT,
    LeafCursor,
    RadixPageTable,
    pte_frame,
)
from repro.kernel.process import Process
from repro.virt.hypervisor import VM

#: A run of 4 KB leaves stays inside one 2 MB span.
_SPAN_SHIFT = int(PageSize.SIZE_2M)


class ShadowPager:
    """Maintains an sPT for one guest process."""

    def __init__(self, vm: VM, guest_process: Process):
        self.vm = vm
        self.guest_process = guest_process
        self.spt = RadixPageTable(
            vm.hypervisor.host_memory,
            levels=guest_process.page_table.levels,
            asid=0x2000 + guest_process.asid,
        )
        self._prior_hook = guest_process.page_table.write_hook
        guest_process.page_table.write_hook = self._on_guest_pte_write

    def _on_guest_pte_write(self, pte_addr: int, value: int) -> None:
        # Guest page tables are write-protected under shadow paging: each
        # guest PTE update traps to the hypervisor for sPT synchronization.
        self.vm.exits.shadow_syncs += 1
        if self._prior_hook is not None:
            self._prior_hook(pte_addr, value)

    def detach(self) -> None:
        self.guest_process.page_table.write_hook = self._prior_hook

    # ------------------------------------------------------------------ #
    # Synchronization
    # ------------------------------------------------------------------ #

    def sync(self) -> int:
        """Rebuild the sPT from the current guest PT + EPT state.

        Returns the number of shadow entries installed. A real hypervisor
        does this incrementally on each trapped write; rebuilding before
        simulation gives an identical sPT for the walker. One pass over
        the guest table's leaves, written one sPT leaf table at a time.
        """
        installed = 0
        ept = self.vm.ept.cursor()
        for va, size, gfns in leaf_runs(self.guest_process.page_table):
            if size != PageSize.SIZE_4K:
                # Huge guest page: shadow it hugely only if the host
                # backing is a matching aligned huge EPT leaf; otherwise
                # fracture into 4 KB.
                gfn, frames = gfns[0], size.bytes >> PAGE_SHIFT
                ept_leaf = ept.lookup(gfn << PAGE_SHIFT)
                if ept_leaf is None or ept_leaf[2] != size or gfn % frames:
                    size, gfns = PageSize.SIZE_4K, range(gfn, gfn + frames)
            installed += self._install_run(va, size, gfns, ept)
        return installed

    def _install_run(self, start: int, size: PageSize, gfns,
                     ept: LeafCursor) -> int:
        """Shadow the guest frames ``gfns`` mapped from ``start`` with
        ``size`` pages; entries already correct are left alone."""
        shift = int(size)

        def host_frame(va: int, old: int) -> Optional[int]:
            hfn = self.vm.ensure_backed(gfns[(va - start) >> shift], ept)
            if old & PTE_PRESENT and pte_frame(old) == hfn \
                    and bool(old & PTE_HUGE) == (size != PageSize.SIZE_4K):
                return None
            return hfn

        return self.spt.map_run(start, len(gfns), size, host_frame)


class NestedShadowPager:
    """The L0-maintained sPT of nested virtualization (Figure 3).

    Maps L2-physical addresses to L0-physical addresses by composing the
    L1 hypervisor's table for L2 (L2PA -> L1PA) with the L0 hypervisor's
    table for L1 (L1PA -> L0PA). L1-side page-table updates must be
    intercepted by L0, so writes to the L2 VM's EPT count as L0 exits.
    """

    def __init__(self, l1_vm: VM, l2_vm: VM):
        self.l1_vm = l1_vm  # L0's view of L1
        self.l2_vm = l2_vm  # L1's view of L2 (its ept maps L2PA->L1PA)
        self.spt = RadixPageTable(
            l1_vm.hypervisor.host_memory,
            levels=l2_vm.ept.levels,
            asid=0x3000 + l2_vm.vm_id,
        )
        self._prior_hook = l2_vm.ept.write_hook
        l2_vm.ept.write_hook = self._on_l1_table_write

    def _on_l1_table_write(self, pte_addr: int, value: int) -> None:
        self.l1_vm.exits.shadow_syncs += 1
        if self._prior_hook is not None:
            self._prior_hook(pte_addr, value)

    def detach(self) -> None:
        self.l2_vm.ept.write_hook = self._prior_hook

    def sync(self) -> int:
        """Install an L2PA -> L0PA entry for every 4 KB of L2's backing.

        Each EPT leaf of L2 is fractured to 4 KB: L1->L0 backing is
        rarely contiguous at 2 MB. Returns the entries installed.
        """
        installed = 0
        l1_ept = self.l1_vm.ept.cursor()
        for gpa, size, l1fns in leaf_runs(self.l2_vm.ept):
            if size != PageSize.SIZE_4K:
                l1fns = range(l1fns[0], l1fns[0] + (size.bytes >> PAGE_SHIFT))
            installed += self._install_run(gpa, l1fns, l1_ept)
        return installed

    def _install_run(self, start: int, l1fns, l1_ept: LeafCursor) -> int:
        """Shadow the L1 frames ``l1fns`` backing L2 from ``start`` with
        4 KB entries; entries present already are left alone."""
        def l0_frame(l2pa: int, old: int) -> Optional[int]:
            l0fn = self.l1_vm.ensure_backed(
                l1fns[(l2pa - start) >> PAGE_SHIFT], l1_ept)
            return None if old & PTE_PRESENT else l0fn

        return self.spt.map_run(start, len(l1fns), PageSize.SIZE_4K, l0_frame)


def leaf_runs(table: RadixPageTable) -> Iterator[Tuple[int, PageSize, List[int]]]:
    """``table``'s leaves as ``(va, size, frames)`` runs, by ascending va.

    A run is one huge page, or consecutive 4 KB pages inside one 2 MB
    span (one last-level table of a shadow table built from them), so a
    run never holds more than 512 frames.
    """
    start = None
    frames: List[int] = []
    for va, pte, size in table.leaves():
        if size != PageSize.SIZE_4K:
            if frames:
                yield start, PageSize.SIZE_4K, frames
                frames = []
            yield va, size, [pte_frame(pte)]
            continue
        if frames and (va != start + (len(frames) << PAGE_SHIFT)
                       or va >> _SPAN_SHIFT != start >> _SPAN_SHIFT):
            yield start, PageSize.SIZE_4K, frames
            frames = []
        if not frames:
            start = va
        frames.append(pte_frame(pte))
    if frames:
        yield start, PageSize.SIZE_4K, frames
