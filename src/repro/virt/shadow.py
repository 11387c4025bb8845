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

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.arch import PAGE_SHIFT, PageSize
from repro.kernel.page_table import (
    PTE_HUGE,
    PTE_PRESENT,
    RadixPageTable,
    pte_frame,
)
from repro.kernel.process import Process
from repro.virt.hypervisor import VM


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
        for va, size, gfns in leaf_runs(self.guest_process.page_table):
            if size != PageSize.SIZE_4K:
                # Huge guest page: shadow it hugely only if the host
                # backing is a matching aligned huge EPT leaf; otherwise
                # fracture into 4 KB.
                gfn, frames = gfns[0], size.bytes >> PAGE_SHIFT
                ept_leaf = self.vm.ept.lookup(gfn << PAGE_SHIFT)
                if ept_leaf is None or ept_leaf[2] != size or gfn % frames:
                    size, gfns = PageSize.SIZE_4K, range(gfn, gfn + frames)
            installed += self._install_run(va, size, gfns)
        return installed

    def _install_run(self, start: int, size: PageSize,
                     gfns: Sequence[int]) -> int:
        """Shadow the guest frames ``gfns`` mapped from ``start`` with
        ``size`` pages; entries already correct are left alone."""
        shift = int(size)
        huge = size != PageSize.SIZE_4K

        def host_frames(va: int, olds: List[int]) -> List[Optional[int]]:
            first = (va - start) >> shift
            hfns = self.vm.backed_frames(gfns[first:first + len(olds)])
            return [None if old & PTE_PRESENT and pte_frame(old) == hfn
                    and bool(old & PTE_HUGE) == huge else hfn
                    for old, hfn in zip(olds, hfns)]

        return self.spt.map_run(start, len(gfns), size, host_frames)


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
        for gpa, size, l1fns in leaf_runs(self.l2_vm.ept):
            if size != PageSize.SIZE_4K:
                l1fns = range(l1fns[0], l1fns[0] + (size.bytes >> PAGE_SHIFT))
            installed += self._install_run(gpa, l1fns)
        return installed

    def _install_run(self, start: int, l1fns: Sequence[int]) -> int:
        """Shadow the L1 frames ``l1fns`` backing L2 from ``start`` with
        4 KB entries; entries present already are left alone."""
        def l0_frames(l2pa: int, olds: List[int]) -> List[Optional[int]]:
            first = (l2pa - start) >> PAGE_SHIFT
            l0fns = self.l1_vm.backed_frames(l1fns[first:first + len(olds)])
            return [None if old & PTE_PRESENT else l0fn
                    for old, l0fn in zip(olds, l0fns)]

        return self.spt.map_run(start, len(l1fns), PageSize.SIZE_4K,
                                l0_frames)


def leaf_runs(table: RadixPageTable) -> Iterator[Tuple[int, PageSize, List[int]]]:
    """``table``'s leaves as ``(va, size, frames)`` runs, by ascending va.

    A run is one huge page, or consecutive 4 KB pages inside one
    last-level table (one 2 MB span, so one last-level table of a
    shadow table built from them): a run never holds more than 512
    frames.
    """
    for va, size, ptes in table.leaf_tables():
        if size != PageSize.SIZE_4K:
            yield va, size, [pte_frame(ptes[0])]
            continue
        frames = [pte_frame(pte) if pte & PTE_PRESENT else None
                  for pte in ptes]
        start = 0
        for index, frame in enumerate(frames + [None]):
            if frame is None:
                if index > start:
                    yield va + (start << PAGE_SHIFT), size, frames[start:index]
                start = index + 1
