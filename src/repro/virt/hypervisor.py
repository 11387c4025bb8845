"""Hypervisor and VM model (KVM-style hardware-assisted virtualization).

A :class:`VM` owns a guest-physical memory domain with its own guest
:class:`~repro.kernel.kernel.Kernel` running inside it. The hypervisor
maintains a *host page table* per guest (the EPT/nPT of §2.1.2): a radix
table over host physical memory mapping guest frame numbers to host frames.
Per §4.5, the hypervisor represents the whole guest physical space as a
single host VMA, which is exactly the granularity host-side DMT maps.

Guest-physical pages are backed lazily: the first touch of an unbacked
guest frame raises an EPT violation, which the hypervisor services by
allocating a host frame (counted as a VM exit).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis import sanitizer
from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize, align_up
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import (
    PTE_PRESENT,
    LeafCursor,
    RadixPageTable,
    TablePlacementPolicy,
    pte_frame,
)
from repro.kernel.vma import VMA
from repro.mem.physmem import PhysicalMemory


@dataclass
class VMExitStats:
    """VM-exit accounting, by reason."""

    ept_violations: int = 0
    hypercalls: int = 0
    shadow_syncs: int = 0
    external: int = 0

    @property
    def total(self) -> int:
        return self.ept_violations + self.hypercalls + self.shadow_syncs + self.external


class EPTViolation(Exception):
    """Guest-physical access with no host backing and no handler."""


class VM:
    """One guest virtual machine."""

    _ids = itertools.count(1)

    def __init__(
        self,
        hypervisor: "Hypervisor",
        memory_bytes: int,
        thp_enabled: bool = False,
        levels: int = 4,
        ept_placement: Optional[TablePlacementPolicy] = None,
        name: Optional[str] = None,
    ):
        self.vm_id = next(VM._ids)
        self.name = name or f"vm{self.vm_id}"
        self.hypervisor = hypervisor
        self.memory_bytes = memory_bytes
        self.exits = VMExitStats()
        # Guest-physical domain with its own allocator + word store.
        self.guest_memory = PhysicalMemory(memory_bytes)
        self.guest_kernel = Kernel(
            memory=self.guest_memory, levels=levels,
            thp_enabled=thp_enabled, name=f"{self.name}-guest",
        )
        # Host page table for this guest (EPT): "virtual" addresses are gPAs.
        self.ept = RadixPageTable(
            hypervisor.host_memory, levels=levels,
            asid=0x1000 + self.vm_id, placement=ept_placement,
        )
        # Reverse of the EPT at 4 KB granularity: host frame -> guest frame.
        # Lets a reader holding only a host-physical address find the guest
        # word store that owns the bytes (guest memory is a separate domain).
        self._reverse: Dict[int, int] = {}
        # The single host VMA standing for guest physical memory (§4.5).
        self.backing_vma: VMA = hypervisor.host_process_for(self).addr_space.mmap(
            memory_bytes, name=f"{self.name}-guest-physmem"
        )

    def gpa_space_vma(self) -> VMA:
        """A VMA describing the whole guest-physical space in gPA
        coordinates — what host-side DMT maps to a host TEA (§4.5)."""
        return VMA(0, self.memory_bytes, name=f"{self.name}-gpa-space")

    # ------------------------------------------------------------------ #
    # Guest-physical <-> host-physical
    # ------------------------------------------------------------------ #

    def ensure_backed(self, gfn: int, ept: Optional[LeafCursor] = None) -> int:
        """Host frame backing guest frame ``gfn``; faults one in if needed.

        ``ept`` is an optional cursor over :attr:`ept` for callers that
        resolve many nearby frames in a row.
        """
        found = (ept or self.ept).lookup(gfn << PAGE_SHIFT)
        if found is not None:
            _, pte, size = found
            return pte_frame(pte) + (gfn & ((size.bytes >> PAGE_SHIFT) - 1))
        self.exits.ept_violations += 1
        hfn = self.hypervisor.host_memory.allocator.alloc_pages(0, movable=True)
        self.ept.map(gfn << PAGE_SHIFT, hfn, PageSize.SIZE_4K)
        self._reverse[hfn] = gfn
        return hfn

    def gpa_to_hpa(self, gpa: int) -> int:
        hfn = self.ensure_backed(gpa >> PAGE_SHIFT)
        return (hfn << PAGE_SHIFT) | (gpa & (PAGE_SIZE - 1))

    def back_range(self, gpa_start: int, nbytes: int,
                   page_size: PageSize = PageSize.SIZE_4K) -> None:
        """Eagerly back a guest-physical range (pre-touch at VM setup).

        With ``page_size == SIZE_2M`` the host backs the range with 2 MB EPT
        leaves — host THP for guest memory — except in 2 MB regions that
        already hold 4 KB EPT leaves, and at unaligned ends. Guest frames
        backed already keep their host frames.
        """
        end = gpa_start + nbytes
        huge = PageSize.SIZE_2M.bytes
        if page_size != PageSize.SIZE_2M:
            self._back_run(gpa_start, end, PageSize.SIZE_4K)
            return
        gpa = min(end, align_up(gpa_start, huge))
        self._back_run(gpa_start, gpa, PageSize.SIZE_4K)
        while gpa + huge <= end:
            # 4 KB leaves where the EPT has a last-level table already
            size = PageSize.SIZE_2M if self.ept.table_frame(gpa, 1) is None \
                else PageSize.SIZE_4K
            self._back_run(gpa, gpa + huge, size)
            gpa += huge
        self._back_run(gpa, end, PageSize.SIZE_4K)

    def _back_run(self, start: int, end: int, page_size: PageSize) -> None:
        """Back the unbacked ``page_size`` pages of [start, end)."""
        if end <= start:
            return
        host_alloc = self.hypervisor.host_memory.allocator
        order = 9 if page_size == PageSize.SIZE_2M else 0

        def host_frame(gpa: int, old: int) -> Optional[int]:
            if old & PTE_PRESENT:
                return None
            hfn = host_alloc.alloc_pages(order, movable=True)
            gfn = gpa >> PAGE_SHIFT
            for i in range(1 << order):
                self._reverse[hfn + i] = gfn + i
            return hfn

        self.ept.map_run(start, -(-(end - start) // page_size.bytes),
                         page_size, host_frame)

    # dmtlint-domain: return=gpa -- takes host frames, returns the base gPA
    def map_host_frames(self, host_frame: int, npages: int) -> int:
        """Map ``npages`` host frames into fresh guest-physical space.

        This is the ``vm_insert_pages`` path used by ``KVM_HC_ALLOC_TEA``
        (§4.6.2): the returned gPA region is backed by the given
        host-contiguous frames, so the guest can write PTEs into its TEAs
        without further VM exits. Returns the base gPA.
        """
        base_gfn = self.guest_memory.allocator.alloc_contig(npages, movable=False)
        if sanitizer.active():
            # §4.5.2: a host frame backing one guest's TEAs must never be
            # inserted into a second guest of the same host domain.
            sanitizer.claim_frames(id(self.hypervisor.host_memory),
                                   host_frame, npages, self.vm_id)
        for i in range(npages):
            gpa = (base_gfn + i) << PAGE_SHIFT
            if self.ept.lookup(gpa) is not None:
                old = self.ept.unmap(gpa)
                self._reverse.pop(old, None)
                if old is not None and sanitizer.active():
                    sanitizer.release_frames(id(self.hypervisor.host_memory),
                                             old, 1)
            self.ept.map(gpa, host_frame + i, PageSize.SIZE_4K)
            self._reverse[host_frame + i] = base_gfn + i
        return base_gfn << PAGE_SHIFT

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def reverse_lookup(self, host_frame: int) -> Optional[int]:
        """Guest frame backed by ``host_frame``, if any."""
        return self._reverse.get(host_frame)

    def backed_pages(self) -> int:
        return self.ept.mapped_pages


class Hypervisor:
    """KVM-like hypervisor living inside a host kernel."""

    def __init__(self, host_kernel: Kernel):
        self.host_kernel = host_kernel
        self.vms: Dict[int, VM] = {}
        self._host_procs: Dict[int, object] = {}

    @property
    def host_memory(self) -> PhysicalMemory:
        return self.host_kernel.memory

    def host_process_for(self, vm: VM):
        """The host process (QEMU analogue) owning a VM's backing VMA."""
        proc = self._host_procs.get(vm.vm_id)
        if proc is None:
            proc = self.host_kernel.create_process(name=f"qemu-{vm.name}")
            self._host_procs[vm.vm_id] = proc
        return proc

    def create_vm(
        self,
        memory_bytes: int,
        thp_enabled: bool = False,
        levels: int = 4,
        ept_placement: Optional[TablePlacementPolicy] = None,
        name: Optional[str] = None,
    ) -> VM:
        vm = VM(
            self, memory_bytes, thp_enabled=thp_enabled, levels=levels,
            ept_placement=ept_placement, name=name,
        )
        self.vms[vm.vm_id] = vm
        return vm

    def destroy_vm(self, vm: VM) -> None:
        self.vms.pop(vm.vm_id, None)
