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
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis import sanitizer
from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize, align_up
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import (
    PTE_PRESENT,
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
        if memory_bytes >> PAGE_SHIFT > 1 << 31:
            raise ValueError(f"{memory_bytes} bytes of guest memory: guest "
                             f"frame numbers do not fit in 31 bits")
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
        # Reverse of the EPT at 4 KB granularity: host frame -> guest frame,
        # -1 for a host frame backing none of this guest. Lets a reader
        # holding only a host-physical address find the guest word store
        # that owns the bytes (guest memory is a separate domain).
        self._reverse = array("i", [-1]) * hypervisor.host_memory.total_frames
        self._reverse_count = 0  # entries of _reverse that are set
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

    def ensure_backed(self, gfn: int) -> int:
        """Host frame backing guest frame ``gfn``; faults one in if needed."""
        found = self.ept.lookup(gfn << PAGE_SHIFT)
        if found is not None:
            _, pte, size = found
            return pte_frame(pte) + (gfn & ((size.bytes >> PAGE_SHIFT) - 1))
        self.exits.ept_violations += 1
        hfn = self.hypervisor.host_memory.allocator.alloc_pages(0, movable=True)
        self.ept.map(gfn << PAGE_SHIFT, hfn, PageSize.SIZE_4K)
        self._set_reverse((hfn,), (gfn,))
        return hfn

    def backed_frames(self, gfns: Sequence[int]) -> List[int]:
        """Host frames backing the leading guest frames of ``gfns``.

        The first frame is faulted in through :meth:`ensure_backed` if
        it is unbacked; the list then runs up to the next unbacked
        frame, which is left for the caller's next call. A caller that
        writes each list before asking for the next thus sees every
        fault happen after the writes for the frames before it, as a
        per-frame loop would. Reads each EPT last-level table once per
        run of frames inside it.
        """
        hfns = self.ept.leaf_frames(gfns)
        if hfns[0] is None:
            hfns[0] = self.ensure_backed(gfns[0])
        if None in hfns:
            del hfns[hfns.index(None):]
        return hfns

    def fully_backed(self) -> bool:
        """Every guest frame has a host frame, so :meth:`gpa_to_hpa`
        can fault nothing in."""
        return self._reverse_count >= self.memory_bytes >> PAGE_SHIFT

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
        per = page_size.bytes >> PAGE_SHIFT
        # the frames of the last call, entered in the reverse map once the
        # EPT maps them: at the next call, or after the run
        handed: List[Iterable[int]] = [(), ()]

        def host_frames(gpa: int, olds: List[int]) -> List[Optional[int]]:
            self._set_reverse(*handed)
            gfn = gpa >> PAGE_SHIFT
            unbacked = [i for i, old in enumerate(olds)
                        if not old & PTE_PRESENT]
            if per == 1:
                hfns = host_alloc.alloc_run(len(unbacked), movable=True)
                handed[:] = hfns, [gfn + i for i in unbacked]
            else:
                hfns = [host_alloc.alloc_pages(9, movable=True)
                        for _ in unbacked]
                handed[:] = (itertools.chain.from_iterable(
                    range(hfn, hfn + per) for hfn in hfns),
                    itertools.chain.from_iterable(
                        range(gfn + i * per, gfn + (i + 1) * per)
                        for i in unbacked))
            frames: List[Optional[int]] = [None] * len(olds)
            for i, hfn in zip(unbacked, hfns):
                frames[i] = hfn
            return frames

        self.ept.map_run(start, -(-(end - start) // page_size.bytes),
                         page_size, host_frames)
        self._set_reverse(*handed)

    def _set_reverse(self, hfns: Iterable[int], gfns: Iterable[int]) -> None:
        """Record that each host frame of ``hfns`` backs the guest frame
        at the same place in ``gfns``."""
        reverse = self._reverse
        for hfn, gfn in zip(hfns, gfns):
            self._reverse_count += reverse[hfn] < 0
            reverse[hfn] = gfn

    def _clear_reverse(self, hfn: int) -> None:
        """Record that host frame ``hfn`` backs no guest frame."""
        if self._reverse[hfn] >= 0:
            self._reverse_count -= 1
            self._reverse[hfn] = -1

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
            found = self.ept.lookup(gpa)
            if found is not None:
                # The whole leaf goes (a 2 MB leaf unbacks all its guest
                # frames); a host frame's entry is cleared only while it
                # still names the guest frame unmapped here, so a frame
                # this call already entered keeps its entry.
                _, _, size = found
                per = size.bytes >> PAGE_SHIFT
                first_gfn = (base_gfn + i) & ~(per - 1)
                old = self.ept.unmap(gpa)
                for k in range(per):
                    if self._reverse[old + k] == first_gfn + k:
                        self._clear_reverse(old + k)
                if sanitizer.active():
                    sanitizer.release_frames(id(self.hypervisor.host_memory),
                                             old, per)
            self.ept.map(gpa, host_frame + i, PageSize.SIZE_4K)
            self._set_reverse((host_frame + i,), (base_gfn + i,))
        return base_gfn << PAGE_SHIFT

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def reverse_lookup(self, host_frame: int) -> Optional[int]:
        """Guest frame backed by ``host_frame``, if any."""
        if 0 <= host_frame < len(self._reverse):
            gfn = self._reverse[host_frame]
            if gfn >= 0:
                return gfn
        return None

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
