"""pvDMT: paravirtualized TEA allocation (§3.1, §4.5).

Under pvDMT the *host* allocates every guest TEA in host-contiguous
physical memory and maps it into the guest, so a nested translation needs
only two memory references (three for nested virtualization). The pieces:

* :class:`GTEATable` — the host-maintained, guest-read-only table listing
  each gTEA's base address in host physical memory and its size. The DMT
  fetcher resolves the register's gTEA ID through this table; a guest can
  therefore only ever point the MMU at its own TEAs (§4.5.2).
* :class:`PvDMTHost` — the ``KVM_HC_ALLOC_TEA`` handler: allocates
  host-contiguous frames (splitting when contiguity fails), maps them into
  guest-physical space and fills the gTEA table. For nested setups the
  handler forwards allocation upstream so even L2 TEAs are L0-contiguous
  (§4.5.3).
* :class:`PvTEAAllocator` — an allocator adapter that lets the guest's
  ordinary :class:`~repro.core.tea.TEAManager` obtain its TEAs through the
  hypercall instead of the guest buddy allocator.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.analysis import sanitizer
from repro.arch import PAGE_SHIFT, PageSize
from repro.core.costs import ManagementLedger
from repro.mem.buddy import ContiguityError
from repro.virt.hypercall import (
    GTEAEntry,
    HypercallResult,
    TEARequest,
    hypercall_latency_us,
    tea_alloc_latency_ms,
)
from repro.virt.hypervisor import VM


class IsolationViolation(Exception):
    """A guest pointed the DMT fetcher outside its own TEAs (§4.5.2).

    Raised where real hardware would deliver a page fault to the host.
    """


class GTEATable:
    """Host-maintained table of a guest's TEAs (read-only to the guest)."""

    def __init__(self, vm: VM):
        self.vm = vm
        self._entries: Dict[int, GTEAEntry] = {}
        self._ids = itertools.count(0)
        # The table itself occupies host memory; its base address is part
        # of the guest register state (Figure 13).
        self.table_frame = vm.hypervisor.host_memory.allocator.alloc_pages(
            0, movable=False
        )

    def add(self, host_base_frame: int, npages: int, gpa_base: int,
            vma_base: int, page_size_shift: int = 12) -> GTEAEntry:
        entry = GTEAEntry(
            gtea_id=next(self._ids),
            host_base_frame=host_base_frame,
            npages=npages,
            gpa_base=gpa_base,
            vma_base=vma_base,
            page_size_shift=page_size_shift,
        )
        self._entries[entry.gtea_id] = entry
        return entry

    def remove(self, gtea_id: int) -> None:
        self._entries.pop(gtea_id, None)

    def get(self, gtea_id: Optional[int]) -> GTEAEntry:
        """Resolve a register's gTEA ID; invalid IDs fault to the host."""
        if gtea_id is None or gtea_id not in self._entries:
            raise IsolationViolation(f"invalid gTEA id {gtea_id!r}")
        return self._entries[gtea_id]

    def resolve_pte_addr(self, gtea_id: Optional[int], offset_bytes: int) -> int:
        """Host-physical PTE address for an offset into a gTEA.

        Bounds-checked: an out-of-range offset is a host page fault, never
        an access to other host memory (§4.5.2).
        """
        entry = self.get(gtea_id)
        if not 0 <= offset_bytes < (entry.npages << PAGE_SHIFT):
            raise IsolationViolation(
                f"offset {offset_bytes:#x} outside gTEA {entry.gtea_id} "
                f"({entry.npages} pages)"
            )
        return (entry.host_base_frame << PAGE_SHIFT) + offset_bytes

    def entries(self) -> List[GTEAEntry]:
        return list(self._entries.values())


class PvDMTHost:
    """The hypervisor side of pvDMT: ``KVM_HC_ALLOC_TEA`` handling."""

    def __init__(
        self,
        vm: VM,
        ledger: Optional[ManagementLedger] = None,
        upstream: Optional["PvTEAAllocator"] = None,
        nested: bool = False,
    ):
        self.vm = vm
        self.gtea_table = GTEATable(vm)
        self.ledger = ledger or ManagementLedger()
        #: In nested setups, the L1 handler forwards allocations to L0 via
        #: its own PvTEAAllocator so every TEA is L0-contiguous (§4.5.3).
        self.upstream = upstream
        self.nested = nested
        self.hypercalls = 0
        self.total_latency_us = 0.0

    def _alloc_host_contig(self, npages: int) -> tuple:
        """(local host frame, machine-level (L0) frame) for a TEA block."""
        if self.upstream is not None:
            local_frame, l0_frame = self.upstream.alloc_contig_chained(npages)
            return local_frame, l0_frame
        frame = self.vm.hypervisor.host_memory.allocator.alloc_contig(
            npages, movable=False
        )
        return frame, frame

    def handle_alloc_tea(self, requests: List[TEARequest]) -> HypercallResult:
        """Serve one ``KVM_HC_ALLOC_TEA`` hypercall (§4.5.1).

        Splits any request the contiguous allocator cannot satisfy as-is
        and returns the materialized gTEA array. One VM exit per call.
        """
        self.vm.exits.hypercalls += 1
        self.hypercalls += 1
        latency_us = hypercall_latency_us(nested=self.nested)
        entries: List[GTEAEntry] = []
        for request in requests:
            entries.extend(self._serve_one(request))
            latency_us += tea_alloc_latency_ms(
                request.npages << PAGE_SHIFT, nested=self.nested
            ) * 1000.0
        self.total_latency_us += latency_us
        self.ledger.record("tea_create", extra_us=latency_us, detail="hypercall")
        return HypercallResult(entries=entries, latency_us=latency_us)

    def _serve_one(self, request: TEARequest, offset_pages: int = 0) -> List[GTEAEntry]:
        npages = request.npages - offset_pages
        if npages <= 0:
            return []
        try:
            local_frame, l0_frame = self._alloc_host_contig(npages)
        except ContiguityError:
            if npages == 1:
                raise
            # the host splits the request when contiguity is unavailable
            half = npages // 2
            first = self._serve_one(
                TEARequest(request.vma_base, offset_pages + half,
                           request.page_size_shift),
                offset_pages,
            )
            rest = self._serve_one(request, offset_pages + half)
            return first + rest
        gpa_base = self.vm.map_host_frames(local_frame, npages)
        granule = 1 << (request.page_size_shift + 9)
        entry = self.gtea_table.add(
            host_base_frame=l0_frame,
            npages=npages,
            gpa_base=gpa_base,
            vma_base=request.vma_base + offset_pages * granule,
            page_size_shift=request.page_size_shift,
        )
        return [entry]


class PvTEAAllocator:
    """Allocator adapter: guest TEAs come from the hypercall, not the buddy.

    Duck-types the slice of the :class:`BuddyAllocator` interface that
    :class:`~repro.core.tea.TEAManager` uses, but every ``alloc_contig``
    issues ``KVM_HC_ALLOC_TEA``. Returned "frames" are guest-physical
    frames, already EPT-backed by host-contiguous memory, so the guest
    kernel's placement and PTE writes proceed without further VM exits.
    """

    def __init__(self, host_handler: PvDMTHost, page_size: PageSize = PageSize.SIZE_4K):
        self.host_handler = host_handler
        self.page_size = page_size
        self._entries_by_gfn: Dict[int, GTEAEntry] = {}
        self.stats = None  # TEAManager never touches allocator stats

    # -- TEAManager-facing interface ----------------------------------- #

    def alloc_contig(self, npages: int, movable: bool = False) -> int:
        result = self.host_handler.handle_alloc_tea(
            [TEARequest(vma_base=0, npages=npages,
                        page_size_shift=int(self.page_size))]
        )
        base_entry = result.entries[0]
        if len(result.entries) > 1:
            # Host split the area: the guest-side TEAManager expected one
            # block; report contiguity failure so it splits its mapping too
            # (both halves were mapped; free them and let retry occur).
            for entry in result.entries:
                self._release_entry(entry)
            raise ContiguityError(f"host split a {npages}-page gTEA request")
        gfn = base_entry.gpa_base >> PAGE_SHIFT
        self._entries_by_gfn[gfn] = base_entry
        return gfn

    def alloc_contig_chained(self, npages: int) -> tuple:
        """For nested forwarding: returns (local gfn, machine L0 frame)."""
        gfn = self.alloc_contig(npages)
        return gfn, self._entries_by_gfn[gfn].host_base_frame

    def free_contig(self, frame: int, npages: int) -> None:
        entry = self._entries_by_gfn.pop(frame, None)
        if entry is None:
            raise ValueError(f"gfn {frame} is not a gTEA base")
        self._release_entry(entry)

    def expand_contig(self, frame: int, npages: int, extra: int) -> bool:
        # In-place growth would require both host-physical and
        # guest-physical adjacency; the hypercall path always allocates a
        # fresh area and migrates (§4.5.1 forwards TEA ops to the host).
        return False

    def shrink_contig(self, frame: int, npages: int, new_npages: int) -> None:
        # Keep the host block; only the guest-side span shrinks. A real
        # implementation would notify the host; the waste is bounded and
        # accounted as TEA memory.
        return None

    def _release_entry(self, entry: GTEAEntry) -> None:
        self.host_handler.gtea_table.remove(entry.gtea_id)
        if self.host_handler.upstream is None:
            host_memory = self.host_handler.vm.hypervisor.host_memory
            host_memory.allocator.free_contig(
                entry.host_base_frame, entry.npages
            )
            if sanitizer.active():
                sanitizer.release_frames(id(host_memory),
                                         entry.host_base_frame, entry.npages)

    # -- pvDMT bookkeeping --------------------------------------------- #

    def gtea_id_for(self, base_gfn: int) -> Optional[int]:
        entry = self._entries_by_gfn.get(base_gfn)
        return entry.gtea_id if entry is not None else None
