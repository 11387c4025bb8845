"""Flattened Page Tables (FPT) — comparison design (§6.2.1).

Park et al. (ASPLOS'22) flatten the radix tree by merging adjacent levels:
L4 with L3 and L2 with L1, giving 2 MB table nodes indexed by 18 VA bits.
A native walk takes two references; a virtualized walk (guest and host
both flattened) takes eight — each of the two guest fetches needs a
two-step host resolution, plus two more for the data page.

Huge (2 MB) pages use FPT's *partial flattening*: the merged L4L3 root
still resolves the region, but 2 MB PTEs live in a dense, ordinary
L2-style table (one 4 KB page per 1 GB region) instead of the flattened
leaf. A walk probes the flattened 4 KB leaf slot and the dense huge slot
in parallel; the PS bit disambiguates and the valid probe completes the
translation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.arch import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    PageSize,
    level_index,
    page_offset,
)
from repro.kernel.page_table import PTE_HUGE, PTE_PRESENT, make_pte, pte_frame
from repro.mem.physmem import PhysicalMemory, frame_to_addr
from repro.translation.base import (
    BatchSpec,
    MemorySubsystem,
    Walker,
    WalkRecorder,
    WalkResult,
)
from repro.virt.hypervisor import VM

_FLAT_BITS = 18               # two merged 9-bit levels
_FLAT_ENTRIES = 1 << _FLAT_BITS
_FLAT_PAGES = _FLAT_ENTRIES * 8 // PAGE_SIZE   # 512 pages = 2 MB per node


class FlattenedPageTable:
    """A two-level flattened page table over one memory domain."""

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory
        self.root_frame = memory.allocator.alloc_contig(_FLAT_PAGES, movable=False)
        # upper index -> leaf node frame
        self._leaves: Dict[int, int] = {}
        # upper index -> dense 2 MB-PTE table frame (partial flattening)
        self._huge_tables: Dict[int, int] = {}
        self.mapped = 0

    # -- index arithmetic ---------------------------------------------- #

    # dmtlint-domain: va=any -- the host FPT indexes this table by gPA
    @staticmethod
    def upper_index(va: int) -> int:
        return (va >> int(PageSize.SIZE_1G)) & (_FLAT_ENTRIES - 1)   # VA[47:30]

    @staticmethod
    def lower_index(va: int) -> int:
        return (va >> PAGE_SHIFT) & (_FLAT_ENTRIES - 1)   # VA[29:12]

    # dmtlint-domain: va=any -- the host FPT resolves gPAs through here
    def root_entry_addr(self, va: int) -> int:
        return frame_to_addr(self.root_frame) + self.upper_index(va) * 8

    # dmtlint-domain: va=any -- the host FPT resolves gPAs through here
    def leaf_entry_addr(self, leaf_frame: int, va: int,
                        page_size: PageSize = PageSize.SIZE_4K) -> int:
        if page_size == PageSize.SIZE_2M:
            raise ValueError("huge entries live in the dense huge table")
        return frame_to_addr(leaf_frame) + self.lower_index(va) * 8

    # dmtlint-domain: va=any -- the host FPT resolves gPAs through here
    def huge_entry_addr(self, huge_frame: int, va: int) -> int:
        """Entry address in the dense per-region 2 MB table (VA[29:21])."""
        return frame_to_addr(huge_frame) + level_index(va, 2) * PTE_SIZE

    # -- mapping API ----------------------------------------------------- #

    def _leaf_for(self, va: int, create: bool) -> Optional[int]:
        index = self.upper_index(va)
        frame = self._leaves.get(index)
        if frame is None and create:
            frame = self.memory.allocator.alloc_contig(_FLAT_PAGES, movable=False)
            self._leaves[index] = frame
            self.memory.write_word(self.root_entry_addr(va), make_pte(frame))
        return frame

    # dmtlint-domain: va=any -- the host FPT resolves gPAs through here
    def _huge_for(self, va: int, create: bool) -> Optional[int]:
        index = self.upper_index(va)
        frame = self._huge_tables.get(index)
        if frame is None and create:
            frame = self.memory.allocator.alloc_pages(0, movable=False)
            self._huge_tables[index] = frame
        return frame

    def map(self, va: int, pfn: int, page_size: PageSize = PageSize.SIZE_4K) -> None:
        if page_size == PageSize.SIZE_1G:
            raise ValueError("FPT models 4 KB and 2 MB pages only")
        if page_size == PageSize.SIZE_2M:
            huge = self._huge_for(va, create=True)
            self._leaf_for(va, create=True)  # region node exists either way
            self.memory.write_word(self.huge_entry_addr(huge, va),
                                   (pfn << PAGE_SHIFT) | PTE_PRESENT | PTE_HUGE | 0x2)
        else:
            leaf = self._leaf_for(va, create=True)
            self.memory.write_word(self.leaf_entry_addr(leaf, va),
                                   (pfn << PAGE_SHIFT) | PTE_PRESENT | 0x2)
        self.mapped += 1

    def unmap(self, va: int, page_size: PageSize = PageSize.SIZE_4K) -> None:
        if page_size == PageSize.SIZE_2M:
            huge = self._huge_for(va, create=False)
            if huge is not None:
                self.memory.write_word(self.huge_entry_addr(huge, va), 0)
                self.mapped -= 1
            return
        leaf = self._leaf_for(va, create=False)
        if leaf is not None:
            self.memory.write_word(self.leaf_entry_addr(leaf, va), 0)
            self.mapped -= 1

    def translate(self, va: int) -> Optional[Tuple[int, PageSize]]:
        leaf = self._leaf_for(va, create=False)
        if leaf is not None:
            pte = self.memory.read_word(self.leaf_entry_addr(leaf, va))
            if pte & PTE_PRESENT and not pte & PTE_HUGE:
                return (pte_frame(pte) << PAGE_SHIFT) + page_offset(va), \
                    PageSize.SIZE_4K
        huge = self._huge_for(va, create=False)
        if huge is not None:
            pte = self.memory.read_word(self.huge_entry_addr(huge, va))
            if pte & PTE_PRESENT and pte & PTE_HUGE:
                size = PageSize.SIZE_2M
                return (pte_frame(pte) << PAGE_SHIFT) + (va & (size.bytes - 1)), size
        return None

    def load_from_radix(self, page_table) -> int:
        """Mirror a radix page table's 4 KB and 2 MB leaf mappings, one
        leaf table at a time; the same memory as :meth:`map` per page in
        va order. A 4 KB leaf table's 512 entries are consecutive in one
        flat leaf, so they go there in one write."""
        count = 0
        for va, size, ptes in page_table.leaf_tables():
            if size == PageSize.SIZE_2M:
                self.map(va, pte_frame(ptes[0]), size)
                count += 1
            elif size == PageSize.SIZE_4K:
                values = [(pte_frame(pte) << PAGE_SHIFT) | PTE_PRESENT | 0x2
                          if pte & PTE_PRESENT else None for pte in ptes]
                mapped = len(values) - values.count(None)
                if mapped:
                    leaf = self._leaf_for(va, create=True)
                    self.memory.write_words(self.leaf_entry_addr(leaf, va),
                                            values)
                    self.mapped += mapped
                    count += mapped
        return count

    def table_bytes(self) -> int:
        return ((1 + len(self._leaves)) * _FLAT_PAGES + len(self._huge_tables)) \
            * PAGE_SIZE


class FPTNativeWalker(Walker):
    """Native FPT: two sequential references (Table 6)."""

    name = "fpt-native"

    def __init__(self, fpt: FlattenedPageTable, memsys: MemorySubsystem,
                 probe_huge: bool = False):
        super().__init__(memsys)
        self.fpt = fpt
        self.probe_huge = probe_huge

    def batch_spec(self) -> Optional[BatchSpec]:
        return BatchSpec(kind="fpt-native", fpt=self.fpt,
                         probe_huge=self.probe_huge)

    def _leaf_probe(self, leaf_frame: int, va: int, rec: WalkRecorder,
                    group: int, tag: str) -> Optional[Tuple[int, PageSize]]:
        """Probe the merged leaf node; with huge pages two slots are probed
        in parallel and the one holding the valid PTE completes the
        translation (the loser costs bandwidth, not latency)."""
        probes = [(self.fpt.leaf_entry_addr(leaf_frame, va), PageSize.SIZE_4K)]
        if self.probe_huge:
            huge = self.fpt._huge_for(va, create=False)
            if huge is not None:
                probes.append((self.fpt.huge_entry_addr(huge, va),
                               PageSize.SIZE_2M))
        hit = None
        hit_addr = None
        for addr, size in probes:
            pte = self.fpt.memory.read_word(addr)
            if pte & PTE_PRESENT and bool(pte & PTE_HUGE) == (size != PageSize.SIZE_4K):
                hit = ((pte_frame(pte) << PAGE_SHIFT) + (va & (size.bytes - 1)), size)
                hit_addr = addr
        for addr, size in probes:
            if hit_addr is None:
                rec.fetch_grouped(addr, f"{tag}{size.name}", group=group)
            elif addr == hit_addr:
                rec.fetch_grouped(addr, f"{tag}{size.name}", group=group)
            else:
                rec.memsys.caches.probe(addr)  # background probe
        return hit

    def translate(self, va: int) -> WalkResult:
        rec = WalkRecorder(self.memsys)
        rec.fetch(self.fpt.root_entry_addr(va), "F-root")
        leaf = self.fpt._leaves.get(self.fpt.upper_index(va))
        if leaf is None:
            return self.record(WalkResult(va, rec.finish(), rec.refs, None))
        hit = self._leaf_probe(leaf, va, rec, group=1, tag="F-leaf-")
        pa, size = hit if hit else (None, PageSize.SIZE_4K)
        return self.record(WalkResult(va, rec.finish(), rec.refs, pa, size))


class FPTNestedWalker(Walker):
    """Virtualized FPT: eight sequential references (Table 6).

    Both dimensions are flattened: resolving each guest node costs a
    two-step host walk, the guest fetch itself is one more, and the final
    data gPA needs another two-step host walk: 3 + 3 + 2 = 8.
    """

    name = "fpt-nested"

    def __init__(
        self,
        guest_fpt: FlattenedPageTable,
        host_fpt: FlattenedPageTable,
        vm: VM,
        memsys: MemorySubsystem,
        probe_huge: bool = False,
    ):
        super().__init__(memsys)
        self.guest_fpt = guest_fpt
        self.host_fpt = host_fpt
        self.vm = vm
        self.probe_huge = probe_huge

    def batch_spec(self) -> Optional[BatchSpec]:
        return BatchSpec(kind="fpt-nested", fpt=self.guest_fpt,
                         host_fpt=self.host_fpt, vm=self.vm,
                         probe_huge=self.probe_huge)

    _group_seq = 100  # grouped host-leaf probes need distinct group ids

    def _host_resolve(self, gpa: int, rec: WalkRecorder, tag: str) -> Optional[int]:
        """gPA -> hPA via the host FPT: two references."""
        rec.fetch(self.host_fpt.root_entry_addr(gpa), f"h{tag}-root")
        leaf = self.host_fpt._leaves.get(self.host_fpt.upper_index(gpa))
        if leaf is None:
            return None
        FPTNestedWalker._group_seq += 1
        group = FPTNestedWalker._group_seq
        probes = [(self.host_fpt.leaf_entry_addr(leaf, gpa), PageSize.SIZE_4K)]
        if self.probe_huge:
            huge = self.host_fpt._huge_for(gpa, create=False)
            if huge is not None:
                probes.append((self.host_fpt.huge_entry_addr(huge, gpa),
                               PageSize.SIZE_2M))
        hpa = None
        hit_addr = None
        for addr, size in probes:
            pte = self.host_fpt.memory.read_word(addr)
            if pte & PTE_PRESENT and \
                    bool(pte & PTE_HUGE) == (size != PageSize.SIZE_4K):
                hpa = (pte_frame(pte) << PAGE_SHIFT) + (gpa & (size.bytes - 1))
                hit_addr = addr
        for addr, _size in probes:
            if hit_addr is None or addr == hit_addr:
                rec.fetch_grouped(addr, f"h{tag}-leaf", group=group)
            else:
                rec.memsys.caches.probe(addr)
        return hpa

    def translate(self, gva: int) -> WalkResult:
        rec = WalkRecorder(self.memsys)
        # Guest root fetch: resolve its gPA to hPA first.
        root_gpa = self.guest_fpt.root_entry_addr(gva)
        root_hpa = self._host_resolve(root_gpa, rec, "g1")
        if root_hpa is None:
            return self.record(WalkResult(gva, rec.finish(), rec.refs, None))
        rec.fetch(root_hpa, "gF-root")
        leaf = self.guest_fpt._leaves.get(self.guest_fpt.upper_index(gva))
        if leaf is None:
            return self.record(WalkResult(gva, rec.finish(), rec.refs, None))

        # Guest leaf probe(s): host-resolve, then fetch.
        gpa = None
        size = PageSize.SIZE_4K
        group = 1
        # identify the winning slot first; losers are background traffic
        candidates = [(PageSize.SIZE_4K,
                       self.guest_fpt.leaf_entry_addr(leaf, gva))]
        if self.probe_huge:
            huge = self.guest_fpt._huge_for(gva, create=False)
            if huge is not None:
                candidates.append((PageSize.SIZE_2M,
                                   self.guest_fpt.huge_entry_addr(huge, gva)))
        slots = []
        for probe_size, entry_gpa in candidates:
            pte = self.guest_fpt.memory.read_word(entry_gpa)
            valid = pte & PTE_PRESENT and \
                bool(pte & PTE_HUGE) == (probe_size != PageSize.SIZE_4K)
            slots.append((probe_size, entry_gpa, pte, valid))
        any_valid = any(valid for *_, valid in slots)
        for probe_size, entry_gpa, pte, valid in slots:
            if any_valid and not valid:
                # losing probe: its resolve + fetch run off the critical path
                continue
            entry_hpa = self._host_resolve(entry_gpa, rec, "g2")
            if entry_hpa is None:
                continue
            rec.fetch_grouped(entry_hpa, f"gF-leaf-{probe_size.name}", group=group)
            if valid:
                size = probe_size
                gpa = (pte_frame(pte) << PAGE_SHIFT) + (gva & (size.bytes - 1))
        if gpa is None:
            return self.record(WalkResult(gva, rec.finish(), rec.refs, None, size))

        pa = self._host_resolve(gpa, rec, "d")
        return self.record(WalkResult(gva, rec.finish(), rec.refs, pa, size))
