"""x86-64 radix page tables (4- or 5-level) backed by simulated memory.

Tables are real pages in a :class:`~repro.mem.physmem.PhysicalMemory`
domain: entries are 8-byte words at genuine physical addresses, so the MMU
walkers in :mod:`repro.translation` fetch the same bytes a hardware walker
would, and DMT's direct PTE fetch and the radix walk observe a single copy
of each PTE (the paper stresses DMT creates no PTE duplicates, §3).

Where a table page lands in physical memory is delegated to a
*placement policy*: vanilla Linux scatters table pages wherever the buddy
allocator happens to place them; DMT-Linux's policy places last-level
tables inside TEAs (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch import (
    PAGE_SHIFT,
    PTE_SIZE,
    PageSize,
    level_index,
    level_shift,
)
from repro.analysis import sanitizer
from repro.mem.physmem import PhysicalMemory, frame_to_addr

PTE_PRESENT = 1 << 0
PTE_WRITE = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
PTE_HUGE = 1 << 7  # PS bit: this entry maps a huge page

PTE_FLAGS_MASK = (1 << PAGE_SHIFT) - 1

#: Page size of a leaf entry, by the radix level it sits at.
_LEAF_SIZES = {1: PageSize.SIZE_4K, 2: PageSize.SIZE_2M, 3: PageSize.SIZE_1G}

#: log2 of the 4 KB pages one last-level table maps.
_LEAF_SPAN_SHIFT = level_shift(2) - PAGE_SHIFT

#: ``frames_for(first_va, olds)`` of :meth:`RadixPageTable.map_run`: the
#: frames to map at the pages from ``first_va`` given the entries ``olds``
#: that map them now, None for a page to leave alone.
FramesFor = Callable[[int, List[int]], List[Optional[int]]]


def pte_frame(pte: int) -> int:
    return pte >> PAGE_SHIFT


def make_pte(frame: int, flags: int = PTE_PRESENT | PTE_WRITE) -> int:
    return (frame << PAGE_SHIFT) | flags


class TablePlacementPolicy:
    """Decides which physical frame holds a given page-table node.

    ``place_table`` may return a pre-reserved frame (DMT returns TEA slots
    for leaf tables) or ``None`` to fall back to the buddy allocator.
    """

    def place_table(self, level: int, va: int, page_size: PageSize) -> Optional[int]:
        return None

    def table_released(self, frame: int, level: int, va: int) -> bool:
        """Return True if the policy owns the frame (so it won't be freed
        back to the buddy allocator)."""
        return False


@dataclass
class WalkStep:
    """One sequential MMU access during a radix walk."""

    level: int
    pte_addr: int  # physical address of the entry fetched
    pte_value: int
    is_leaf: bool


class PageTableStats:
    def __init__(self) -> None:
        self.pte_writes = 0
        self.tables_allocated = 0
        self.tables_freed = 0


class RadixPageTable:
    """A hardware-walkable multi-level page table."""

    def __init__(
        self,
        memory: PhysicalMemory,
        levels: int = 4,
        asid: int = 0,
        placement: Optional[TablePlacementPolicy] = None,
        write_hook: Optional[Callable[[int, int], None]] = None,
    ):
        if levels not in (4, 5):
            raise ValueError("x86-64 supports 4- or 5-level page tables")
        self.memory = memory
        self.levels = levels
        self.asid = asid
        self.placement = placement or TablePlacementPolicy()
        #: called as write_hook(pte_addr, new_value) on every PTE update —
        #: shadow paging uses this to model write-protection traps.
        self.write_hook = write_hook
        self.stats = PageTableStats()
        # (level, table_key) -> frame; table_key = va >> level_shift(level+1)
        self._tables: Dict[Tuple[int, int], int] = {}
        self.root_frame = self._new_table(self.levels, 0, PageSize.SIZE_4K, track=False)

    # ------------------------------------------------------------------ #
    # Table bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def table_pages(self) -> int:
        """Number of table pages currently allocated (incl. the root)."""
        return len(self._tables) + 1

    @property
    def table_bytes(self) -> int:
        return self.table_pages << PAGE_SHIFT

    @property
    def mapped_pages(self) -> int:
        """Number of leaf mappings, counted off the tables (no index of
        mapped pages is kept: it would grow with every page mapped)."""
        return sum(sum(pte & PTE_PRESENT for pte in ptes)
                   for _, _, ptes in self.leaf_tables())

    def mappings(self) -> List[Tuple[int, PageSize]]:
        """(va, page size) of every leaf mapping, by ascending va."""
        return [(va, size) for va, _, size in self.leaves()]

    def _table_key(self, va: int, level: int) -> int:
        return va >> level_shift(level + 1)

    def _new_table(self, level: int, va: int, page_size: PageSize, track: bool = True) -> int:
        frame = self.placement.place_table(level, va, page_size)
        if frame is None:
            frame = self.memory.allocator.alloc_pages(0, movable=False)
        self.memory.clear_page(frame)
        self.stats.tables_allocated += 1
        if track:
            self._tables[(level, self._table_key(va, level))] = frame
        return frame

    # dmtlint-domain: va=any -- the EPT is this same structure keyed by gPA
    def table_frame(self, va: int, level: int) -> Optional[int]:
        """Frame of the level-``level`` table covering ``va`` (root for top)."""
        if level == self.levels:
            return self.root_frame
        return self._tables.get((level, self._table_key(va, level)))

    # ------------------------------------------------------------------ #
    # PTE access
    # ------------------------------------------------------------------ #

    def _entry_addr(self, table_frame: int, va: int, level: int) -> int:
        return frame_to_addr(table_frame) + level_index(va, level) * PTE_SIZE

    def _write_pte(self, addr: int, value: int) -> None:
        self.memory.write_word(addr, value)
        self.stats.pte_writes += 1
        if self.write_hook is not None:
            self.write_hook(addr, value)

    def _descend(self, va: int, leaf_level: int, create: bool,
                 page_size: PageSize = PageSize.SIZE_4K) -> Optional[int]:
        """Return the physical address of the leaf PTE slot at ``leaf_level``."""
        frame = self.root_frame
        for level in range(self.levels, leaf_level, -1):
            addr = self._entry_addr(frame, va, level)
            pte = self.memory.read_word(addr)
            if pte & PTE_PRESENT:
                if pte & PTE_HUGE:
                    raise ValueError(
                        f"va {va:#x}: huge mapping at level {level} blocks a "
                        f"level-{leaf_level} mapping"
                    )
                frame = pte_frame(pte)
            elif create:
                frame = self._new_table(level - 1, va, page_size)
                self._write_pte(addr, make_pte(frame))
            else:
                return None
        return self._entry_addr(frame, va, leaf_level)

    # ------------------------------------------------------------------ #
    # Public mapping API
    # ------------------------------------------------------------------ #

    def map(self, va: int, pfn: int, page_size: PageSize = PageSize.SIZE_4K,
            flags: int = PTE_PRESENT | PTE_WRITE) -> int:
        """Map ``va`` -> frame ``pfn`` with the given page size.

        ``pfn`` is in units of the page size (for 2 MB pages it is the 4 KB
        frame number of the first frame, which must be 512-aligned).
        A huge page over an empty lower table releases that table (as
        :meth:`destroy` does); over one that still maps a page it raises.
        Returns the physical address of the written leaf PTE.
        """
        leaf_level = page_size.leaf_level
        base = va & ~(page_size.bytes - 1)
        if page_size != PageSize.SIZE_4K:
            if pfn % (page_size.bytes >> PAGE_SHIFT):
                raise ValueError("huge-page frame must be size aligned")
            flags |= PTE_HUGE
        slot = self._descend(base, leaf_level, create=True, page_size=page_size)
        if sanitizer.active():
            sanitizer.check_pte_target(base, pfn, page_size,
                                       self.memory.total_frames)
        old = self.memory.read_word(slot)
        if leaf_level > 1 and old & PTE_PRESENT and not old & PTE_HUGE:
            self._release_table(pte_frame(old), leaf_level - 1, base)
        self._write_pte(slot, make_pte(pfn, flags))
        return slot

    def _release_table(self, frame: int, level: int, va: int) -> None:
        """Free the empty level-``level`` table at ``frame`` covering
        ``va``, whose parent entry the caller is about to overwrite."""
        if any(pte & PTE_PRESENT for pte in self.memory.read_page(frame)):
            raise ValueError(
                f"va {va:#x}: the level-{level} table below still maps "
                f"pages; unmap them before mapping a huge page over it")
        if not self.placement.table_released(frame, level, va):
            self.memory.allocator.free_pages(frame)
        self.memory.clear_page(frame)
        self.stats.tables_freed += 1
        del self._tables[(level, self._table_key(va, level))]

    def _leaf_table(self, va: int, leaf_level: int) -> Tuple[Optional[int], int]:
        """``(frame, 0)`` of the level-``leaf_level`` table covering ``va``,
        or ``(None, pte)`` when it does not exist: ``pte`` is the huge
        entry above that maps ``va``, 0 when none does."""
        frame = self.root_frame
        for level in range(self.levels, leaf_level, -1):
            pte = self.memory.read_word(self._entry_addr(frame, va, level))
            if not pte & PTE_PRESENT:
                return None, 0
            if pte & PTE_HUGE:
                return None, pte
            frame = pte_frame(pte)
        return frame, 0

    # dmtlint-domain: va=any -- EPTs and shadow tables map gPAs in bulk too
    def map_run(self, va: int, count: int, page_size: PageSize,
                frames_for: FramesFor,
                flags: int = PTE_PRESENT | PTE_WRITE) -> int:
        """Map ``count`` consecutive ``page_size`` pages from ``va``.

        Works one leaf table at a time: it descends from the root once
        per table, and ``frames_for(first_va, olds)`` is called once for
        the pages of the run inside that table, by ascending va. ``olds``
        holds the entry that maps each page now (its slot, or the huge
        entry above that covers it; 0 when none does). The callback
        returns the frame to map at each page, None to leave a page
        alone. It may return fewer frames than ``olds`` (at least one):
        the rest of the table's pages then come in a next call, after
        these are written. While the leaf table a page needs does not
        exist, pages are asked for one at a time; the table is created
        once a page is given a frame, and the rest of its span comes in
        a second call. So a caller that allocates data frames in the
        callback gets the frame order of calling :meth:`map` page by
        page: data frame, then the table, then the next frames. A
        present entry given a new frame is unmapped first, as ``unmap``
        + ``map`` would. The PTEs of a call are written with one bulk
        memory write, and each takes the same sanitizer check, write
        hook and ``pte_writes`` count as :meth:`map`, in ascending
        order. A huge page over a lower table releases it, or raises if
        the table still maps pages, as :meth:`map` does. Returns the
        number of pages written.
        """
        leaf_level = page_size.leaf_level
        step = page_size.bytes
        if page_size != PageSize.SIZE_4K:
            flags |= PTE_HUGE
        index_shift = level_shift(leaf_level)
        span = 1 << level_shift(leaf_level + 1) - index_shift
        page = va & ~(step - 1)
        left = count
        written = 0
        fresh = None  # a table the last step created: empty past that page
        while left > 0:
            index = (page >> index_shift) & (span - 1)
            table, above = self._leaf_table(page, leaf_level)
            if table is None:
                # a page that would open the table is asked for alone
                olds = [above]
            elif table == fresh:
                olds = [0] * min(span - index, left)
            else:
                olds = self.memory.read_words(
                    frame_to_addr(table) + index * PTE_SIZE,
                    min(span - index, left))
            fresh = None
            frames = frames_for(page, olds)[:len(olds)]
            if not frames:
                raise ValueError(f"frames_for gave no frame at {page:#x}")
            if table is None and frames[0] is not None:
                if above & PTE_PRESENT:
                    self.unmap(page)
                olds = [0]
                table = fresh = self._descend(
                    page, leaf_level, create=True,
                    page_size=page_size) >> PAGE_SHIFT
            if table is not None:
                written += self._write_leaves(table, index, page, page_size,
                                              olds, frames, flags)
            page += len(frames) * step
            left -= len(frames)
        return written

    def _write_leaves(self, table: int, index: int, va: int,
                      page_size: PageSize, olds: List[int],
                      frames: List[Optional[int]], flags: int) -> int:
        """Write ``frames`` into the leaf table ``table`` from its entry
        ``index`` (the entry of ``va``), skipping None. A present entry
        given a frame is unmapped (a lower table's pointer: the table
        released) right before its page is written. Returns the number
        of PTEs written."""
        written = 0
        lo = 0
        if any(olds):
            leaf_level = page_size.leaf_level
            for hi, (old, pfn) in enumerate(zip(olds, frames)):
                if old & PTE_PRESENT and pfn is not None:
                    written += self._store(table, index, va, page_size,
                                           frames, lo, hi, flags)
                    page = va + hi * page_size.bytes
                    if leaf_level > 1 and not old & PTE_HUGE:
                        self._release_table(pte_frame(old), leaf_level - 1,
                                            page)
                    else:
                        self.unmap(page)
                    lo = hi
        return written + self._store(table, index, va, page_size, frames,
                                     lo, len(frames), flags)

    def _store(self, table: int, index: int, va: int, page_size: PageSize,
               frames: List[Optional[int]], lo: int, hi: int,
               flags: int) -> int:
        """Write ``frames[lo:hi]`` (see :meth:`_write_leaves`) with one
        bulk memory write. A frame failing its check raises once the
        pages before it are written, as :meth:`map` page by page would."""
        step = page_size.bytes
        huge_frames = step >> PAGE_SHIFT
        check = sanitizer.active()
        passed = hi
        try:
            if check or huge_frames > 1:
                for passed in range(lo, hi):
                    pfn = frames[passed]
                    if pfn is None:
                        continue
                    if pfn % huge_frames:
                        raise ValueError("huge-page frame must be size aligned")
                    if check:
                        sanitizer.check_pte_target(va + passed * step, pfn,
                                                   page_size,
                                                   self.memory.total_frames)
                passed = hi
        finally:
            values = [None if pfn is None else pfn << PAGE_SHIFT | flags
                      for pfn in frames[lo:passed]]
            addr = frame_to_addr(table) + (index + lo) * PTE_SIZE
            self.memory.write_words(addr, values)
            written = len(values) - values.count(None)
            self.stats.pte_writes += written
            if self.write_hook is not None:
                for i, value in enumerate(values):
                    if value is not None:
                        self.write_hook(addr + i * PTE_SIZE, value)
        return written

    def unmap(self, va: int, page_size: Optional[PageSize] = None) -> Optional[int]:
        """Clear the leaf PTE for ``va``; returns the frame it mapped."""
        found = self.lookup(va)
        if found is None:
            return None
        slot, pte, size = found
        if page_size is not None and size != page_size:
            raise ValueError(f"va {va:#x} is mapped with {size.name}, not {page_size.name}")
        self._write_pte(slot, 0)
        if sanitizer.active():
            sanitizer.check_unmap_coherence(self.asid, va, size)
        return pte_frame(pte)

    def lookup(self, va: int) -> Optional[Tuple[int, int, PageSize]]:
        """(leaf PTE address, PTE value, page size) for ``va`` if mapped."""
        frame = self.root_frame
        for level in range(self.levels, 0, -1):
            addr = self._entry_addr(frame, va, level)
            pte = self.memory.read_word(addr)
            if not pte & PTE_PRESENT:
                return None
            if level == 1 or pte & PTE_HUGE:
                return addr, pte, _LEAF_SIZES[level]
            frame = pte_frame(pte)
        return None

    # dmtlint-domain: va=any -- resolves guest frames through an EPT too
    def leaf_frames(self, vpns: Sequence[int]) -> List[Optional[int]]:
        """The 4 KB frame each page number of ``vpns`` maps to, None
        where it is unmapped.

        Descends and reads the last-level table once per run of page
        numbers inside it (a huge leaf counts as one table), where a
        :meth:`lookup` per page descends from the root each time.
        """
        frames: List[Optional[int]] = []
        shift, mask = _LEAF_SPAN_SHIFT, (1 << _LEAF_SPAN_SHIFT) - 1
        span = None
        entries: List[int] = []
        huge = None
        for vpn in vpns:
            if vpn >> shift != span:
                span = vpn >> shift
                table, above = self._leaf_table(vpn << PAGE_SHIFT, 1)
                entries = [] if table is None else self.memory.read_page(table)
                huge = None
                if above & PTE_PRESENT:
                    size = self.lookup(vpn << PAGE_SHIFT)[2]
                    huge = pte_frame(above) + ((span << shift)
                                               & (size.bytes >> PAGE_SHIFT) - 1)
            if entries:
                pte = entries[vpn & mask]
                frames.append(pte >> PAGE_SHIFT if pte & PTE_PRESENT else None)
            else:
                frames.append(None if huge is None else huge + (vpn & mask))
        return frames

    def leaves(self) -> Iterator[Tuple[int, int, PageSize]]:
        """Every leaf mapping as ``(va, pte, page size)``, by ascending va.

        Reads each table page once (:meth:`leaf_tables`), where a
        :meth:`lookup` per mapped page descends from the root each time.
        """
        for va, size, ptes in self.leaf_tables():
            step = size.bytes
            for index, pte in enumerate(ptes):
                if pte & PTE_PRESENT:
                    yield va + index * step, pte, size

    def leaf_tables(self) -> Iterator[Tuple[int, PageSize, List[int]]]:
        """The leaf entries as ``(va, page size, ptes)``, by ascending va:
        the 512 entries of each last-level table (0 where unmapped), or
        one huge leaf ``[pte]``. A depth-first walk reading each table
        page once."""
        return self._tables_below(self.root_frame, self.levels, 0)

    def _tables_below(self, frame: int, level: int,
                      base: int) -> Iterator[Tuple[int, PageSize, List[int]]]:
        ptes = self.memory.read_page(frame)
        if level == 1:
            yield base, PageSize.SIZE_4K, ptes
            return
        shift = level_shift(level)
        for index, pte in enumerate(ptes):
            if pte & PTE_PRESENT:
                va = base | index << shift
                if pte & PTE_HUGE:
                    yield va, _LEAF_SIZES[level], [pte]
                else:
                    yield from self._tables_below(pte_frame(pte), level - 1,
                                                  va)

    def translate(self, va: int) -> Optional[Tuple[int, PageSize]]:
        """Full software translation: ``va`` -> (physical address, page size)."""
        found = self.lookup(va)
        if found is None:
            return None
        _, pte, size = found
        base = pte_frame(pte) << PAGE_SHIFT
        return base + (va & (size.bytes - 1)), size

    def leaf_pte_addr(self, va: int) -> Optional[Tuple[int, PageSize]]:
        found = self.lookup(va)
        if found is None:
            return None
        addr, _, size = found
        return addr, size

    def set_accessed_dirty(self, va: int, dirty: bool = False) -> None:
        """Set A (and optionally D) bits the way a hardware walker does."""
        found = self.lookup(va)
        if found is None:
            raise KeyError(f"va {va:#x} not mapped")
        addr, pte, _ = found
        new = pte | PTE_ACCESSED | (PTE_DIRTY if dirty else 0)
        if new != pte:
            self.memory.write_word(addr, new)  # A/D updates don't trap

    # ------------------------------------------------------------------ #
    # Hardware-walk enumeration
    # ------------------------------------------------------------------ #

    # dmtlint-domain: va=any -- host walkers enumerate EPT steps over gPAs
    def walk_steps(self, va: int) -> List[WalkStep]:
        """The ordered PTE fetches a hardware walker performs for ``va``.

        Always starts at the root; MMU caches (PWC) that skip upper levels
        are applied by the walker models, not here.
        """
        steps: List[WalkStep] = []
        frame = self.root_frame
        for level in range(self.levels, 0, -1):
            addr = self._entry_addr(frame, va, level)
            pte = self.memory.read_word(addr)
            leaf = level == 1 or bool(pte & PTE_HUGE) or not pte & PTE_PRESENT
            steps.append(WalkStep(level, addr, pte, leaf))
            if leaf:
                break
            frame = pte_frame(pte)
        return steps

    # ------------------------------------------------------------------ #
    # Table relocation (TEA migration support, §4.3)
    # ------------------------------------------------------------------ #

    def relocate_table(self, va: int, level: int, new_frame: int) -> int:
        """Move the level-``level`` table covering ``va`` to ``new_frame``.

        Copies the page and rewrites the parent entry so the original x86
        walker stays correct during and after TEA migration. Returns the
        old frame (caller decides whether to free it).
        """
        key = (level, self._table_key(va, level))
        old_frame = self._tables.get(key)
        if old_frame is None:
            raise KeyError(f"no level-{level} table covering {va:#x}")
        parent_frame = self.table_frame(va, level + 1)
        if parent_frame is None:
            raise KeyError(f"no parent table at level {level + 1} for {va:#x}")
        self.memory.copy_page(old_frame, new_frame)
        parent_addr = self._entry_addr(parent_frame, va, level + 1)
        parent_pte = self.memory.read_word(parent_addr)
        self._write_pte(parent_addr, make_pte(new_frame, parent_pte & PTE_FLAGS_MASK))
        self._tables[key] = new_frame
        if sanitizer.active():
            sanitizer.check_relocate_coherence(va, level,
                                               frame_to_addr(old_frame))
        return old_frame

    def destroy(self) -> None:
        """Free every table page (not the mapped data frames)."""
        for (level, key), frame in list(self._tables.items()):
            va = key << level_shift(level + 1)
            if not self.placement.table_released(frame, level, va):
                self.memory.allocator.free_pages(frame)
            self.stats.tables_freed += 1
        self._tables.clear()
        self.memory.allocator.free_pages(self.root_frame)

