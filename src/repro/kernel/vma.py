"""Virtual Memory Areas and per-process address spaces.

A VMA is a contiguous virtual region with uniform protection (§2.3). The
address space keeps VMAs sorted by start address (Linux uses an rb-tree /
maple tree; a bisected list gives the same O(log n) lookup here) and fires
events on every structural change so DMT-Linux can hook VMA creation,
adjustment and splitting the way the prototype hooks ``mmap_region``,
``__vma_adjust`` and ``__split_vma`` (§4.6.2).
"""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from repro.arch import PAGE_SIZE, align_up, is_aligned


class VMAEvent(enum.Enum):
    """Structural address-space changes observable by hooks."""

    CREATED = "created"
    REMOVED = "removed"
    GROWN = "grown"
    SHRUNK = "shrunk"
    SPLIT = "split"


_vma_ids = itertools.count(1)


@dataclass
class VMA:
    """One contiguous virtual region: [start, end), page aligned."""

    start: int
    end: int
    name: str = "anon"
    writable: bool = True
    file_backed: bool = False
    vma_id: int = field(default_factory=lambda: next(_vma_ids))

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"empty VMA [{self.start:#x}, {self.end:#x})")
        if not is_aligned(self.start, PAGE_SIZE) or not is_aligned(self.end, PAGE_SIZE):
            raise ValueError("VMA bounds must be page aligned")

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def pages(self) -> int:
        return self.size // PAGE_SIZE

    def contains(self, va: int) -> bool:
        return self.start <= va < self.end

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VMA({self.name}, {self.start:#x}-{self.end:#x}, {self.size >> 20} MiB)"


Hook = Callable[[VMAEvent, VMA], None]


class AddressSpace:
    """Sorted collection of non-overlapping VMAs with change hooks."""

    #: Default mmap search base (matches the x86-64 mmap area being high).
    MMAP_BASE = 0x7F00_0000_0000

    def __init__(self):
        self._starts: List[int] = []
        self._vmas: List[VMA] = []
        self._hooks: List[Hook] = []
        self._mmap_cursor = self.MMAP_BASE

    # ------------------------------------------------------------------ #
    # Hook plumbing
    # ------------------------------------------------------------------ #

    def add_hook(self, hook: Hook) -> None:
        self._hooks.append(hook)

    def remove_hook(self, hook: Hook) -> None:
        self._hooks.remove(hook)

    def _fire(self, event: VMAEvent, vma: VMA) -> None:
        for hook in self._hooks:
            hook(event, vma)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterable[VMA]:
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)

    def find(self, va: int) -> Optional[VMA]:
        """The VMA containing ``va``, or None (Linux ``find_vma`` semantics
        restricted to exact containment)."""
        idx = bisect.bisect_right(self._starts, va) - 1
        if idx >= 0 and self._vmas[idx].contains(va):
            return self._vmas[idx]
        return None

    def vmas(self) -> List[VMA]:
        return list(self._vmas)

    def total_mapped(self) -> int:
        return sum(vma.size for vma in self._vmas)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def mmap(
        self,
        length: int,
        addr: Optional[int] = None,
        name: str = "anon",
        writable: bool = True,
        file_backed: bool = False,
    ) -> VMA:
        """Create a VMA of ``length`` bytes; picks an address if none given."""
        length = align_up(length, PAGE_SIZE)
        if addr is None:
            addr = self._find_gap(length)
        elif not is_aligned(addr, PAGE_SIZE):
            raise ValueError("fixed mmap address must be page aligned")
        if self._last_overlap(addr, addr + length) is not None:
            raise ValueError(f"mmap range {addr:#x}+{length:#x} overlaps an existing VMA")
        vma = VMA(addr, addr + length, name=name, writable=writable, file_backed=file_backed)
        self._insert(vma)
        self._fire(VMAEvent.CREATED, vma)
        return vma

    def munmap(self, start: int, length: int) -> List[VMA]:
        """Unmap [start, start+length); splits partially covered VMAs.

        Returns the removed VMAs (post-split)."""
        end = start + align_up(length, PAGE_SIZE)
        removed: List[VMA] = []
        for vma in [v for v in self._vmas if v.overlaps(start, end)]:
            if start > vma.start:
                vma = self.split(vma, start)[1]
            if end < vma.end:
                vma = self.split(vma, end)[0]
            self._remove(vma)
            removed.append(vma)
            self._fire(VMAEvent.REMOVED, vma)
        return removed

    def grow(self, vma: VMA, extra_bytes: int) -> VMA:
        """Extend a VMA upward (``mmap`` growing an existing area, §4.2.3)."""
        extra_bytes = align_up(extra_bytes, PAGE_SIZE)
        new_end = vma.end + extra_bytes
        nxt = self._next_vma(vma)
        if nxt is not None and nxt.start < new_end:
            raise ValueError("cannot grow into the next VMA")
        vma.end = new_end
        self._fire(VMAEvent.GROWN, vma)
        return vma

    def shrink(self, vma: VMA, new_size: int) -> VMA:
        """Shrink a VMA from the top (``munmap`` of its tail, §4.2.3)."""
        new_size = align_up(new_size, PAGE_SIZE)
        if not 0 < new_size <= vma.size:
            raise ValueError("new size must be within the current VMA")
        vma.end = vma.start + new_size
        self._fire(VMAEvent.SHRUNK, vma)
        return vma

    def split(self, vma: VMA, at: int) -> tuple:
        """Split a VMA at ``at``; returns (low, high). Models ``__split_vma``."""
        if not vma.contains(at) or at == vma.start:
            raise ValueError("split point must be strictly inside the VMA")
        if not is_aligned(at, PAGE_SIZE):
            raise ValueError("split point must be page aligned")
        high = VMA(at, vma.end, name=vma.name, writable=vma.writable,
                   file_backed=vma.file_backed)
        vma.end = at
        self._insert(high)
        self._fire(VMAEvent.SPLIT, vma)
        return vma, high

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _insert(self, vma: VMA) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        self._starts.insert(idx, vma.start)
        self._vmas.insert(idx, vma)

    def _remove(self, vma: VMA) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        while idx < len(self._vmas) and self._vmas[idx] is not vma:
            idx += 1
        if idx >= len(self._vmas):
            raise ValueError("VMA not present in this address space")
        self._starts.pop(idx)
        self._vmas.pop(idx)

    def _next_vma(self, vma: VMA) -> Optional[VMA]:
        idx = bisect.bisect_right(self._starts, vma.start)
        return self._vmas[idx] if idx < len(self._vmas) else None

    def _last_overlap(self, start: int, end: int) -> Optional[VMA]:
        """The highest VMA overlapping [start, end), or None.

        VMAs are sorted and disjoint, so only the last one starting
        below ``end`` can reach past ``start``: O(log n).
        """
        idx = bisect.bisect_left(self._starts, end) - 1
        if idx >= 0 and self._vmas[idx].end > start:
            return self._vmas[idx]
        return None

    def _find_gap(self, length: int) -> int:
        addr = self._mmap_cursor
        blocker = self._last_overlap(addr, addr + length)
        while blocker is not None:
            addr = align_up(blocker.end, PAGE_SIZE)
            blocker = self._last_overlap(addr, addr + length)
        self._mmap_cursor = addr + length
        return addr
