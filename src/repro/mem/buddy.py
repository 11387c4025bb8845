"""Binary buddy allocator over a flat physical frame space.

This is the Linux-style substrate DMT-Linux builds on: page-table pages,
TEAs, and data frames all come from here. It supports:

* ``alloc_pages(order)`` / ``free_pages(frame, order)`` — classic buddy ops;
* ``alloc_contig(npages)`` — the ``alloc_contig_pages`` analogue DMT uses
  for TEAs (§4.3), which fails when no contiguous run exists;
* movable/unmovable frame tagging and ``compact()`` — the on-demand
  defragmentation DMT-Linux instructs the allocator to perform;
* the free-memory fragmentation index (FMFI) used by §6.3's fragmentation
  experiment.

Frames are integers (frame numbers). Physical byte addresses are
``frame << PAGE_SHIFT``.

Which frames head an allocated block is one byte per frame (``_heads``):
0 for a frame that heads no block, otherwise the block's code, with
:data:`_MOVABLE` set for a movable block. So the allocator's size is
fixed by the size of the zone, not by how many blocks it hands out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np


MAX_ORDER = 11  # Linux: free lists for 2^0 .. 2^10 pages

#: Head-byte bit of a movable block.
_MOVABLE = 0x80
#: Head-byte code of an ``alloc_contig`` block (its size is in ``_contig``);
#: a buddy block of order ``k`` has code ``k + 1``.
_CONTIG = 0x7F


class OutOfMemoryError(Exception):
    """No frames (or no suitably contiguous frames) are available."""


class ContiguityError(OutOfMemoryError):
    """Enough free frames exist but not as one contiguous run."""


@dataclass
class BuddyStats:
    allocations: int = 0
    frees: int = 0
    contig_allocations: int = 0
    contig_failures: int = 0
    compactions: int = 0
    pages_migrated: int = 0


class BuddyAllocator:
    """Binary buddy allocator with contiguous allocation and compaction."""

    def __init__(self, total_frames: int, base_frame: int = 0):
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        self.base_frame = base_frame
        self.total_frames = total_frames
        self.stats = BuddyStats()
        # free_lists[order] = insertion-ordered dict of block-start frames
        self.free_lists: List[Dict[int, None]] = [{} for _ in range(MAX_ORDER)]
        # frame - base_frame -> head code of the block it heads, 0 if none
        self._heads = bytearray(total_frames)
        # frame -> npages, for the heads of alloc_contig blocks
        self._contig: Dict[int, int] = {}
        self._seed_free_space()

    def _head(self, frame: int) -> int:
        """The head byte of ``frame``; 0 outside the zone."""
        index = frame - self.base_frame
        return self._heads[index] if 0 <= index < self.total_frames else 0

    def _head_frames(self, mask: int) -> List[int]:
        """The frames whose head byte has a bit of ``mask`` set, in
        frame order."""
        heads = np.frombuffer(self._heads, dtype=np.uint8)
        return (np.flatnonzero(heads & mask) + self.base_frame).tolist()

    def _npages(self, frame: int, code: int) -> int:
        """Frames in the block that ``frame`` heads, ``code`` its head byte."""
        code &= ~_MOVABLE
        return self._contig[frame] if code == _CONTIG else 1 << code - 1

    def _seed_free_space(self) -> None:
        frame = self.base_frame
        remaining = self.total_frames
        while remaining > 0:
            order = min(MAX_ORDER - 1, remaining.bit_length() - 1)
            # block start must be aligned to its size relative to base 0
            while order > 0 and frame % (1 << order) != 0:
                order -= 1
            self.free_lists[order][frame] = None
            frame += 1 << order
            remaining -= 1 << order

    # ------------------------------------------------------------------ #
    # Core buddy operations
    # ------------------------------------------------------------------ #

    def alloc_pages(self, order: int = 0, movable: bool = True) -> int:
        """Allocate a 2^order-frame block; returns the first frame number."""
        if not 0 <= order < MAX_ORDER:
            raise ValueError(f"order {order} out of range")
        for current in range(order, MAX_ORDER):
            if self.free_lists[current]:
                frame = next(iter(self.free_lists[current]))
                self.free_lists[current].pop(frame)
                # split back down to the requested order
                while current > order:
                    current -= 1
                    buddy = frame + (1 << current)
                    self.free_lists[current][buddy] = None
                self._heads[frame - self.base_frame] = \
                    order + 1 | (_MOVABLE if movable else 0)
                self.stats.allocations += 1
                return frame
        raise OutOfMemoryError(f"no free block of order {order}")

    def alloc_run(self, count: int, movable: bool = True) -> List[int]:
        """The frames of ``count`` successive ``alloc_pages(0, movable)``.

        Leaves the allocator exactly as those calls would: the same free
        lists in the same order, the same block heads (each frame an
        order-0 head, movable or not) and stats. The calls first drain
        the order-0 list oldest first; after that each takes the oldest
        block of the lowest non-empty order and hands it out frame by
        frame, so a block is cut once (its frames marked as heads with
        one slice assignment) and its unused tail goes back as the
        blocks the splits would have left. When memory runs out the
        frames handed out so far stay allocated and OutOfMemoryError is
        raised, as the failing call would.
        """
        if count < 0:
            raise ValueError("count must not be negative")
        heads, base = self._heads, self.base_frame
        code = 1 | (_MOVABLE if movable else 0)
        frames: List[int] = []
        try:
            singles = self.free_lists[0]
            if count >= len(singles):
                frames.extend(singles)
                singles.clear()
            else:
                frames.extend(itertools.islice(singles, count))
                for frame in frames:
                    del singles[frame]
            for frame in frames:
                heads[frame - base] = code
            while len(frames) < count:
                order = next((order for order in range(1, MAX_ORDER)
                              if self.free_lists[order]), None)
                if order is None:
                    raise OutOfMemoryError("no free block of order 0")
                blocks = self.free_lists[order]
                block = next(iter(blocks))
                del blocks[block]
                used = min(count - len(frames), 1 << order)
                heads[block - base:block - base + used] = bytes((code,)) * used
                frames.extend(range(block, block + used))
                # the tail the splits leave: one block per lower order,
                # each as large as the alignment of its offset allows
                offset = used
                while offset < 1 << order:
                    size = offset & -offset
                    self.free_lists[size.bit_length() - 1][block + offset] = None
                    offset += size
        finally:
            self.stats.allocations += len(frames)
        return frames

    def free_pages(self, frame: int, order: Optional[int] = None) -> None:
        """Free a previously allocated block, coalescing with its buddy.

        A frame that heads no block, a contig block or a block of another
        order than ``order`` raises ValueError and changes nothing.
        """
        code = self._head(frame) & ~_MOVABLE
        if not code:
            raise ValueError(f"frame {frame} is not an allocated block head")
        if code == _CONTIG:
            raise ValueError(f"frame {frame} heads a "
                             f"{self._contig[frame]}-frame contig block")
        actual = code - 1
        if order is not None and order != actual:
            raise ValueError(f"frame {frame} was allocated at order {actual}, not {order}")
        self._heads[frame - self.base_frame] = 0
        self.stats.frees += 1
        current = actual
        while current < MAX_ORDER - 1:
            buddy = frame ^ (1 << current)
            if buddy in self.free_lists[current]:
                self.free_lists[current].pop(buddy)
                frame = min(frame, buddy)
                current += 1
            else:
                break
        self.free_lists[current][frame] = None

    # ------------------------------------------------------------------ #
    # Contiguous allocation (alloc_contig_pages analogue)
    # ------------------------------------------------------------------ #

    def alloc_contig(self, npages: int, movable: bool = False) -> int:
        """Allocate ``npages`` physically contiguous frames.

        Mirrors ``alloc_contig_pages``: round up to block granularity by
        composing adjacent buddy blocks. Raises :class:`ContiguityError`
        when no contiguous run can be assembled (the caller — DMT's TEA
        manager — then splits the request, §4.2.2).
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        run = self._find_free_run(npages)
        if run is None:
            self.stats.contig_failures += 1
            raise ContiguityError(f"no contiguous run of {npages} frames")
        self._carve_run(run, npages)
        self._heads[run - self.base_frame] = \
            _CONTIG | (_MOVABLE if movable else 0)
        self._contig[run] = npages
        self.stats.contig_allocations += 1
        return run

    def free_contig(self, frame: int, npages: int) -> None:
        """Free a block returned by :meth:`alloc_contig` (free_contig_range)."""
        if self._contig.get(frame) != npages:
            raise ValueError(f"frame {frame} is not a {npages}-frame contig block")
        self._heads[frame - self.base_frame] = 0
        del self._contig[frame]
        self.stats.frees += 1
        self._release_run(frame, npages)

    def expand_contig(self, frame: int, npages: int, extra: int) -> bool:
        """Try to grow a contig block in place by ``extra`` frames.

        Returns True on success (the block is now ``npages + extra`` frames).
        This models in-place TEA expansion (§4.3); failure means the caller
        must migrate to a fresh TEA.
        """
        if self._contig.get(frame) != npages:
            raise ValueError(f"frame {frame} is not a {npages}-frame contig block")
        start = frame + npages
        run = self._find_free_run_at(start, extra)
        if not run:
            return False
        self._carve_run(start, extra)
        self._contig[frame] = npages + extra
        return True

    def shrink_contig(self, frame: int, npages: int, new_npages: int) -> None:
        """Release the tail of a contig block, keeping its base in place."""
        if self._contig.get(frame) != npages:
            raise ValueError(f"frame {frame} is not a {npages}-frame contig block")
        if not 0 < new_npages <= npages:
            raise ValueError("new_npages must be within the current block")
        if new_npages == npages:
            return
        self._contig[frame] = new_npages
        self._release_run(frame + new_npages, npages - new_npages)

    def _find_free_run(self, npages: int) -> Optional[int]:
        """Locate a free contiguous run of >= npages frames, smallest start."""
        free = self._free_frame_intervals()
        for start, length in free:
            if length >= npages:
                return start
        return None

    def _find_free_run_at(self, start: int, npages: int) -> bool:
        for istart, length in self._free_frame_intervals():
            if istart <= start and start + npages <= istart + length:
                return True
        return False

    def _free_frame_intervals(self) -> List[tuple]:
        """Merged (start, length) intervals of free frames, sorted by start."""
        blocks = sorted(
            (frame, 1 << order)
            for order, frames in enumerate(self.free_lists)
            for frame in frames
        )
        merged: List[List[int]] = []
        for start, length in blocks:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1][1] += length
            else:
                merged.append([start, length])
        return [(s, l) for s, l in merged]

    def _carve_run(self, start: int, npages: int) -> None:
        """Remove [start, start+npages) from the free lists, re-freeing edges."""
        end = start + npages
        for order in range(MAX_ORDER):
            overlapping = [
                frame
                for frame in self.free_lists[order]
                if frame < end and frame + (1 << order) > start
            ]
            for frame in overlapping:
                self.free_lists[order].pop(frame)
                # give back the pieces outside [start, end)
                self._release_raw(frame, min(frame + (1 << order), start) - frame)
                tail_start = max(frame, end)
                self._release_raw(tail_start, frame + (1 << order) - tail_start)

    def _release_raw(self, start: int, npages: int) -> None:
        """Insert raw frames into the free lists without buddy coalescing."""
        while npages > 0:
            order = min(MAX_ORDER - 1, npages.bit_length() - 1)
            while order > 0 and start % (1 << order) != 0:
                order -= 1
            self.free_lists[order][start] = None
            start += 1 << order
            npages -= 1 << order

    def _release_run(self, start: int, npages: int) -> None:
        """Free a contiguous run with best-effort buddy coalescing."""
        # Insert as raw blocks, then coalesce pairs greedily.
        self._release_raw(start, npages)
        self._coalesce()

    def _coalesce(self) -> None:
        changed = True
        while changed:
            changed = False
            for order in range(MAX_ORDER - 1):
                frames = self.free_lists[order]
                for frame in sorted(frames):
                    buddy = frame ^ (1 << order)
                    if frame in frames and buddy in frames:
                        frames.pop(frame)
                        frames.pop(buddy)
                        self.free_lists[order + 1][min(frame, buddy)] = None
                        changed = True

    # ------------------------------------------------------------------ #
    # Fragmentation and compaction
    # ------------------------------------------------------------------ #

    @property
    def free_frames(self) -> int:
        return sum(len(frames) << order for order, frames in enumerate(self.free_lists))

    @property
    def allocated_frames(self) -> int:
        return self.total_frames - self.free_frames

    def fragmentation_index(self, order: int = 9) -> float:
        """Free-memory fragmentation index for ``order`` (Linux FMFI).

        0 means free memory is perfectly contiguous for this order; values
        approaching 1 mean free memory exists only as small blocks. §6.3
        fragments memory to FMFI ~= 0.99 before measuring DMT overhead.
        """
        requested = 1 << order
        total_free = self.free_frames
        if total_free == 0:
            return 0.0
        blocks_sufficient = sum(
            len(frames)
            for ord_, frames in enumerate(self.free_lists)
            if (1 << ord_) >= requested
        )
        if blocks_sufficient:
            return 0.0
        total_blocks = sum(len(frames) for frames in self.free_lists)
        return 1.0 - (total_free / requested) / total_blocks

    def compact(self) -> int:
        """Migrate movable blocks toward high addresses to create contiguity.

        A simplified memory compactor: movable allocated blocks are
        relocated into free space at the top of the zone, merging the freed
        space at the bottom. Returns the number of migrated frames. Callers
        that relocate real contents (the kernel model) must re-map via the
        returned relocation table of :meth:`compact_with_map`.
        """
        migrated, _ = self.compact_with_map()
        return migrated

    def compact_with_map(self) -> tuple:
        """Compaction that also returns {old_frame: new_frame} per block head."""
        self.stats.compactions += 1
        relocation: Dict[int, int] = {}
        migrated = 0
        heads, base = self._heads, self.base_frame
        for frame in self._head_frames(_MOVABLE):
            code = heads[frame - base]
            npages = self._npages(frame, code)
            contig = frame in self._contig
            alignment = 1 if contig else npages
            target = self._highest_free_run(npages, above=frame + npages, alignment=alignment)
            if target is None:
                continue
            self._carve_run(target, npages)
            heads[frame - base] = 0
            heads[target - base] = code
            if contig:
                self._contig[target] = self._contig.pop(frame)
            self._release_run(frame, npages)
            relocation[frame] = target
            migrated += npages
        self.stats.pages_migrated += migrated
        return migrated, relocation

    def _highest_free_run(self, npages: int, above: int, alignment: int = 1) -> Optional[int]:
        best = None
        for start, length in self._free_frame_intervals():
            if start < above:
                # only the part of the interval above the threshold counts
                cut = above - start
                start, length = above, length - cut
            if length < npages:
                continue
            candidate = (start + length - npages) & ~(alignment - 1)
            if candidate >= start and (best is None or candidate > best):
                best = candidate
        return best

    def owned_blocks(self) -> Iterable[tuple]:
        """Yield (frame, npages, movable) for every allocated block, in
        frame order."""
        heads, base = self._heads, self.base_frame
        for frame in self._head_frames(0xFF):
            code = heads[frame - base]
            yield frame, self._npages(frame, code), bool(code & _MOVABLE)
