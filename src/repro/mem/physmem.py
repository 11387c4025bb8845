"""Physical memory: a frame space fronted by a buddy allocator.

``PhysicalMemory`` is the single authority for frame ownership in a
simulated machine. It stores 8-byte words for page-table pages only (data
pages carry no contents — the simulator never needs them), which lets the
radix walkers read real PTE values from real physical addresses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch import PAGE_SHIFT, PAGE_SIZE, PTE_SIZE
from repro.mem.buddy import BuddyAllocator


#: 8-byte words in a 64-byte cache line.
_LINE_WORDS = 64 // PTE_SIZE


def frame_to_addr(frame: int) -> int:
    return frame << PAGE_SHIFT

def addr_to_frame(addr: int) -> int:
    return addr >> PAGE_SHIFT


class PhysicalMemory:
    """Flat physical memory with word-granular storage for metadata pages."""

    def __init__(self, total_bytes: int):
        if total_bytes % PAGE_SIZE:
            raise ValueError("total_bytes must be page aligned")
        self.total_frames = total_bytes // PAGE_SIZE
        self.allocator = BuddyAllocator(self.total_frames)
        # sparse storage: word address (byte addr // 8) -> value
        self._words: Dict[int, int] = {}

    @property
    def total_bytes(self) -> int:
        return self.total_frames * PAGE_SIZE

    def read_word(self, addr: int) -> int:
        if addr % PTE_SIZE:
            raise ValueError(f"unaligned word read at {addr:#x}")
        return self._words.get(addr // PTE_SIZE, 0)

    def write_word(self, addr: int, value: int) -> None:
        if addr % PTE_SIZE:
            raise ValueError(f"unaligned word write at {addr:#x}")
        if value:
            self._words[addr // PTE_SIZE] = value
        else:
            self._words.pop(addr // PTE_SIZE, None)

    def read_words(self, addr: int, count: int) -> List[int]:
        """``count`` consecutive words from ``addr`` (0 where none was
        written)."""
        if addr % PTE_SIZE:
            raise ValueError(f"unaligned word read at {addr:#x}")
        words = self._words
        base = addr // PTE_SIZE
        return [words.get(word, 0) for word in range(base, base + count)]

    def write_words(self, addr: int, values: Sequence[Optional[int]]) -> None:
        """Write ``values`` to consecutive words from ``addr``, as
        :meth:`write_word` would one by one; None leaves a word alone."""
        if addr % PTE_SIZE:
            raise ValueError(f"unaligned word write at {addr:#x}")
        base = addr // PTE_SIZE
        words = self._words
        if all(values):  # no None and no zero to pop
            words.update(zip(range(base, base + len(values)), values))
            return
        for word, value in enumerate(values, base):
            if value:
                words[word] = value
            elif value is not None:
                words.pop(word, None)

    def take_line(self, addr: int) -> Dict[int, int]:
        """Clear the 64-byte line at ``addr``; returns its nonzero words
        as ``{offset: value}`` in word order. The same as reading each
        word in turn and writing 0 over it if it was nonzero."""
        if addr % PTE_SIZE:
            raise ValueError(f"unaligned word read at {addr:#x}")
        words = self._words
        base = addr // PTE_SIZE
        taken = {}
        for offset in range(_LINE_WORDS):
            value = words.pop(base + offset, None)
            if value is not None:
                taken[offset] = value
        return taken

    def put_line(self, addr: int, values: Dict[int, int]) -> None:
        """Write ``{offset: value}`` to the words from ``addr`` in the
        dict's order, as :meth:`write_word` would one by one."""
        if addr % PTE_SIZE:
            raise ValueError(f"unaligned word write at {addr:#x}")
        words = self._words
        base = addr // PTE_SIZE
        for offset, value in values.items():
            if value:
                words[base + offset] = value
            else:
                words.pop(base + offset, None)

    def read_page(self, frame: int) -> List[int]:
        """The page's words in order (0 where none was written)."""
        return self.read_words(frame_to_addr(frame), PAGE_SIZE // PTE_SIZE)

    def clear_page(self, frame: int) -> None:
        base = frame_to_addr(frame) // PTE_SIZE
        words = self._words
        for word in words.keys() & range(base, base + PAGE_SIZE // PTE_SIZE):
            del words[word]

    def copy_page(self, src_frame: int, dst_frame: int) -> None:
        src = frame_to_addr(src_frame) // PTE_SIZE
        dst = frame_to_addr(dst_frame) // PTE_SIZE
        for word in range(PAGE_SIZE // PTE_SIZE):
            value = self._words.get(src + word)
            if value is None:
                self._words.pop(dst + word, None)
            else:
                self._words[dst + word] = value
