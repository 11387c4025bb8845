"""Physical memory: a frame space fronted by a buddy allocator.

``PhysicalMemory`` is the single authority for frame ownership in a
simulated machine. It stores 8-byte words for page-table pages only (data
pages carry no contents — the simulator never needs them), which lets the
radix walkers read real PTE values from real physical addresses.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch import PAGE_SHIFT, PAGE_SIZE, PTE_SIZE
from repro.mem.buddy import BuddyAllocator


#: 8-byte words in a 64-byte cache line.
_LINE_WORDS = 64 // PTE_SIZE
#: 8-byte words in a 4 KB page.
_PAGE_WORDS = PAGE_SIZE // PTE_SIZE
_ZERO_PAGE = bytes(PAGE_SIZE)
_ZERO_LINE = array("Q", bytes(64))


def frame_to_addr(frame: int) -> int:
    return frame << PAGE_SHIFT

def addr_to_frame(addr: int) -> int:
    return addr >> PAGE_SHIFT


def _check_aligned(addr: int, what: str) -> None:
    if addr % PTE_SIZE:
        raise ValueError(f"unaligned word {what} at {addr:#x}")


def _spans(addr: int, count: int) -> Iterator[Tuple[int, int, int, int]]:
    """Split ``count`` words from ``addr`` by page: ``(frame, lo, hi,
    start)`` for words ``lo:hi`` of ``frame``, ``start`` being the index
    of word ``lo`` in the run."""
    frame = addr >> PAGE_SHIFT
    lo = addr % PAGE_SIZE // PTE_SIZE
    start = 0
    while start < count:
        hi = min(_PAGE_WORDS, lo + count - start)
        yield frame, lo, hi, start
        start += hi - lo
        frame += 1
        lo = 0


class PhysicalMemory:
    """Flat physical memory with word-granular storage for metadata pages.

    Words live in one ``array('Q')`` of 512 words per frame, created on
    the frame's first nonzero write and dropped by :meth:`clear_page`.
    Reading an absent frame gives 0 and creates nothing; a value that
    does not fit in 64 unsigned bits raises ``OverflowError``.
    """

    def __init__(self, total_bytes: int):
        if total_bytes % PAGE_SIZE:
            raise ValueError("total_bytes must be page aligned")
        self.total_frames = total_bytes // PAGE_SIZE
        self.allocator = BuddyAllocator(self.total_frames)
        # sparse storage: frame -> its 512 words, for frames ever written
        self._pages: Dict[int, array] = {}

    @property
    def total_bytes(self) -> int:
        return self.total_frames * PAGE_SIZE

    def _page_for_write(self, frame: int) -> array:
        page = self._pages.get(frame)
        if page is None:
            page = self._pages[frame] = array("Q", _ZERO_PAGE)
        return page

    def read_word(self, addr: int) -> int:
        _check_aligned(addr, "read")
        page = self._pages.get(addr >> PAGE_SHIFT)
        return 0 if page is None else page[addr % PAGE_SIZE // PTE_SIZE]

    def write_word(self, addr: int, value: int) -> None:
        _check_aligned(addr, "write")
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            if not value:
                return
            page = self._page_for_write(addr >> PAGE_SHIFT)
        page[addr % PAGE_SIZE // PTE_SIZE] = value

    def read_words(self, addr: int, count: int) -> List[int]:
        """``count`` consecutive words from ``addr`` (0 where none was
        written)."""
        _check_aligned(addr, "read")
        pages = self._pages
        words: List[int] = []
        for frame, lo, hi, _ in _spans(addr, count):
            page = pages.get(frame)
            words += [0] * (hi - lo) if page is None else page[lo:hi].tolist()
        return words

    def write_words(self, addr: int, values: Sequence[Optional[int]]) -> None:
        """Write ``values`` to consecutive words from ``addr``, as
        :meth:`write_word` would one by one; None leaves a word alone."""
        _check_aligned(addr, "write")
        pages = self._pages
        whole = None not in values
        for frame, lo, hi, start in _spans(addr, len(values)):
            run = values[start:start + hi - lo]
            page = pages.get(frame)
            if page is None:
                if not any(run):
                    continue
                page = self._page_for_write(frame)
            if whole:
                page[lo:hi] = array("Q", run)
            else:
                for index, value in enumerate(run, lo):
                    if value is not None:
                        page[index] = value

    def take_line(self, addr: int) -> Dict[int, int]:
        """Clear the 64-byte line at ``addr``; returns its nonzero words
        as ``{offset: value}`` in word order. The same as reading each
        word in turn and writing 0 over it if it was nonzero."""
        _check_aligned(addr, "read")
        taken = {}
        for frame, lo, hi, start in _spans(addr, _LINE_WORDS):
            page = self._pages.get(frame)
            if page is None:
                continue
            for offset, value in enumerate(page[lo:hi], start):
                if value:
                    taken[offset] = value
            page[lo:hi] = _ZERO_LINE[:hi - lo]
        return taken

    def put_line(self, addr: int, values: Dict[int, int]) -> None:
        """Write ``{offset: value}`` to the words from ``addr`` in the
        dict's order, as :meth:`write_word` would one by one."""
        _check_aligned(addr, "write")
        index = addr % PAGE_SIZE // PTE_SIZE
        if index + _LINE_WORDS > _PAGE_WORDS:  # the line crosses a page
            for offset, value in values.items():
                self.write_word(addr + offset * PTE_SIZE, value)
            return
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            if not any(values.values()):
                return
            page = self._page_for_write(addr >> PAGE_SHIFT)
        for offset, value in values.items():
            page[index + offset] = value

    def read_page(self, frame: int) -> List[int]:
        """The page's words in order (0 where none was written)."""
        page = self._pages.get(frame)
        return [0] * _PAGE_WORDS if page is None else page.tolist()

    def clear_page(self, frame: int) -> None:
        self._pages.pop(frame, None)

    def copy_page(self, src_frame: int, dst_frame: int) -> None:
        src = self._pages.get(src_frame)
        if src is None or not any(src):
            self._pages.pop(dst_frame, None)
        else:
            self._page_for_write(dst_frame)[:] = src
