"""Tests for physical memory and the fragmentation tool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import PAGE_SIZE
from repro.mem.buddy import BuddyAllocator, ContiguityError
from repro.mem.fragmentation import fragment
from repro.mem.physmem import PhysicalMemory, addr_to_frame, frame_to_addr


class TestPhysicalMemory:
    def test_geometry(self):
        mem = PhysicalMemory(64 * PAGE_SIZE)
        assert mem.total_frames == 64
        assert mem.total_bytes == 64 * PAGE_SIZE

    def test_rejects_unaligned_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(PAGE_SIZE + 1)

    def test_word_read_write(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write_word(0x1000, 0xDEAD)
        assert mem.read_word(0x1000) == 0xDEAD
        assert mem.read_word(0x2000) == 0  # zero-fill semantics

    def test_unaligned_word_access_rejected(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        with pytest.raises(ValueError):
            mem.read_word(0x1001)
        with pytest.raises(ValueError):
            mem.write_word(0x1004, 1)  # 4-byte aligned but not 8

    def test_write_zero_clears(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write_word(0x1000, 7)
        mem.write_word(0x1000, 0)
        assert mem.read_word(0x1000) == 0

    def test_clear_page(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        for offset in range(0, PAGE_SIZE, 8):
            mem.write_word(0x3000 + offset, offset + 1)
        mem.clear_page(3)
        assert all(mem.read_word(0x3000 + o) == 0 for o in range(0, PAGE_SIZE, 8))

    def test_copy_page(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write_word(0x1000, 0xAA)
        mem.write_word(0x1FF8, 0xBB)
        mem.write_word(0x2008, 0x99)  # stale content in the destination
        mem.copy_page(1, 2)
        assert mem.read_word(0x2000) == 0xAA
        assert mem.read_word(0x2FF8) == 0xBB
        assert mem.read_word(0x2008) == 0  # stale word overwritten by zero

    def test_frame_addr_helpers(self):
        assert frame_to_addr(3) == 0x3000
        assert addr_to_frame(0x3FFF) == 3


#: Frames of the page-store property's memory; words near a page's ends
#: are drawn often, so that runs and lines cross page boundaries.
_FRAMES = 3
_WORDS = PAGE_SIZE // 8
_word_addrs = st.builds(
    lambda frame, index: frame * PAGE_SIZE + index * 8,
    st.integers(0, _FRAMES - 1),
    st.one_of(st.integers(0, _WORDS - 1), st.integers(_WORDS - 12, _WORDS - 1),
              st.integers(0, 11)))
_values = st.sampled_from([0, 0, 1, 0x1003, 2**63, 2**64 - 1])
_ops = st.one_of(
    st.tuples(st.just("write_word"), _word_addrs, _values),
    st.tuples(st.just("write_words"), _word_addrs,
              st.lists(st.one_of(st.none(), _values), max_size=24)),
    st.tuples(st.just("put_line"), _word_addrs,
              st.dictionaries(st.integers(0, 7), _values, max_size=8)),
    st.tuples(st.just("take_line"), _word_addrs),
    st.tuples(st.just("clear_page"), st.integers(0, _FRAMES - 1)),
    st.tuples(st.just("copy_page"), st.integers(0, _FRAMES - 1),
              st.integers(0, _FRAMES - 1)),
)


class TestPageStore:
    """``PhysicalMemory`` keeps one 512-word array per written frame;
    every call must behave as it would on a dict of nonzero words."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ops, max_size=30))
    def test_histories_match_a_word_dict_model(self, history):
        mem = PhysicalMemory((_FRAMES + 1) * PAGE_SIZE)
        model = {}  # word address -> nonzero value
        written = set()  # frames given a nonzero word since their clear

        def store(addr, value):
            if value:
                model[addr] = value
                written.add(addr // PAGE_SIZE)
            else:
                model.pop(addr, None)

        for op, *args in history:
            if op == "write_word":
                mem.write_word(*args)
                store(*args)
            elif op == "write_words":
                addr, values = args
                mem.write_words(addr, values)
                for index, value in enumerate(values):
                    if value is not None:
                        store(addr + index * 8, value)
            elif op == "put_line":
                addr, values = args
                mem.put_line(addr, values)
                for offset, value in values.items():
                    store(addr + offset * 8, value)
            elif op == "take_line":
                addr, = args
                expected = {offset: model.pop(addr + offset * 8)
                            for offset in range(8)
                            if addr + offset * 8 in model}
                assert mem.take_line(addr) == expected
            elif op == "clear_page":
                frame, = args
                mem.clear_page(frame)
                written.discard(frame)
                for word in range(_WORDS):
                    model.pop(frame * PAGE_SIZE + word * 8, None)
            else:
                src, dst = args
                copied = [model.get(src * PAGE_SIZE + word * 8, 0)
                          for word in range(_WORDS)]
                mem.copy_page(src, dst)
                for word, value in enumerate(copied):
                    store(dst * PAGE_SIZE + word * 8, value)
            for frame in range(_FRAMES + 1):
                words = [model.get(frame * PAGE_SIZE + word * 8, 0)
                         for word in range(_WORDS)]
                assert mem.read_page(frame) == words
            for addr in model:
                assert mem.read_word(addr) == model[addr]
            assert set(mem._pages) <= written
        assert mem.read_words(0, (_FRAMES + 1) * _WORDS) == [
            model.get(word * 8, 0) for word in range((_FRAMES + 1) * _WORDS)]

    def test_runs_cross_page_boundaries(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        start = 2 * PAGE_SIZE - 3 * 8
        mem.write_words(start, [1, 2, 3, 4, 5])
        assert mem.read_words(start - 8, 7) == [0, 1, 2, 3, 4, 5, 0]
        assert sorted(mem._pages) == [1, 2]
        mem.write_words(start + 8, [None, 0, None, 9])
        assert mem.read_words(start, 5) == [1, 2, 0, 4, 9]
        mem.put_line(start, {0: 7, 4: 8, 7: 6})
        assert mem.read_words(start, 8) == [7, 2, 0, 4, 8, 0, 0, 6]
        assert mem.take_line(start) == {0: 7, 1: 2, 3: 4, 4: 8, 7: 6}
        assert mem.read_words(start, 8) == [0] * 8
        assert mem.read_page(1)[:-3] == [0] * (_WORDS - 3)

    def test_reads_and_zero_writes_create_no_page(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        assert mem.read_word(0x1008) == 0
        assert mem.read_words(0x1ff0, 8) == [0] * 8
        assert mem.read_page(2) == [0] * _WORDS
        assert mem.take_line(0x2000) == {}
        mem.write_word(0x1000, 0)
        mem.write_words(0x1ff0, [0, None, 0, 0])
        mem.put_line(0x2040, {0: 0, 3: 0})
        mem.copy_page(3, 1)
        assert mem._pages == {}
        mem.write_word(0x1000, 5)
        mem.clear_page(1)
        assert mem._pages == {}

    @pytest.mark.parametrize("value", [2**64, 2**70, -1])
    def test_values_beyond_64_bits_raise(self, value):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        with pytest.raises(OverflowError):
            mem.write_word(0x1000, value)
        with pytest.raises(OverflowError):
            mem.write_words(0x1000, [1, value])
        with pytest.raises(OverflowError):
            mem.write_words(0x1000, [None, value])
        with pytest.raises(OverflowError):
            mem.put_line(0x1000, {2: value})
        assert mem.read_words(0x1000, 3) == [0, 0, 0]


class TestFragmentTool:
    def test_reaches_paper_fragmentation_level(self):
        buddy = BuddyAllocator(1 << 14)
        index = fragment(buddy, target_index=0.99)
        # §6.3 fragments to FMFI ~= 0.99 before measuring overheads
        assert index >= 0.99
        assert buddy.free_frames > 0

    def test_contig_allocation_fails_after_fragmenting(self):
        buddy = BuddyAllocator(1 << 14)
        fragment(buddy)
        with pytest.raises(ContiguityError):
            buddy.alloc_contig(512)

    def test_deterministic_given_seed(self):
        b1, b2 = BuddyAllocator(1 << 12), BuddyAllocator(1 << 12)
        assert fragment(b1, seed=5) == fragment(b2, seed=5)
        assert b1.free_frames == b2.free_frames
