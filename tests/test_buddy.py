"""Tests for the buddy allocator, including property-based invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.buddy import (
    MAX_ORDER,
    BuddyAllocator,
    ContiguityError,
    OutOfMemoryError,
)

TOTAL = 1 << 12  # 4096 frames = 16 MiB


@pytest.fixture
def buddy():
    return BuddyAllocator(TOTAL)


class TestBasicOps:
    def test_initial_state_all_free(self, buddy):
        assert buddy.free_frames == TOTAL
        assert buddy.allocated_frames == 0

    def test_alloc_free_roundtrip(self, buddy):
        frame = buddy.alloc_pages(0)
        assert buddy.free_frames == TOTAL - 1
        buddy.free_pages(frame)
        assert buddy.free_frames == TOTAL

    def test_alloc_order_alignment(self, buddy):
        for order in range(MAX_ORDER):
            frame = buddy.alloc_pages(order)
            assert frame % (1 << order) == 0
            buddy.free_pages(frame)

    def test_allocations_do_not_overlap(self, buddy):
        seen = set()
        for _ in range(64):
            frame = buddy.alloc_pages(3)
            block = set(range(frame, frame + 8))
            assert not block & seen
            seen |= block

    def test_double_free_rejected(self, buddy):
        frame = buddy.alloc_pages(0)
        buddy.free_pages(frame)
        with pytest.raises(ValueError):
            buddy.free_pages(frame)

    def test_free_wrong_order_rejected(self, buddy):
        frame = buddy.alloc_pages(2)
        with pytest.raises(ValueError):
            buddy.free_pages(frame, order=3)

    def test_oom(self):
        tiny = BuddyAllocator(4)
        frames = [tiny.alloc_pages(0) for _ in range(4)]
        with pytest.raises(OutOfMemoryError):
            tiny.alloc_pages(0)
        for frame in frames:
            tiny.free_pages(frame)

    def test_coalescing_restores_high_orders(self, buddy):
        frames = [buddy.alloc_pages(0) for _ in range(TOTAL)]
        for frame in frames:
            buddy.free_pages(frame)
        # after freeing everything, a max-order block must be allocatable
        frame = buddy.alloc_pages(MAX_ORDER - 1)
        buddy.free_pages(frame)


class TestContig:
    def test_contig_alloc_is_contiguous(self, buddy):
        base = buddy.alloc_contig(300)
        assert buddy.allocated_frames == 300
        buddy.free_contig(base, 300)
        assert buddy.free_frames == TOTAL

    def test_contig_non_power_of_two(self, buddy):
        base = buddy.alloc_contig(777)
        buddy.free_contig(base, 777)
        assert buddy.free_frames == TOTAL

    def test_contig_fails_when_fragmented(self, buddy):
        held = [buddy.alloc_pages(0, movable=False) for _ in range(TOTAL)]
        for frame in held[::2]:
            buddy.free_pages(frame)
        with pytest.raises(ContiguityError):
            buddy.alloc_contig(2)

    def test_expand_contig_in_place(self, buddy):
        base = buddy.alloc_contig(64)
        assert buddy.expand_contig(base, 64, 64)
        buddy.free_contig(base, 128)
        assert buddy.free_frames == TOTAL

    def test_expand_contig_blocked(self, buddy):
        base = buddy.alloc_contig(64)
        blocker = buddy.alloc_contig(1)  # lands right after
        if blocker == base + 64:
            assert not buddy.expand_contig(base, 64, 64)
        buddy.free_contig(blocker, 1)

    def test_shrink_contig_keeps_base(self, buddy):
        base = buddy.alloc_contig(100)
        buddy.shrink_contig(base, 100, 40)
        assert buddy.allocated_frames == 40
        buddy.free_contig(base, 40)
        assert buddy.free_frames == TOTAL

    def test_shrink_contig_validates(self, buddy):
        base = buddy.alloc_contig(10)
        with pytest.raises(ValueError):
            buddy.shrink_contig(base, 10, 0)
        with pytest.raises(ValueError):
            buddy.shrink_contig(base + 1, 10, 5)


class TestFragmentationIndex:
    def test_pristine_memory_is_unfragmented(self, buddy):
        assert buddy.fragmentation_index(9) == 0.0

    def test_fully_fragmented_memory(self, buddy):
        held = [buddy.alloc_pages(0, movable=False) for _ in range(TOTAL)]
        for frame in held[::2]:
            buddy.free_pages(frame)
        assert buddy.fragmentation_index(9) > 0.9


class TestCompaction:
    def test_compaction_creates_contiguity(self, buddy):
        held = [buddy.alloc_pages(0, movable=True) for _ in range(TOTAL)]
        for frame in held[::2]:
            buddy.free_pages(frame)
        with pytest.raises(ContiguityError):
            buddy.alloc_contig(TOTAL // 4)
        migrated = buddy.compact()
        assert migrated > 0
        base = buddy.alloc_contig(TOTAL // 4)
        buddy.free_contig(base, TOTAL // 4)

    def test_compaction_skips_unmovable(self, buddy):
        pinned = buddy.alloc_pages(0, movable=False)
        _, relocation = buddy.compact_with_map()
        assert pinned not in relocation


@st.composite
def alloc_script(draw):
    """A random sequence of (order) allocations with interleaved frees."""
    return draw(st.lists(
        st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=60,
    ))


class TestProperties:
    @given(alloc_script())
    @settings(max_examples=60, deadline=None)
    def test_frame_conservation_and_no_overlap(self, script):
        buddy = BuddyAllocator(TOTAL)
        live = {}
        owned = set()
        for order, free_one in script:
            try:
                frame = buddy.alloc_pages(order)
            except OutOfMemoryError:
                continue
            block = set(range(frame, frame + (1 << order)))
            assert not block & owned, "allocator handed out overlapping frames"
            owned |= block
            live[frame] = order
            if free_one and live:
                victim, v_order = next(iter(live.items()))
                buddy.free_pages(victim)
                owned -= set(range(victim, victim + (1 << v_order)))
                del live[victim]
            assert buddy.free_frames + len(owned) == TOTAL
        for frame, order in live.items():
            buddy.free_pages(frame)
        assert buddy.free_frames == TOTAL

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_contig_blocks_disjoint(self, sizes):
        buddy = BuddyAllocator(TOTAL)
        owned = set()
        blocks = []
        for npages in sizes:
            try:
                base = buddy.alloc_contig(npages)
            except OutOfMemoryError:
                break
            block = set(range(base, base + npages))
            assert not block & owned
            owned |= block
            blocks.append((base, npages))
        for base, npages in blocks:
            buddy.free_contig(base, npages)
        assert buddy.free_frames == TOTAL


# --------------------------------------------------------------------- #
# alloc_run: a run of order-0 allocations in one call
# --------------------------------------------------------------------- #

def _state(buddy):
    """Everything an allocation changes, with dict orders kept."""
    return ([list(blocks) for blocks in buddy.free_lists],
            list(buddy._allocated.items()), set(buddy._movable),
            vars(buddy.stats).copy())


@st.composite
def fragmenting_history(draw):
    """Random alloc_pages / free_pages / alloc_contig steps: each is
    ("page", order, movable), ("contig", npages) or ("free", pick)."""
    step = st.one_of(
        st.tuples(st.just("page"), st.integers(0, 6), st.booleans()),
        st.tuples(st.just("contig"), st.integers(1, 90)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
    )
    return draw(st.lists(step, max_size=40))


def _replay(history, total):
    """A fresh allocator with ``history`` applied (failed steps skipped)."""
    buddy = BuddyAllocator(total)
    live = []
    for action in history:
        try:
            if action[0] == "page":
                live.append(buddy.alloc_pages(action[1], movable=action[2]))
            elif action[0] == "contig":
                live.append((buddy.alloc_contig(action[1]), action[1]))
            elif live:
                block = live.pop(action[1] % len(live))
                if isinstance(block, tuple):
                    buddy.free_contig(*block)
                else:
                    buddy.free_pages(block)
        except OutOfMemoryError:
            pass
    return buddy


def _sequential(buddy, count, movable):
    """``count`` alloc_pages(0) calls: (frames, failed)."""
    frames = []
    for _ in range(count):
        try:
            frames.append(buddy.alloc_pages(0, movable=movable))
        except OutOfMemoryError:
            return frames, True
    return frames, False


class TestAllocRun:
    @given(fragmenting_history(), st.integers(0, 700), st.booleans(),
           st.sampled_from([512, 1000, TOTAL]))
    @settings(max_examples=150, deadline=None)
    def test_equals_sequential_order0_allocations(self, history, count,
                                                  movable, total):
        expected_buddy = _replay(history, total)
        buddy = _replay(history, total)
        expected, failed = _sequential(expected_buddy, count, movable)
        if failed:
            with pytest.raises(OutOfMemoryError):
                buddy.alloc_run(count, movable=movable)
        else:
            assert buddy.alloc_run(count, movable=movable) == expected
        assert _state(buddy) == _state(expected_buddy)

    def test_drains_order0_list_then_splits_partway(self):
        history = [("page", 0, True)] * 5 + [("free", 0), ("free", 2)] \
            + [("page", 3, False)]
        buddy = _replay(history, TOTAL)
        reference = _replay(history, TOTAL)
        assert buddy.free_lists[0], "the history leaves order-0 blocks"
        # drains the order-0 list, then cuts a high-order block partway
        count = len(buddy.free_lists[0]) + sum(
            1 << order for order in range(1, 4)
            if buddy.free_lists[order]) + 5
        frames = buddy.alloc_run(count)
        assert frames == _sequential(reference, count, True)[0]
        assert frames[-5:] == list(range(16, 21))  # an order-4 block, cut
        assert _state(buddy) == _state(reference)

    def test_oom_keeps_the_frames_before_the_failing_call(self):
        buddy = BuddyAllocator(64)
        reference = BuddyAllocator(64)
        for allocator in (buddy, reference):
            allocator.alloc_contig(40)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_run(30, movable=False)
        frames, failed = _sequential(reference, 30, movable=False)
        assert failed and len(frames) == 24
        assert _state(buddy) == _state(reference)

    def test_zero_and_negative_counts(self, buddy):
        before = _state(buddy)
        assert buddy.alloc_run(0) == []
        assert _state(buddy) == before
        with pytest.raises(ValueError):
            buddy.alloc_run(-1)
