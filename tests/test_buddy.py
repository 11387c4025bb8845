"""Tests for the buddy allocator, including property-based invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

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
    """Everything an allocation changes, with free-list orders kept."""
    return ([list(blocks) for blocks in buddy.free_lists],
            list(buddy.owned_blocks()),
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


# --------------------------------------------------------------------- #
# Per-frame block heads against per-block dict/set bookkeeping
# --------------------------------------------------------------------- #

class _DictBuddy(BuddyAllocator):
    """Reference: block heads kept as a ``{frame: order}`` dict (a
    contig block's order is ``-npages``) in allocation order and a set
    of movable heads, as the allocator kept them before its per-frame
    head bytes. The free-list helpers are shared. A free that raises
    leaves both alone, and ``free_pages`` of a contig block raises a
    ValueError naming it."""

    def __init__(self, total_frames):
        super().__init__(total_frames)
        self._allocated = {}
        self._movable = set()

    def alloc_pages(self, order=0, movable=True):
        if not 0 <= order < MAX_ORDER:
            raise ValueError(f"order {order} out of range")
        for current in range(order, MAX_ORDER):
            if self.free_lists[current]:
                frame = next(iter(self.free_lists[current]))
                self.free_lists[current].pop(frame)
                while current > order:
                    current -= 1
                    self.free_lists[current][frame + (1 << current)] = None
                self._allocated[frame] = order
                if movable:
                    self._movable.add(frame)
                self.stats.allocations += 1
                return frame
        raise OutOfMemoryError(f"no free block of order {order}")

    def alloc_run(self, count, movable=True):
        if count < 0:
            raise ValueError("count must not be negative")
        frames = []
        try:
            for _ in range(count):
                order = next((order for order in range(MAX_ORDER)
                              if self.free_lists[order]), None)
                if order is None:
                    raise OutOfMemoryError("no free block of order 0")
                frame = next(iter(self.free_lists[order]))
                del self.free_lists[order][frame]
                while order > 0:
                    order -= 1
                    self.free_lists[order][frame + (1 << order)] = None
                frames.append(frame)
        finally:
            self._allocated.update(dict.fromkeys(frames, 0))
            if movable:
                self._movable.update(frames)
            self.stats.allocations += len(frames)
        return frames

    def free_pages(self, frame, order=None):
        actual = self._allocated.get(frame)
        if actual is None:
            raise ValueError(f"frame {frame} is not an allocated block head")
        if actual < 0:
            raise ValueError(f"frame {frame} heads a {-actual}-frame "
                             f"contig block")
        if order is not None and order != actual:
            raise ValueError(f"frame {frame} was allocated at order {actual}, not {order}")
        del self._allocated[frame]
        self._movable.discard(frame)
        self.stats.frees += 1
        current = actual
        while current < MAX_ORDER - 1:
            buddy = frame ^ (1 << current)
            if buddy not in self.free_lists[current]:
                break
            self.free_lists[current].pop(buddy)
            frame = min(frame, buddy)
            current += 1
        self.free_lists[current][frame] = None

    def alloc_contig(self, npages, movable=False):
        if npages <= 0:
            raise ValueError("npages must be positive")
        run = self._find_free_run(npages)
        if run is None:
            self.stats.contig_failures += 1
            raise ContiguityError(f"no contiguous run of {npages} frames")
        self._carve_run(run, npages)
        self._allocated[run] = -npages
        if movable:
            self._movable.add(run)
        self.stats.contig_allocations += 1
        return run

    def _check_contig(self, frame, npages):
        if self._allocated.get(frame) != -npages:
            raise ValueError(f"frame {frame} is not a {npages}-frame contig block")

    def free_contig(self, frame, npages):
        self._check_contig(frame, npages)
        del self._allocated[frame]
        self._movable.discard(frame)
        self.stats.frees += 1
        self._release_run(frame, npages)

    def expand_contig(self, frame, npages, extra):
        self._check_contig(frame, npages)
        start = frame + npages
        if not self._find_free_run_at(start, extra):
            return False
        self._carve_run(start, extra)
        self._allocated[frame] = -(npages + extra)
        return True

    def shrink_contig(self, frame, npages, new_npages):
        self._check_contig(frame, npages)
        if not 0 < new_npages <= npages:
            raise ValueError("new_npages must be within the current block")
        if new_npages == npages:
            return
        self._allocated[frame] = -new_npages
        self._release_run(frame + new_npages, npages - new_npages)

    def compact_with_map(self):
        self.stats.compactions += 1
        relocation = {}
        migrated = 0
        for frame in sorted(self._movable):
            order = self._allocated[frame]
            npages = (1 << order) if order >= 0 else -order
            alignment = (1 << order) if order > 0 else 1
            target = self._highest_free_run(npages, above=frame + npages,
                                            alignment=alignment)
            if target is None:
                continue
            self._carve_run(target, npages)
            del self._allocated[frame]
            self._movable.discard(frame)
            self._allocated[target] = order
            self._movable.add(target)
            self._release_run(frame, npages)
            relocation[frame] = target
            migrated += npages
        self.stats.pages_migrated += migrated
        return migrated, relocation

    def owned_blocks(self):
        for frame, order in sorted(self._allocated.items()):
            npages = (1 << order) if order >= 0 else -order
            yield frame, npages, frame in self._movable


@st.composite
def bookkeeping_history(draw):
    """Random steps over every operation that reads or writes a block
    head. ``pick`` chooses a block by index (see :func:`_apply`);
    ``delta`` skews a size or order so that some calls fail."""
    pick = st.integers(0, 30)
    delta = st.sampled_from([0, 0, 0, 1, -1])
    step = st.one_of(
        st.tuples(st.just("page"), st.integers(0, 6), st.booleans()),
        st.tuples(st.just("run"), st.integers(0, 90), st.booleans()),
        st.tuples(st.just("contig"), st.integers(1, 90), st.booleans()),
        st.tuples(st.just("free"), pick, st.sampled_from([None, 0, 1])),
        st.tuples(st.just("free_contig"), pick, delta),
        st.tuples(st.just("expand"), pick, delta, st.integers(1, 40)),
        st.tuples(st.just("shrink"), pick, delta, st.integers(1, 60)),
        st.tuples(st.just("compact")),
    )
    return draw(st.lists(step, max_size=40))


def _apply(buddy, action, blocks):
    """Run ``action`` on ``buddy``. ``blocks`` lists the live blocks
    (as the reference's ``owned_blocks()`` gives them) and then the
    blocks that were live once but are freed or moved now; a pick past
    them all takes a frame inside the first block, or frame 0."""
    op = action[0]
    if op in ("page", "contig"):
        alloc = buddy.alloc_pages if op == "page" else buddy.alloc_contig
        return alloc(action[1], movable=action[2])
    if op == "run":
        return buddy.alloc_run(action[1], movable=action[2])
    if op == "compact":
        return buddy.compact_with_map()
    pick = action[1] % (len(blocks) + 1)
    if pick < len(blocks):
        frame, npages, _ = blocks[pick]
    else:
        frame, npages = (blocks[0][0] + 1, 1) if blocks else (0, 1)
    if op == "free":
        order = action[2]
        if order is not None:
            order = max(0, npages.bit_length() - 1 + order)
        return buddy.free_pages(frame, order)
    npages = max(1, npages + action[2])
    if op == "free_contig":
        return buddy.free_contig(frame, npages)
    if op == "expand":
        return buddy.expand_contig(frame, npages, action[3])
    return buddy.shrink_contig(frame, npages, action[3])


class TestBlockHeads:
    @given(bookkeeping_history(), st.sampled_from([512, 1000]))
    @example([("contig", 5, True), ("compact",), ("free_contig", 1, 0)], 512)
    @settings(max_examples=200, deadline=None)
    def test_equals_dict_bookkeeping(self, history, total):
        """After every operation: the same return value or error, the
        same free lists in order, the same blocks and the same stats."""
        buddy, reference = BuddyAllocator(total), _DictBuddy(total)
        seen = {}
        for action in history:
            live = list(reference.owned_blocks())
            seen.update(dict.fromkeys(live))
            blocks = live + [block for block in seen if block not in live]
            outcomes = []
            for allocator in (buddy, reference):
                try:
                    outcomes.append(("ok", _apply(allocator, action, blocks)))
                except (ValueError, OutOfMemoryError) as error:
                    outcomes.append((type(error), str(error)))
            assert outcomes[0] == outcomes[1], action
            assert _state(buddy) == _state(reference), action

    def test_failed_frees_change_nothing(self, buddy):
        page = buddy.alloc_pages(2)
        contig = buddy.alloc_contig(5, movable=True)
        before = _state(buddy)
        for call in (lambda: buddy.free_pages(page, 1),
                     lambda: buddy.free_pages(contig),
                     lambda: buddy.free_pages(page + 1),
                     lambda: buddy.free_pages(-1),
                     lambda: buddy.free_pages(TOTAL),
                     lambda: buddy.free_contig(contig, 4),
                     lambda: buddy.free_contig(page, 4)):
            with pytest.raises(ValueError):
                call()
            assert _state(buddy) == before
        assert list(buddy.owned_blocks()) == [(page, 4, True),
                                              (contig, 5, True)]
