"""Tests for the radix page table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize
from repro.kernel import thp
from repro.kernel.page_table import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_HUGE,
    PTE_PRESENT,
    RadixPageTable,
    TablePlacementPolicy,
    make_pte,
    pte_frame,
)
from repro.kernel.process import Process
from repro.mem.physmem import PhysicalMemory

MB = 1 << 20
BASE = 0x7F00_0000_0000


@pytest.fixture
def memory():
    return PhysicalMemory(128 * MB)


@pytest.fixture
def table(memory):
    return RadixPageTable(memory)


class TestMapping:
    def test_map_translate_roundtrip(self, table):
        slot = table.map(BASE, 100)
        assert table.translate(BASE) == (100 * PAGE_SIZE, PageSize.SIZE_4K)
        assert table.translate(BASE + 0x123) == (100 * PAGE_SIZE + 0x123,
                                                 PageSize.SIZE_4K)
        assert table.memory.read_word(slot) == make_pte(100)

    def test_unmapped_translates_to_none(self, table):
        assert table.translate(BASE) is None

    def test_unmap(self, table):
        table.map(BASE, 100)
        assert table.unmap(BASE) == 100
        assert table.translate(BASE) is None
        assert table.unmap(BASE) is None

    def test_huge_page_2m(self, table):
        table.map(BASE, 512, PageSize.SIZE_2M)
        pa, size = table.translate(BASE + 0x12345)
        assert size == PageSize.SIZE_2M
        assert pa == 512 * PAGE_SIZE + 0x12345

    def test_huge_page_1g(self, table):
        table.map(BASE, 512 * 512, PageSize.SIZE_1G)
        pa, size = table.translate(BASE + 0x1234567)
        assert size == PageSize.SIZE_1G

    def test_huge_page_requires_alignment(self, table):
        with pytest.raises(ValueError):
            table.map(BASE, 100, PageSize.SIZE_2M)  # frame not 512-aligned

    def test_mapping_under_huge_page_rejected(self, table):
        table.map(BASE, 512, PageSize.SIZE_2M)
        with pytest.raises(ValueError):
            table.map(BASE + PAGE_SIZE, 7, PageSize.SIZE_4K)

    def test_map_run_huge_page_over_a_leaf_table(self, table):
        """A 2 MB ``map_run`` over a 4 KB leaf table behaves like ``map``:
        refused while the table still maps a page (which stays mapped),
        and once the table is empty it is released."""
        table.map(0x203000, 7)
        leaf = table.table_frame(0x200000, 1)
        freed = table.stats.tables_freed
        with pytest.raises(ValueError, match="still maps pages"):
            table.map_run(0x200000, 1, PageSize.SIZE_2M,
                          lambda va, olds: [512])
        assert table.table_frame(0x200000, 1) == leaf
        assert table.translate(0x203000) == (7 * PAGE_SIZE, PageSize.SIZE_4K)
        assert table.mapped_pages == 1
        table.unmap(0x203000)
        assert table.map_run(0x200000, 1, PageSize.SIZE_2M,
                             lambda va, olds: [512]) == 1
        assert table.table_frame(0x200000, 1) is None
        assert table.stats.tables_freed == freed + 1
        assert table.translate(0x200000) == (512 * PAGE_SIZE,
                                             PageSize.SIZE_2M)

    def test_table_page_accounting(self, table):
        assert table.table_pages == 1  # root only
        table.map(BASE, 100)
        assert table.table_pages == 4  # root + L3 + L2 + L1
        table.map(BASE + PAGE_SIZE, 101)  # same leaf table
        assert table.table_pages == 4

    def test_five_level_tree(self, memory):
        table5 = RadixPageTable(memory, levels=5)
        table5.map(BASE, 99)
        assert table5.translate(BASE)[0] == 99 * PAGE_SIZE
        assert len(table5.walk_steps(BASE)) == 5

    def test_invalid_level_count(self, memory):
        with pytest.raises(ValueError):
            RadixPageTable(memory, levels=3)


class TestWalkSteps:
    def test_walk_is_four_sequential_fetches(self, table):
        table.map(BASE, 100)
        steps = table.walk_steps(BASE)
        assert [s.level for s in steps] == [4, 3, 2, 1]
        assert steps[-1].is_leaf
        assert pte_frame(steps[-1].pte_value) == 100
        # every step's entry address must be unique physical memory
        assert len({s.pte_addr for s in steps}) == 4

    def test_walk_shortens_for_huge_pages(self, table):
        table.map(BASE, 512, PageSize.SIZE_2M)
        steps = table.walk_steps(BASE)
        assert [s.level for s in steps] == [4, 3, 2]
        assert steps[-1].pte_value & PTE_HUGE

    def test_walk_stops_at_non_present(self, table):
        steps = table.walk_steps(BASE)
        assert len(steps) == 1
        assert not steps[0].pte_value & PTE_PRESENT

    def test_leaf_pte_addr_matches_walk(self, table):
        table.map(BASE, 100)
        addr, size = table.leaf_pte_addr(BASE)
        assert addr == table.walk_steps(BASE)[-1].pte_addr


class TestAccessedDirty:
    def test_set_accessed(self, table):
        table.map(BASE, 100)
        table.set_accessed_dirty(BASE)
        _, pte, _ = table.lookup(BASE)
        assert pte & PTE_ACCESSED
        assert not pte & PTE_DIRTY

    def test_set_dirty(self, table):
        table.map(BASE, 100)
        table.set_accessed_dirty(BASE, dirty=True)
        _, pte, _ = table.lookup(BASE)
        assert pte & PTE_DIRTY

    def test_unmapped_raises(self, table):
        with pytest.raises(KeyError):
            table.set_accessed_dirty(BASE)


class TestWriteHook:
    def test_hook_sees_pte_writes(self, memory):
        writes = []
        table = RadixPageTable(memory, write_hook=lambda a, v: writes.append((a, v)))
        table.map(BASE, 100)
        # 3 intermediate table entries + 1 leaf
        assert len(writes) == 4
        table.unmap(BASE)
        assert writes[-1][1] == 0

    def test_ad_updates_do_not_trap(self, memory):
        writes = []
        table = RadixPageTable(memory, write_hook=lambda a, v: writes.append(a))
        table.map(BASE, 100)
        count = len(writes)
        table.set_accessed_dirty(BASE, dirty=True)
        assert len(writes) == count  # A/D updates bypass the hook


class TestPlacementPolicy:
    def test_policy_controls_leaf_frames(self, memory):
        reserved = memory.allocator.alloc_contig(4)

        class Policy(TablePlacementPolicy):
            def place_table(self, level, va, page_size):
                return reserved if level == 1 else None

            def table_released(self, frame, level, va):
                return frame == reserved

        table = RadixPageTable(memory, placement=Policy())
        slot = table.map(BASE, 100)
        assert slot >> PAGE_SHIFT == reserved  # leaf PTE lives in the reserved frame
        table.destroy()  # must not free the policy-owned frame
        memory.allocator.free_contig(reserved, 4)


class TestRelocation:
    def test_relocate_leaf_table(self, table, memory):
        table.map(BASE, 100)
        table.map(BASE + PAGE_SIZE, 101)
        new_frame = memory.allocator.alloc_pages(0, movable=False)
        old_frame = table.relocate_table(BASE, 1, new_frame)
        # translations survive and walks now land in the new frame
        assert table.translate(BASE)[0] == 100 * PAGE_SIZE
        assert table.translate(BASE + PAGE_SIZE)[0] == 101 * PAGE_SIZE
        assert table.walk_steps(BASE)[-1].pte_addr >> PAGE_SHIFT == new_frame
        memory.allocator.free_pages(old_frame)

    def test_relocate_missing_table_raises(self, table, memory):
        with pytest.raises(KeyError):
            table.relocate_table(BASE, 1, 50)


class TestDestroy:
    def test_destroy_frees_table_pages(self, memory):
        table = RadixPageTable(memory)
        before = memory.allocator.free_frames
        table.map(BASE, 100)
        table.destroy()
        assert memory.allocator.free_frames == before + 1  # root freed too


class TestProperties:
    @given(st.sets(st.integers(0, 1 << 24), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_many_mappings_translate_independently(self, vpns):
        memory = PhysicalMemory(256 * MB)
        table = RadixPageTable(memory)
        mapping = {}
        for i, vpn in enumerate(sorted(vpns)):
            va = BASE + vpn * PAGE_SIZE
            table.map(va, 1000 + i)
            mapping[va] = 1000 + i
        for va, frame in mapping.items():
            assert table.translate(va) == (frame * PAGE_SIZE, PageSize.SIZE_4K)
        assert table.mapped_pages == len(mapping)


# --------------------------------------------------------------------- #
# Mapping counts read off the tables, against a dict model
# --------------------------------------------------------------------- #

#: 2 MB regions the mapping histories work in (one leaf table each).
REGIONS = 4
HUGE = PageSize.SIZE_2M.bytes
SPAN = HUGE // PAGE_SIZE


@st.composite
def mapping_history(draw):
    """Random map / map_run / unmap / THP promote and demote steps over
    ``REGIONS`` 2 MB regions, some of them across a region's edge."""
    vpn = st.integers(0, REGIONS * SPAN - 1)
    region = st.integers(0, REGIONS - 1)
    step = st.one_of(
        st.tuples(st.just("map"), vpn),
        st.tuples(st.just("map_huge"), region),
        st.tuples(st.just("run"), vpn, st.integers(1, 700)),
        st.tuples(st.just("unmap"), vpn),
        st.tuples(st.just("promote"), region),
        st.tuples(st.just("demote"), region),
    )
    return draw(st.lists(step, max_size=30))


def _model_huge(model, base):
    """The va of the 2 MB mapping covering region ``base``, or None."""
    found = model.get(base)
    return base if found is not None and found[0] == PageSize.SIZE_2M \
        else None


def _model_drop_region(model, base):
    for va in range(base, base + HUGE, PAGE_SIZE):
        model.pop(va, None)


class TestMappingIndex:
    @given(mapping_history())
    @settings(max_examples=100, deadline=None)
    def test_counts_equal_dict_model(self, history):
        """``mapped_pages`` and ``mappings()`` equal a ``{va: (size,
        frame)}`` model after every step, ``mappings()`` is by
        ascending va, and no region mapped by a 2 MB page keeps a leaf
        table."""
        memory = PhysicalMemory(128 * MB)
        proc = Process(memory)
        table = proc.page_table
        alloc = memory.allocator
        model = {}
        for op, arg, *rest in history:
            if op in ("map_huge", "promote", "demote"):
                base = arg * HUGE
            else:
                va = arg * PAGE_SIZE
                base = va - va % HUGE
            huge = _model_huge(model, base)
            if op == "map":
                if huge is not None:
                    with pytest.raises(ValueError):
                        table.map(va, alloc.alloc_pages(0))
                else:
                    frame = alloc.alloc_pages(0)
                    table.map(va, frame)
                    model[va] = (PageSize.SIZE_4K, frame)
            elif op == "map_huge":
                # over a leaf table: released when empty, refused while
                # it still maps a page
                frame = alloc.alloc_pages(9)
                if huge is None and any(
                        base <= page < base + HUGE for page in model):
                    with pytest.raises(ValueError, match="still maps"):
                        table.map(base, frame, PageSize.SIZE_2M)
                    alloc.free_pages(frame, 9)
                else:
                    table.map(base, frame, PageSize.SIZE_2M)
                    _model_drop_region(model, base)
                    model[base] = (PageSize.SIZE_2M, frame)
            elif op == "run":
                count = min(rest[0], REGIONS * SPAN - arg)

                def frames_for(first, olds):
                    return [None if old & PTE_PRESENT else
                            alloc.alloc_pages(0) for old in olds]

                written = table.map_run(va, count, PageSize.SIZE_4K,
                                        frames_for)
                fresh = 0
                for page in range(va, va + count * PAGE_SIZE, PAGE_SIZE):
                    covered = _model_huge(model, page - page % HUGE)
                    if covered is None and page not in model:
                        model[page] = (PageSize.SIZE_4K,
                                       table.lookup(page)[1] >> PAGE_SHIFT)
                        fresh += 1
                assert written == fresh
            elif op == "unmap":
                target = huge if huge is not None else va
                expected = model.pop(target, (None, None))[1]
                assert table.unmap(va) == expected
            elif op == "promote" and huge is None:
                if thp.promote(proc, base):
                    _model_drop_region(model, base)
                    model[base] = (PageSize.SIZE_2M,
                                   table.lookup(base)[1] >> PAGE_SHIFT)
            elif op == "demote" and huge is not None:
                thp.demote(proc, base)
                del model[base]
                for page in range(base, base + HUGE, PAGE_SIZE):
                    model[page] = (PageSize.SIZE_4K,
                                   table.lookup(page)[1] >> PAGE_SHIFT)
            assert table.mapped_pages == len(model)
            for region in range(REGIONS):
                if _model_huge(model, region * HUGE) is not None:
                    assert table.table_frame(region * HUGE, 1) is None
            assert table.mappings() == [(va, size) for va, (size, _)
                                        in sorted(model.items())]
        for va, (size, frame) in model.items():
            assert table.translate(va) == (frame << PAGE_SHIFT, size)
