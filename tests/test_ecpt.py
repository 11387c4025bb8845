"""Tests for the Elastic Cuckoo Page Tables substrate and walkers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import PAGE_SIZE, PageSize
from repro.hw.config import xeon_gold_6138
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import make_pte, pte_frame
from repro.kernel.process import Process
from repro.mem.physmem import PhysicalMemory
from repro.translation import ecpt as ecpt_module
from repro.translation.base import MemorySubsystem
from repro.translation.ecpt import (
    CuckooTable,
    ECPTNativeWalker,
    ECPTNestedWalker,
    ElasticCuckooPageTables,
    _WAY_SEEDS,
    _mix,
    _mix_array,
)
from repro.virt.hypervisor import Hypervisor

MB = 1 << 20
BASE = 0x7F00_0000_0000


@pytest.fixture
def memory():
    return PhysicalMemory(256 * MB)


@pytest.fixture
def table(memory):
    return CuckooTable(memory, PageSize.SIZE_4K, initial_buckets=64)


class TestCuckooTable:
    def test_insert_lookup(self, table):
        table.insert(100, make_pte(7))
        addr, pte = table.lookup(100)
        assert pte_frame(pte) == 7
        assert table.lookup(101) is None

    def test_update_in_place(self, table):
        table.insert(100, make_pte(7))
        table.insert(100, make_pte(9))
        assert pte_frame(table.lookup(100)[1]) == 9

    def test_remove(self, table):
        table.insert(100, make_pte(7))
        assert table.remove(100)
        assert table.lookup(100) is None
        assert not table.remove(100)

    def test_grouped_vpns_share_a_line(self, table):
        # ECPT packs 8 consecutive VPNs per 64-byte bucket line
        table.insert(800, make_pte(1))
        table.insert(801, make_pte(2))
        addr0 = table.lookup(800)[0]
        addr1 = table.lookup(801)[0]
        assert addr0 >> 6 == addr1 >> 6
        assert addr1 - addr0 == 8

    def test_candidate_addrs_one_per_way(self, table):
        addrs = table.candidate_addrs(1234)
        assert len(addrs) == table.ways
        assert len(set(a >> 6 for a in addrs)) == table.ways

    def test_elastic_resize_preserves_contents(self, memory):
        table = CuckooTable(memory, PageSize.SIZE_4K, initial_buckets=8)
        entries = {vpn: make_pte(vpn + 1) for vpn in range(0, 4096, 8)}
        for vpn, pte in entries.items():
            table.insert(vpn, pte)
        assert table.resizes > 0, "the table must have grown elastically"
        for vpn, pte in entries.items():
            assert table.lookup(vpn)[1] == pte

    def test_cuckoo_relocation_under_load(self, memory):
        table = CuckooTable(memory, PageSize.SIZE_4K, initial_buckets=32)
        # fill to a load where kicks must happen but resize may not
        for vpn in range(0, 60 * 8, 8):
            table.insert(vpn, make_pte(vpn))
        for vpn in range(0, 60 * 8, 8):
            assert table.lookup(vpn) is not None

    @given(st.dictionaries(st.integers(0, 1 << 20), st.integers(1, 1 << 30),
                           min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_dict_equivalence(self, mapping):
        memory = PhysicalMemory(64 * MB)
        table = CuckooTable(memory, PageSize.SIZE_4K, initial_buckets=16)
        for vpn, frame in mapping.items():
            table.insert(vpn, make_pte(frame & ((1 << 40) - 1)))
        for vpn, frame in mapping.items():
            assert pte_frame(table.lookup(vpn)[1]) == frame & ((1 << 40) - 1)


def _check_indexes(table):
    """The location index is what ``_tags`` implies; the bucket memo
    holds what ``_mix`` gives at the current table size."""
    implied = {tag - 1: (way, bucket)
               for way, tags in enumerate(table._tags)
               for bucket, tag in tags.items()}
    assert table._where == implied
    assert table.groups == len(implied)
    for group, buckets in table._buckets.items():
        assert buckets == tuple(_mix(group, seed) % table.nbuckets
                                for seed in table._seeds)


_HISTORY = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 191),
                  st.integers(1, 1 << 30)),
        st.tuples(st.just("remove"), st.integers(0, 191), st.just(0))),
    min_size=1, max_size=80)


class TestLocationIndex:
    @given(_HISTORY)
    @settings(max_examples=60, deadline=None)
    def test_index_follows_tags_through_kicks_and_resizes(self, history):
        """Random insert / update-in-place / remove histories on a tiny
        table (12 buckets over 24 groups, so kick chains, resizes and
        removals that empty a group happen): after every step the
        location index equals what the tags imply and lookups agree
        with a dict model."""
        table = CuckooTable(PhysicalMemory(64 * MB), PageSize.SIZE_4K,
                            initial_buckets=4)
        model = {}
        touched = set()
        for op, vpn, frame in history:
            touched.add(vpn)
            if op == "insert":
                table.insert(vpn, make_pte(frame))
                model[vpn] = make_pte(frame)
            else:
                assert table.remove(vpn) == (vpn in model)
                model.pop(vpn, None)
            _check_indexes(table)
            for probe in touched:
                found = table.lookup(probe)
                assert (found[1] if found else None) == model.get(probe)

    def test_bulk_load_equals_per_page_map_across_a_resize(self):
        """``load_from_radix`` inserts a leaf table at a time; it must
        leave memory page for page (in order) and the tables as the
        per-page ``map`` loop does, with resizes during the load, holes
        at a group's first page, and 2 MB pages beside 4 KB ones."""
        def build(load):
            memory = PhysicalMemory(64 * MB)
            proc = Process(memory, thp_enabled=True)
            # a 4 KB head, one 2 MB page, then a 4 KB tail
            start = BASE + 2 * MB - 24 * PAGE_SIZE
            proc.mmap(3 * MB + 40 * PAGE_SIZE, addr=start, populate=True)
            for page in (0, 8, 9, 17, 536, 537, *range(600, 608)):
                proc.munmap(start + page * PAGE_SIZE, PAGE_SIZE)
            ecpt = ElasticCuckooPageTables(memory, initial_buckets=4)
            count = load(ecpt, proc.page_table)
            return count, ecpt, memory

        def per_page(ecpt, page_table):
            count = 0
            for va, pte, size in page_table.leaves():
                ecpt.map(va, pte_frame(pte), size)
                count += 1
            return count

        bulk_count, bulk, bulk_memory = build(
            ElasticCuckooPageTables.load_from_radix)
        ref_count, ref, ref_memory = build(per_page)
        assert bulk_count == ref_count
        assert bulk.tables[PageSize.SIZE_4K].resizes >= 2
        assert [(frame, page.tobytes())
                for frame, page in bulk_memory._pages.items()] == \
            [(frame, page.tobytes())
             for frame, page in ref_memory._pages.items()]
        assert [list(blocks) for blocks in bulk_memory.allocator.free_lists] \
            == [list(blocks) for blocks in ref_memory.allocator.free_lists]
        for size, table in bulk.tables.items():
            other = ref.tables[size]
            assert (table.nbuckets, table.groups, table.resizes,
                    table._way_frames) == (other.nbuckets, other.groups,
                                           other.resizes, other._way_frames)
            assert [list(tags.items()) for tags in table._tags] == \
                [list(tags.items()) for tags in other._tags]
            _check_indexes(table)


class _MemoryDirectTable(CuckooTable):
    """Reference: the cuckoo table with every kick, merge and resize
    going through ``PhysicalMemory.take_line``/``put_line`` at once (no
    line buffer), and freed way frames cleared when they are freed."""

    def insert(self, vpn, pte):
        hit = self._slot_hit(vpn)
        if hit is not None:
            self.memory.write_word(hit[0], pte)
            return
        self._place(vpn >> 3, {vpn & 7: pte})

    def insert_run(self, vpn, ptes):
        count = 0
        index = 0
        while index < len(ptes):
            end = index + 8 - ((vpn + index) & 7)
            slots = {(vpn + i) & 7: pte
                     for i, pte in enumerate(ptes[index:end], index) if pte}
            if slots:
                count += len(slots)
                group = (vpn + index) >> 3
                found = self._where.get(group)
                if found is None:
                    self._place(group, slots)
                else:
                    self.memory.put_line(self._bucket_addr(*found), slots)
            index = end
        return count

    def _free_ways(self, frames, pages):
        for frame in frames:
            self.memory.allocator.free_contig(frame, pages)
            for dead in range(frame, frame + pages):
                self.memory.clear_page(dead)

    def _insert_group(self, group, slots):
        memory = self.memory
        where = self._where
        way = 0
        for _ in range(self.MAX_KICKS):
            bucket = self._buckets_of(group)[way]
            tags = self._tags[way]
            tag = tags.get(bucket, 0)
            base = self._bucket_addr(way, bucket)
            if tag == 0:
                tags[bucket] = group + 1
                where[group] = (way, bucket)
                memory.put_line(base, slots)
                self.groups += 1
                return None
            if tag == group + 1:
                memory.put_line(base, slots)
                return None
            victim_group = tag - 1
            victim_slots = memory.take_line(base)
            del where[victim_group]
            tags[bucket] = group + 1
            where[group] = (way, bucket)
            memory.put_line(base, slots)
            group, slots = victim_group, victim_slots
            way = (way + 1) % self.ways
        return (group, slots)

    def _collect_live(self):
        take_line = self.memory.take_line
        return [(tag - 1, take_line(self._bucket_addr(way, bucket)))
                for way, tags in enumerate(self._tags)
                for bucket, tag in tags.items()]

    def _resize(self, extra=None):
        pending = [extra] if extra is not None else []
        while True:
            self.resizes += 1
            old_frames = self._way_frames
            old_pages = self._way_pages()
            live = self._collect_live() + pending
            self.nbuckets *= 2
            self._buckets = {}
            self._allocate_ways()
            self._free_ways(old_frames, old_pages)
            self.groups = 0
            pending = []
            for index, (group, slots) in enumerate(live):
                leftover = self._insert_group(group, slots)
                if leftover is not None:
                    pending = [leftover] + live[index + 1:]
                    break
            if not pending:
                return


def _table_state(table):
    """Memory page for page and in order, the allocator, and the table
    (tags in order, location index, counters)."""
    memory = table.memory
    return ([(frame, page.tobytes()) for frame, page in memory._pages.items()],
            [list(blocks) for blocks in memory.allocator.free_lists],
            [list(tags.items()) for tags in table._tags],
            table._where,
            (table.groups, table.resizes, table.nbuckets, table._way_frames))


_PTE_FRAME = st.integers(1, 1 << 30)
#: ("insert", vpn, frame), ("remove", vpn) and ("run", vpn, length,
#: holes, first frame): a run of ``length`` PTEs, 0 at the hole indexes.
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 383), _PTE_FRAME),
        st.tuples(st.just("run"), st.integers(0, 383), st.integers(1, 64),
                  st.sets(st.integers(0, 63), max_size=24), _PTE_FRAME),
        st.tuples(st.just("remove"), st.integers(0, 383))),
    min_size=8, max_size=60)


class TestLineBuffer:
    """The line buffer is invisible at operation boundaries: the same
    memory pages in the same order, allocator, tags and index as the
    memory-direct reference table."""

    @given(_OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_operations_equal_the_memory_direct_reference(self, history):
        """Random insert / insert_run / remove histories on a 4-bucket,
        3-way table over 24 groups (kick chains, merges into resident
        groups and repeated resizes), compared after every operation."""
        tables = [cls(PhysicalMemory(64 * MB), PageSize.SIZE_4K,
                      initial_buckets=4)
                  for cls in (CuckooTable, _MemoryDirectTable)]
        for op, vpn, *args in history:
            if op == "insert":
                results = [table.insert(vpn, make_pte(args[0]))
                           for table in tables]
            elif op == "run":
                length, holes, frame = args
                ptes = [0 if index in holes else make_pte(frame + index)
                        for index in range(length)]
                results = [table.insert_run(vpn, ptes) for table in tables]
            else:
                results = [table.remove(vpn) for table in tables]
            assert results[0] == results[1]
            assert _table_state(tables[0]) == _table_state(tables[1])
            _check_indexes(tables[0])

    def test_resizes_leave_no_zero_pages(self):
        """Freed way frames are cleared: after many resizes every page
        in memory lies in a live way."""
        memory = PhysicalMemory(64 * MB)
        table = CuckooTable(memory, PageSize.SIZE_4K, initial_buckets=4)
        table.insert_run(0, [make_pte(page + 1) for page in range(4096)])
        assert table.resizes >= 4
        live = {frame + page for frame in table._way_frames
                for page in range(table._way_pages())}
        assert set(memory._pages) <= live

    def test_bulk_load_equals_memory_direct_reference(self, monkeypatch):
        """``load_from_radix`` is one buffered operation over all three
        size tables, which share one memory: it leaves memory, the
        allocator and every table as the memory-direct reference
        tables do, with the 4 KB table resizing during the load."""
        def build():
            memory = PhysicalMemory(64 * MB)
            proc = Process(memory, thp_enabled=True)
            start = BASE + 2 * MB - 24 * PAGE_SIZE
            proc.mmap(5 * MB + 40 * PAGE_SIZE, addr=start, populate=True)
            for page in (0, 9, 536, *range(1100, 1110)):
                proc.munmap(start + page * PAGE_SIZE, PAGE_SIZE)
            ecpt = ElasticCuckooPageTables(memory, initial_buckets=4)
            assert ecpt.load_from_radix(proc.page_table) > 0
            return ecpt

        buffered = build()
        monkeypatch.setattr(ecpt_module, "CuckooTable", _MemoryDirectTable)
        reference = build()
        assert buffered.tables[PageSize.SIZE_4K].resizes >= 2
        assert buffered.tables[PageSize.SIZE_2M].groups > 0
        for size, table in buffered.tables.items():
            assert type(reference.tables[size]) is _MemoryDirectTable
            assert _table_state(table) == _table_state(reference.tables[size])


#: Groups at the edges: 0, a line's worth, and around 2**45 (the group
#: of a 48-bit VPN's top page).
_EDGE_GROUPS = [0, 1, 7, 8, (1 << 45) - 1, 1 << 45, (1 << 45) + 1]


class TestArrayHash:
    """The replay planners hash ECPT candidates as ``uint64`` arrays;
    ``_mix`` and ``candidate_addrs`` stay the definition."""

    @given(st.lists(st.integers(0, (1 << 46) - 1), max_size=64),
           st.sampled_from(_WAY_SEEDS + (_WAY_SEEDS[0] + 3,)))
    @settings(max_examples=40, deadline=None)
    def test_mix_array_equals_mix(self, groups, seed):
        values = _EDGE_GROUPS + groups
        got = _mix_array(np.array(values, dtype=np.uint64), seed)
        assert got.tolist() == [_mix(value, seed) for value in values]

    @pytest.mark.parametrize("nbuckets", [4, 96, 128, 1 << 14])
    def test_candidate_addr_array_equals_candidate_addrs(self, memory,
                                                         nbuckets):
        table = CuckooTable(memory, PageSize.SIZE_4K,
                            initial_buckets=nbuckets)
        rng = np.random.default_rng(nbuckets)
        vpns = [group * 8 + offset for group in _EDGE_GROUPS
                for offset in (0, 7)]
        vpns += rng.integers(0, 1 << 48, 200).tolist()
        rows = table.candidate_addr_array(np.array(vpns, dtype=np.int64))
        assert rows.tolist() == [table.candidate_addrs(vpn) for vpn in vpns]

    def test_candidate_array_follows_a_resize(self, memory):
        """Every size table's columns, in ``candidate_probes`` order,
        before and after the 4 KB table grows."""
        ecpt = ElasticCuckooPageTables(memory, initial_buckets=4)
        vas = [BASE + page * PAGE_SIZE for page in range(0, 4096, 37)]
        vas += [(1 << 48) - PAGE_SIZE, 0]

        def check():
            rows = ecpt.candidate_array(np.array(vas, dtype=np.int64))
            for va, row in zip(vas, rows.tolist()):
                probes = ecpt.candidate_probes(va)
                assert row == [addr for addr, _size, _vpn in probes]
                assert list(ecpt.probe_sizes()) == \
                    [size for _addr, size, _vpn in probes]
            return rows

        before = check()
        for page in range(0, 2048, 8):
            ecpt.map(BASE + page * PAGE_SIZE, page + 1, PageSize.SIZE_4K)
        assert ecpt.tables[PageSize.SIZE_4K].resizes > 0
        assert not np.array_equal(check(), before)


class TestECPTSet:
    def test_translate_multiple_sizes(self, memory):
        ecpt = ElasticCuckooPageTables(memory)
        ecpt.map(BASE, 100, PageSize.SIZE_4K)
        ecpt.map(BASE + (1 << 21), 512, PageSize.SIZE_2M)
        assert ecpt.translate(BASE) == (100 * PAGE_SIZE, PageSize.SIZE_4K)
        pa, size = ecpt.translate(BASE + (1 << 21) + 0x123)
        assert size == PageSize.SIZE_2M
        assert pa == 512 * PAGE_SIZE + 0x123

    def test_load_from_radix_mirror(self, memory):
        kernel = Kernel(memory=memory)
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        ecpt = ElasticCuckooPageTables(memory)
        assert ecpt.load_from_radix(proc.page_table) == 1024
        for offset in (0, PAGE_SIZE, vma.size - 1):
            assert ecpt.translate(vma.start + offset) == \
                proc.page_table.translate(vma.start + offset)

    def test_candidate_probes_span_sizes_and_ways(self, memory):
        ecpt = ElasticCuckooPageTables(memory)
        probes = ecpt.candidate_probes(BASE)
        assert len(probes) == 9  # 3 sizes x 3 ways

    def test_unmap(self, memory):
        ecpt = ElasticCuckooPageTables(memory)
        ecpt.map(BASE, 100, PageSize.SIZE_4K)
        assert ecpt.unmap(BASE, PageSize.SIZE_4K)
        assert ecpt.translate(BASE) is None


class TestECPTWalkers:
    def test_native_one_sequential_step(self, memory):
        kernel = Kernel(memory=memory)
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        ecpt = ElasticCuckooPageTables(memory)
        ecpt.load_from_radix(proc.page_table)
        walker = ECPTNativeWalker(ecpt, MemorySubsystem(xeon_gold_6138()))
        result = walker.translate(vma.start + 0x123)
        assert result.pa == proc.page_table.translate(vma.start + 0x123)[0]
        assert result.sequential_steps <= 1 or len(result.refs) == 1

    def test_nested_three_sequential_steps(self):
        host = Kernel(memory_bytes=512 * MB)
        vm = Hypervisor(host).create_vm(128 * MB)
        proc = vm.guest_kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        guest_ecpt = ElasticCuckooPageTables(vm.guest_memory)
        guest_ecpt.load_from_radix(proc.page_table)
        vm.back_range(0, vm.memory_bytes)
        host_ecpt = ElasticCuckooPageTables(host.memory)
        host_ecpt.load_from_radix(vm.ept)
        walker = ECPTNestedWalker(guest_ecpt, host_ecpt, vm,
                                  MemorySubsystem(xeon_gold_6138()))
        result = walker.translate(vma.start + 0x321)
        gpa, _ = proc.page_table.translate(vma.start + 0x321)
        assert result.pa == vm.gpa_to_hpa(gpa)
        # critical path: three sequential fetches (the "3 sequential,
        # up to 81 parallel" of §3.1); non-grouped refs are the critical ones
        critical = [r for r in result.refs if r.group < 0]
        assert len(critical) == 3
