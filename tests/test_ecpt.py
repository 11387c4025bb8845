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
