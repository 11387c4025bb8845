"""Elastic Cuckoo Page Tables (ECPT) — comparison design (§6.2.1).

A full reimplementation of the hash-based design of Skarlatos et al.
(ASPLOS'20) and its nested variant (ASPLOS'22): per page size, a d-ary
cuckoo hash table maps VPNs to PTEs. As in ECPT, each hash bucket is one
64-byte cache line packing the PTEs of **eight consecutive virtual
pages** (the VPN group tag rides in otherwise-unused PTE bits), so one
probe costs one memory reference and sequential pages share lines.

Lookups probe every way of every page-size table *in parallel* (one
sequential step natively); inserts use cuckoo relocation of whole groups,
and a table resizes ("elastic") when relocation fails.

Nested ECPT takes three sequential steps — resolve the guest candidates'
host locations through the host ECPT, fetch the guest candidates, then
resolve the data page — with up to ways*sizes squared (81 with 3 ways and
3 sizes) parallel accesses in the first step, which is exactly the cost
pvDMT's two direct references avoid (§3.1).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize
from repro.kernel.page_table import PTE_PRESENT, make_pte, pte_frame
from repro.mem.physmem import PhysicalMemory
from repro.translation.base import (
    BatchSpec,
    MemorySubsystem,
    Walker,
    WalkRecorder,
    WalkResult,
)
from repro.virt.hypervisor import VM

#: Cycles modeled for computing the way hashes of one lookup.
HASH_CYCLES = 2

_GROUP_PAGES = 8          # consecutive VPNs per bucket line
_LINE_BYTES = 64

_WAY_SEEDS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

_ZERO_LINE = bytes(_LINE_BYTES)


def _mix(value: int, seed: int) -> int:
    """SplitMix64-style hash, reproducible and well distributed.

    ``value`` may arrive as a NumPy integer (miss streams are int64
    arrays); arbitrary-precision Python ints keep the mix overflow-free.
    """
    x = (int(value) * 2 + 1) * seed & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = x * 0xD6E8FEB86659FD93 & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    return x


def _mix_array(values: np.ndarray, seed: int) -> np.ndarray:
    """:func:`_mix` over a ``uint64`` array in one pass.

    ``uint64`` arithmetic wraps modulo 2**64, which is exactly the mask
    ``_mix`` applies; tests pin the two equal.
    """
    x = (values * np.uint64(2) + np.uint64(1)) * np.uint64(seed)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0xD6E8FEB86659FD93)
    x ^= x >> np.uint64(27)
    return x


class _LineBuffer:
    """Bucket lines held on the host for one mutating table operation.

    A cuckoo insertion moves whole lines: it kicks a resident group out
    of its bucket, writes the new group there and carries the victim
    on, and a resize collects every live line and places it again.
    Instead of a ``take_line``/``put_line`` pair in
    :class:`PhysicalMemory` per kick, the buffer keeps each line the
    operation touches as ``lines[address]``, its eight PTE words in an
    ``array('Q')``. A line enters on its first use, read through from
    memory with ``take_line`` (which leaves it zero there), and
    :meth:`flush` writes every line back once, at the operation's end.

    A memory page is created on its frame's first nonzero write and
    dropped by ``clear_page``, and the order of the pages is state. So
    the buffer also logs ``created``, the frames its writes gave a
    nonzero word, in first-write order, and ``dropped``, the way frames
    freed by resizes. After :meth:`flush` memory holds, page for page
    and in order, what writing every line through at once would have
    left, with freed way frames cleared. An untagged bucket's line is
    zero in memory (way frames are cleared when freed), so placing a
    group into one needs no read, and writing a whole line back
    changes only its buffered words; every line of a way is zero in
    memory by the time a resize frees it (its live lines were taken),
    so a frame freed and reused within one operation reads through as
    empty.
    """

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory
        self.lines: Dict[int, array] = {}
        self.created: Dict[int, None] = {}
        self.dropped: Set[int] = set()

    def take(self, addr: int) -> array:
        """The line's words, leaving the line out of the buffer (and
        zero in memory)."""
        line = self.lines.pop(addr, None)
        if line is None:
            line = array("Q", _ZERO_LINE)
            for offset, value in self.memory.take_line(addr).items():
                line[offset] = value
        return line

    def put(self, addr: int, line: array) -> None:
        """Make ``line`` the line at ``addr``."""
        self.lines[addr] = line
        frame = addr >> PAGE_SHIFT
        if frame not in self.created and any(line):
            self.created[frame] = None

    def merge(self, addr: int, line: array) -> None:
        """Write the nonzero words of ``line`` over the line at
        ``addr``."""
        current = self.lines.get(addr)
        if current is None:
            current = self.lines[addr] = self.take(addr)
        for offset, value in enumerate(line):
            if value:
                current[offset] = value
        frame = addr >> PAGE_SHIFT
        if frame not in self.created and any(line):
            self.created[frame] = None

    def drop(self, frame: int, pages: int) -> None:
        """The way frames ``frame .. frame + pages - 1`` were freed."""
        for dead in range(frame, frame + pages):
            self.created.pop(dead, None)
            self.dropped.add(dead)

    def flush(self) -> None:
        """Write the operation's end state to memory."""
        memory = self.memory
        for frame in self.dropped:
            memory.clear_page(frame)
        by_frame: Dict[int, List[Tuple[int, array]]] = {}
        for addr, line in self.lines.items():
            by_frame.setdefault(addr >> PAGE_SHIFT, []).append((addr, line))
        write_words = memory.write_words
        # created frames first: absent pages appear in first-write order
        for frame in (*self.created, *by_frame):
            for addr, line in by_frame.pop(frame, ()):
                write_words(addr, line)
        self.lines = {}
        self.created = {}
        self.dropped = set()


@contextmanager
def _operation(tables: Sequence["CuckooTable"]) -> Iterator[None]:
    """One mutating operation over ``tables`` (which share a memory):
    their kicks and resizes work on one :class:`_LineBuffer`, flushed
    at the end. Inside an enclosing operation, joins its buffer."""
    if tables[0]._buffer is not None:
        yield
        return
    buffer = _LineBuffer(tables[0].memory)
    for table in tables:
        table._buffer = buffer
    try:
        yield
    finally:
        for table in tables:
            table._buffer = None
        buffer.flush()


class CuckooTable:
    """One elastic d-ary cuckoo hash table (one page size).

    Buckets are 64-byte lines holding the PTEs of one 8-page VPN group;
    the group tag is modeled alongside (architecturally it is embedded in
    spare PTE bits, so tag + PTE cost a single line fetch).

    Two host-side indexes keep the operations hash-table fast without
    changing the layout: ``_where`` maps each resident group to its
    ``(way, bucket)``, derived from ``_tags`` (the authority) and kept in
    step by every placement, eviction, removal and resize; ``_buckets``
    memoises each group's bucket in every way for the current table
    size (``_mix`` stays the definition) and is dropped when the table
    grows. Insertions move lines through a :class:`_LineBuffer` that is
    flushed when the public operation ends, so memory is only
    consistent between operations.
    """

    MAX_KICKS = 32

    def __init__(
        self,
        memory: PhysicalMemory,
        page_size: PageSize,
        ways: int = 3,
        initial_buckets: int = 128,
    ):
        self.memory = memory
        self.page_size = page_size
        self.ways = ways
        self.nbuckets = initial_buckets
        self.groups = 0
        self.resizes = 0
        self._seeds = tuple(_WAY_SEEDS[way % len(_WAY_SEEDS)] + way
                            for way in range(ways))
        self._way_frames: List[int] = []
        self._way_bases: List[int] = []
        # tags[way][bucket] = group id + 1 (0 = empty); mirrors tag bits
        self._tags: List[Dict[int, int]] = []
        # group -> (way, bucket) of every resident group
        self._where: Dict[int, Tuple[int, int]] = {}
        # group -> its bucket in each way at the current nbuckets
        self._buckets: Dict[int, Tuple[int, ...]] = {}
        # the open operation's line buffer (None between operations)
        self._buffer: Optional[_LineBuffer] = None
        self._allocate_ways()

    # ------------------------------------------------------------------ #
    # Storage layout
    # ------------------------------------------------------------------ #

    def _way_pages(self) -> int:
        return max(1, self.nbuckets * _LINE_BYTES // PAGE_SIZE)

    def _allocate_ways(self) -> None:
        self._way_frames = [
            self.memory.allocator.alloc_contig(self._way_pages(), movable=False)
            for _ in range(self.ways)
        ]
        self._way_bases = [frame << PAGE_SHIFT for frame in self._way_frames]
        self._tags = [{} for _ in range(self.ways)]
        self._where = {}

    def _free_ways(self, frames: List[int], pages: int) -> None:
        for frame in frames:
            self.memory.allocator.free_contig(frame, pages)
            self._buffer.drop(frame, pages)

    def _bucket_addr(self, way: int, bucket: int) -> int:
        return self._way_bases[way] + bucket * _LINE_BYTES

    def _buckets_of(self, group: int) -> Tuple[int, ...]:
        """The group's bucket in each way, hashed once per table size."""
        buckets = self._buckets.get(group)
        if buckets is None:
            nbuckets = self.nbuckets
            buckets = self._buckets[group] = tuple(
                _mix(group, seed) % nbuckets for seed in self._seeds)
        return buckets

    def _memo_buckets(self, groups: List[int]) -> None:
        """Fill the bucket memo for ``groups`` with one
        :func:`_mix_array` pass per way."""
        values = np.array(groups, dtype=np.uint64)
        nbuckets = np.uint64(self.nbuckets)
        columns = [(_mix_array(values, seed) % nbuckets).tolist()
                   for seed in self._seeds]
        self._buckets.update(zip(groups, zip(*columns)))

    # ------------------------------------------------------------------ #
    # Hash-table operations
    # ------------------------------------------------------------------ #

    def candidate_addrs(self, vpn: int) -> List[int]:
        """Line addresses probed in parallel for ``vpn`` (one per way)."""
        offset = (vpn & 7) * 8
        return [base + bucket * _LINE_BYTES + offset
                for base, bucket in zip(self._way_bases,
                                        self._buckets_of(vpn >> 3))]

    def candidate_addr_array(self, vpns: np.ndarray) -> np.ndarray:
        """:meth:`candidate_addrs` for every VPN of an int64 array at
        once: an ``int64[len(vpns), ways]`` array, hashed with
        :func:`_mix_array` at the current table size."""
        groups = (vpns >> 3).astype(np.uint64)
        offsets = (vpns & 7) * 8
        nbuckets = np.uint64(self.nbuckets)
        addrs = np.empty((len(vpns), self.ways), dtype=np.int64)
        for way, (base, seed) in enumerate(zip(self._way_bases,
                                               self._seeds)):
            buckets = (_mix_array(groups, seed) % nbuckets).astype(np.int64)
            addrs[:, way] = base + buckets * _LINE_BYTES + offsets
        return addrs

    def _slot_hit(self, vpn: int) -> Optional[Tuple[int, int]]:
        """(address of vpn's PTE word, way) if its group is resident."""
        found = self._where.get(vpn >> 3)
        if found is None:
            return None
        way, bucket = found
        return (self._way_bases[way] + bucket * _LINE_BYTES
                + (vpn & 7) * 8, way)

    def lookup(self, vpn: int) -> Optional[Tuple[int, int]]:
        """(PTE word address, PTE) if present."""
        found = self.lookup_way(vpn)
        return (found[0], found[1]) if found is not None else None

    def lookup_way(self, vpn: int) -> Optional[Tuple[int, int, int]]:
        """(PTE word address, PTE, way) if present."""
        hit = self._slot_hit(vpn)
        if hit is not None:
            pte = self.memory.read_word(hit[0])
            if pte & PTE_PRESENT:
                return hit[0], pte, hit[1]
        return None

    def insert(self, vpn: int, pte: int) -> None:
        hit = self._slot_hit(vpn)
        if hit is not None:
            # already-resident group: update in place
            self.memory.write_word(hit[0], pte)
            return
        line = array("Q", _ZERO_LINE)
        line[vpn & 7] = pte
        with _operation((self,)):
            self._place(vpn >> 3, line)

    def insert_run(self, vpn: int, ptes: Sequence[int]) -> int:
        """``insert(vpn + i, pte)`` for every nonzero ``ptes[i]``, in
        order; returns how many. Leaves the table and memory as those
        calls would: a group that is not resident is placed with all of
        its pages in the run at once."""
        runs = []
        count = 0
        index = 0
        while index < len(ptes):
            first = (vpn + index) & 7
            end = index + 8 - first
            words = ptes[index:end]
            if any(words):
                count += len(words) - words.count(0)
                if len(words) == 8:
                    line = array("Q", words)
                else:
                    line = array("Q", _ZERO_LINE)
                    line[first:first + len(words)] = array("Q", words)
                runs.append(((vpn + index) >> 3, line))
            index = end
        homeless = [group for group, _ in runs if group not in self._where]
        if homeless:
            self._memo_buckets(homeless)
        with _operation((self,)):
            for group, line in runs:
                found = self._where.get(group)   # a resize replaces the dict
                if found is None:
                    self._place(group, line)
                else:
                    self._buffer.merge(self._bucket_addr(*found), line)
        return count

    def _place(self, group: int, line: array) -> None:
        """Insert a group that is not resident, growing the table if the
        kick chain fails."""
        pending = self._insert_group(group, line)
        if pending is not None:
            self._resize(pending)

    def _insert_group(self, group: int, line: array):
        """Place a group's line, cuckoo-kicking resident groups as needed.

        Returns None on success, or the still-homeless ``(group, line)``
        when the kick chain exceeds MAX_KICKS (the caller must resize and
        re-place it — losing it would drop live translations).
        """
        buffer = self._buffer
        where = self._where
        way = 0
        for _ in range(self.MAX_KICKS):
            bucket = self._buckets_of(group)[way]
            tags = self._tags[way]
            tag = tags.get(bucket, 0)
            base = self._way_bases[way] + bucket * _LINE_BYTES
            if tag == 0:
                tags[bucket] = group + 1
                where[group] = (way, bucket)
                buffer.put(base, line)
                self.groups += 1
                return None
            if tag == group + 1:
                buffer.merge(base, line)
                return None
            # evict the resident group and take its bucket
            victim_group = tag - 1
            victim_line = buffer.take(base)
            del where[victim_group]
            tags[bucket] = group + 1
            where[group] = (way, bucket)
            buffer.put(base, line)
            group, line = victim_group, victim_line
            way = (way + 1) % self.ways
        return (group, line)

    def remove(self, vpn: int) -> bool:
        hit = self._slot_hit(vpn)
        if hit is None or not self.memory.read_word(hit[0]):
            return False
        self.memory.write_word(hit[0], 0)
        group = vpn >> 3
        way, bucket = self._where[group]
        if not any(self.memory.read_words(self._bucket_addr(way, bucket),
                                          _GROUP_PAGES)):
            del self._tags[way][bucket]
            del self._where[group]
            self.groups -= 1
        return True

    def _collect_live(self) -> List[Tuple[int, array]]:
        take = self._buffer.take
        return [(tag - 1, take(self._bucket_addr(way, bucket)))
                for way, tags in enumerate(self._tags)
                for bucket, tag in tags.items()]

    def _resize(self, extra: Optional[Tuple[int, array]] = None) -> None:
        """Elastic growth: double the buckets and rehash (the 'E' in ECPT).

        ``extra`` is a group displaced by the failed insertion that
        triggered the resize; it must be re-placed with the rest.
        """
        pending = [extra] if extra is not None else []
        while True:
            self.resizes += 1
            old_frames = self._way_frames
            old_pages = self._way_pages()
            live = self._collect_live() + pending
            self.nbuckets *= 2
            self._buckets = {}
            self._memo_buckets([group for group, _ in live])
            self._allocate_ways()
            self._free_ways(old_frames, old_pages)
            self.groups = 0
            pending = []
            for index, (group, line) in enumerate(live):
                leftover = self._insert_group(group, line)
                if leftover is not None:
                    # extremely unlikely: double again, carrying everything
                    pending = [leftover] + live[index + 1:]
                    break
            if not pending:
                return

    def table_bytes(self) -> int:
        return self.ways * self._way_pages() * PAGE_SIZE


class CuckooWalkCache:
    """Way prediction (ECPT's Cuckoo Walk Tables/Caches).

    Caches which way of which size table holds a VPN group, so most
    lookups issue a single probe instead of ways x sizes parallel ones.
    LRU over (page-size, group) keys.
    """

    def __init__(self, capacity: int = 16384):
        self.capacity = capacity
        self._entries: Dict[Tuple[int, int], int] = {}
        self.hits = 0
        self.misses = 0

    def get(self, size: int, group: int) -> Optional[int]:
        key = (size, group)
        way = self._entries.pop(key, None)
        if way is None:
            self.misses += 1
            return None
        self._entries[key] = way
        self.hits += 1
        return way

    def put(self, size: int, group: int, way: int) -> None:
        key = (size, group)
        if key in self._entries:
            self._entries.pop(key)
        elif len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = way

    def array_view(self) -> "CWCArrayView":
        """Flat ndarray state copy for the native kernel engine.

        See :class:`CWCArrayView` for the key encoding and the
        writeback contract.
        """
        keys = np.full(self.capacity, -1, dtype=np.int64)
        ways = np.full(self.capacity, -1, dtype=np.int64)
        for slot, ((size, group), way) in enumerate(self._entries.items()):
            keys[slot] = (group << 6) | size
            ways[slot] = way
        return CWCArrayView(
            keys=keys,
            ways=ways,
            meta=np.array([len(self._entries), self.capacity],
                          dtype=np.int64),
            owner=self,
        )


@dataclass
class CWCArrayView:
    """Flat ndarray snapshot of a :class:`CuckooWalkCache` (native kernels).

    The ``(size, group)`` key tuples are packed into one int64 as
    ``(group << 6) | size`` — ``size`` is a page-size shift (12/21/30),
    well under 64, and groups of 48-bit VAs leave ample headroom. Same
    copy/writeback contract as the cache/PWC array views: mutate the
    arrays, then call :meth:`writeback` exactly once; hit/miss counters
    are accumulated by the kernels and flushed separately.
    """

    keys: np.ndarray      # int64[capacity], LRU order oldest first, -1 empty
    ways: np.ndarray      # int64[capacity]
    meta: np.ndarray      # int64[2]: [live entries, capacity]
    owner: "CuckooWalkCache"

    def writeback(self) -> None:
        count = int(self.meta[0])
        self.owner._entries = {
            (int(self.keys[k]) & 63, int(self.keys[k]) >> 6):
            int(self.ways[k])
            for k in range(count)
        }


class ElasticCuckooPageTables:
    """The per-address-space set of cuckoo tables (one per page size)."""

    def __init__(self, memory: PhysicalMemory, ways: int = 3,
                 initial_buckets: int = 128):
        self.memory = memory
        self.tables: Dict[PageSize, CuckooTable] = {
            size: CuckooTable(
                memory, size, ways=ways,
                initial_buckets=initial_buckets if size == PageSize.SIZE_4K else 16,
            )
            for size in (PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G)
        }

    def map(self, va: int, pfn: int, page_size: PageSize) -> None:
        vpn = va >> int(page_size)
        self.tables[page_size].insert(vpn, make_pte(pfn))

    def unmap(self, va: int, page_size: PageSize) -> bool:
        return self.tables[page_size].remove(va >> int(page_size))

    def translate(self, va: int) -> Optional[Tuple[int, PageSize]]:
        for size, table in self.tables.items():
            found = table.lookup(va >> int(size))
            if found is not None:
                pte = found[1]
                return (pte_frame(pte) << PAGE_SHIFT) + (va & (size.bytes - 1)), size
        return None

    # dmtlint-domain: va=any -- the host ECPT hashes gPAs into the same ways
    def candidate_probes(self, va: int) -> List[Tuple[int, PageSize, int]]:
        """All (PTE word addr, page size, vpn) probed in parallel for ``va``."""
        probes = []
        for size, table in self.tables.items():
            vpn = va >> int(size)
            for addr in table.candidate_addrs(vpn):
                probes.append((addr, size, vpn))
        return probes

    # dmtlint-domain: va=any -- the host ECPT hashes gPAs into the same ways
    def candidate_array(self, vas: np.ndarray) -> np.ndarray:
        """:meth:`candidate_probes`' addresses for every address of an
        int64 array: ``int64[len(vas), sizes * ways]``, columns in
        :meth:`candidate_probes` order (:meth:`probe_sizes` names each
        column's page size)."""
        return np.hstack([table.candidate_addr_array(vas >> int(size))
                          for size, table in self.tables.items()])

    def probe_sizes(self) -> Tuple[PageSize, ...]:
        """The page size of each :meth:`candidate_array` column."""
        return tuple(size for size, table in self.tables.items()
                     for _ in range(table.ways))

    def load_from_radix(self, page_table) -> int:
        """Mirror an existing radix page table's leaf mappings, one leaf
        table at a time; the same tables and memory as :meth:`map` per
        page in va order. The whole load is one operation over the three
        size tables: one line buffer, flushed once."""
        count = 0
        tables = self.tables
        with _operation(tuple(tables.values())):
            for va, size, ptes in page_table.leaf_tables():
                count += tables[size].insert_run(
                    va >> int(size),
                    [make_pte(pte_frame(pte)) if pte & PTE_PRESENT else 0
                     for pte in ptes])
        return count

    def total_bytes(self) -> int:
        return sum(t.table_bytes() for t in self.tables.values())


# dmtlint-domain: va=any -- probes both guest (gVA) and host (gPA) ECPTs
def _probe_step(ecpt: "ElasticCuckooPageTables", cwc: CuckooWalkCache,
                va: int, rec: WalkRecorder, tag: str) -> None:
    """One probe step of an ECPT lookup.

    The walker's Cuckoo Walk Cache ``cwc`` predicts the resident (size,
    way): on a CWC hit
    a single probe is issued. On a CWC miss, all ways of all size tables
    are probed in parallel; the translation completes when the *hitting*
    probe returns, so only that access is on the critical path — the
    losing probes occupy bandwidth and cache capacity but add no latency.
    """
    hit_addr = None
    hit_size = None
    hit_way = None
    for size, table in ecpt.tables.items():
        found = table.lookup_way(va >> int(size))
        if found is not None:
            hit_addr, _, hit_way = found
            hit_size = size
            break
    if hit_addr is not None:
        group = (va >> int(hit_size)) >> 3
        predicted = cwc.get(int(hit_size), group)
        if predicted == hit_way:
            # CWC hit: single targeted probe
            rec.fetch(hit_addr, f"{tag}-{hit_size.name}")
            return
        cwc.put(int(hit_size), group, hit_way)
    hit_line = hit_addr >> 6 if hit_addr is not None else None
    fetched_hit = False
    for addr, probe_size, vpn in ecpt.candidate_probes(va):
        if hit_line is not None and addr >> 6 == hit_line and not fetched_hit:
            rec.fetch(addr, f"{tag}-{probe_size.name}")
            fetched_hit = True
        else:
            rec.memsys.caches.probe(addr)  # background probe: no latency
    if hit_line is None:
        # full miss: completion waits for the slowest probe (hardware must
        # see every way miss before faulting)
        for addr, probe_size, vpn in ecpt.candidate_probes(va):
            rec.fetch_grouped(addr, f"{tag}-{probe_size.name}", group=id(rec) & 0xFFFF)
            break


class ECPTNativeWalker(Walker):
    """Native ECPT: one sequential step, ways*sizes parallel probes.

    The CWC is per walker, like the memory subsystem: the cuckoo tables
    are shared, read-only machine state, so a second walker on the same
    machine starts from a cold CWC.
    """

    name = "ecpt-native"

    def __init__(self, ecpt: ElasticCuckooPageTables, memsys: MemorySubsystem):
        super().__init__(memsys)
        self.ecpt = ecpt
        self.cwc = CuckooWalkCache()

    def batch_spec(self) -> Optional[BatchSpec]:
        return BatchSpec(kind="ecpt-native", ecpt=self.ecpt, cwc=self.cwc)

    def translate(self, va: int) -> WalkResult:
        rec = WalkRecorder(self.memsys)
        rec.charge(HASH_CYCLES)
        _probe_step(self.ecpt, self.cwc, va, rec, "ecpt")
        hit = self.ecpt.translate(va)
        pa, size = hit if hit else (None, PageSize.SIZE_4K)
        return self.record(WalkResult(va, rec.finish(), rec.refs, pa, size))


class ECPTNestedWalker(Walker):
    """Nested ECPT: three sequential steps, up to 81 parallel probes.

    Step 1 resolves the host location of every guest candidate entry by
    probing the host ECPT (guest candidates x host ways parallel probes).
    Step 2 fetches the guest candidates. Step 3 resolves the data page's
    gPA through the host ECPT again. Only the critical host probes
    consult the walker's CWC.
    """

    name = "ecpt-nested"

    def __init__(
        self,
        guest_ecpt: ElasticCuckooPageTables,
        host_ecpt: ElasticCuckooPageTables,
        vm: VM,
        memsys: MemorySubsystem,
    ):
        super().__init__(memsys)
        self.guest_ecpt = guest_ecpt
        self.host_ecpt = host_ecpt
        self.vm = vm
        self.cwc = CuckooWalkCache()

    def batch_spec(self) -> Optional[BatchSpec]:
        return BatchSpec(kind="ecpt-nested", ecpt=self.guest_ecpt,
                         host_ecpt=self.host_ecpt, vm=self.vm, cwc=self.cwc)

    def _host_probe(self, gpa: int, rec: WalkRecorder, tag: str,
                    critical: bool) -> Optional[int]:
        """Probe the host ECPT for a gPA.

        When ``critical`` the hitting way's access is charged to latency;
        the rest (and everything on non-critical paths) are background
        accesses occupying bandwidth and cache capacity only.
        """
        if critical:
            _probe_step(self.host_ecpt, self.cwc, gpa, rec, tag)
        else:
            for addr, size, vpn in self.host_ecpt.candidate_probes(gpa):
                rec.memsys.caches.probe(addr)
        hit = self.host_ecpt.translate(gpa)
        return hit[0] if hit else None

    def translate(self, gva: int) -> WalkResult:
        rec = WalkRecorder(self.memsys)
        rec.charge(2 * HASH_CYCLES)

        # Which guest candidate will hit determines the critical path; the
        # other candidates' host resolutions and fetches run in parallel.
        guest_hit = self.guest_ecpt.translate(gva)

        # Step 1: host-resolve every guest candidate's location (up to
        # ways x sizes squared probes in flight).
        g_hit_addr = None
        if guest_hit is not None:
            for size, table in self.guest_ecpt.tables.items():
                found = table.lookup(gva >> int(size))
                if found is not None:
                    g_hit_addr = found[0]
                    break
        resolved: List[Tuple[int, int]] = []
        for g_addr, g_size, g_vpn in self.guest_ecpt.candidate_probes(gva):
            critical = g_hit_addr is not None and (g_addr >> 6) == (g_hit_addr >> 6)
            h_addr = self._host_probe(g_addr, rec, "h-ecpt", critical)
            if h_addr is not None:
                resolved.append((g_addr, h_addr))

        if guest_hit is None:
            return self.record(WalkResult(gva, rec.finish(), rec.refs, None))
        gpa, size = guest_hit

        # Step 2: fetch the guest candidates; the hit one is critical.
        for g_addr, h_addr in resolved:
            if g_hit_addr is not None and (g_addr >> 6) == (g_hit_addr >> 6):
                rec.fetch(h_addr, "g-ecpt")
            else:
                rec.memsys.caches.probe(h_addr)

        # Step 3: host-resolve the data page (critical).
        rec.charge(HASH_CYCLES)
        pa = self._host_probe(gpa, rec, "hd-ecpt", critical=True)
        return self.record(WalkResult(gva, rec.finish(), rec.refs, pa, size))
