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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


class CuckooTable:
    """One elastic d-ary cuckoo hash table (one page size).

    Buckets are 64-byte lines holding the PTEs of one 8-page VPN group;
    the group tag is modeled alongside (architecturally it is embedded in
    spare PTE bits, so tag + PTE cost a single line fetch).
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
        self._way_frames: List[int] = []
        # tags[way][bucket] = group id + 1 (0 = empty); mirrors tag bits
        self._tags: List[Dict[int, int]] = []
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
        self._tags = [{} for _ in range(self.ways)]

    def _free_ways(self, frames: List[int], pages: int) -> None:
        for frame in frames:
            self.memory.allocator.free_contig(frame, pages)

    def _bucket_addr(self, way: int, bucket: int) -> int:
        return (self._way_frames[way] << PAGE_SHIFT) + bucket * _LINE_BYTES

    def _bucket_of(self, group: int, way: int) -> int:
        return _mix(group, _WAY_SEEDS[way % len(_WAY_SEEDS)] + way) % self.nbuckets

    # ------------------------------------------------------------------ #
    # Hash-table operations
    # ------------------------------------------------------------------ #

    def candidate_addrs(self, vpn: int) -> List[int]:
        """Line addresses probed in parallel for ``vpn`` (one per way)."""
        group = vpn >> 3
        slot = vpn & 7
        return [
            self._bucket_addr(way, self._bucket_of(group, way)) + slot * 8
            for way in range(self.ways)
        ]

    def _slot_hit(self, way: int, vpn: int) -> Optional[int]:
        """Address of vpn's PTE word if this way holds its group."""
        group = vpn >> 3
        bucket = self._bucket_of(group, way)
        if self._tags[way].get(bucket) != group + 1:
            return None
        return self._bucket_addr(way, bucket) + (vpn & 7) * 8

    def lookup(self, vpn: int) -> Optional[Tuple[int, int]]:
        """(PTE word address, PTE) if present."""
        found = self.lookup_way(vpn)
        return (found[0], found[1]) if found is not None else None

    def lookup_way(self, vpn: int) -> Optional[Tuple[int, int, int]]:
        """(PTE word address, PTE, way) if present."""
        for way in range(self.ways):
            addr = self._slot_hit(way, vpn)
            if addr is not None:
                pte = self.memory.read_word(addr)
                if pte & PTE_PRESENT:
                    return addr, pte, way
        return None

    def insert(self, vpn: int, pte: int) -> None:
        group = vpn >> 3
        # already-resident group: update in place
        for way in range(self.ways):
            addr = self._slot_hit(way, vpn)
            if addr is not None:
                self.memory.write_word(addr, pte)
                return
        pending = self._insert_group(group, {vpn & 7: pte})
        if pending is not None:
            self._resize(pending)

    def _insert_group(self, group: int, slots: Dict[int, int]):
        """Place a group's slots, cuckoo-kicking resident groups as needed.

        Returns None on success, or the still-homeless ``(group, slots)``
        when the kick chain exceeds MAX_KICKS (the caller must resize and
        re-place it — losing it would drop live translations).
        """
        way = 0
        for _ in range(self.MAX_KICKS):
            bucket = self._bucket_of(group, way)
            tag = self._tags[way].get(bucket, 0)
            base = self._bucket_addr(way, bucket)
            if tag == 0:
                self._tags[way][bucket] = group + 1
                for slot, pte in slots.items():
                    self.memory.write_word(base + slot * 8, pte)
                self.groups += 1
                return None
            if tag == group + 1:
                for slot, pte in slots.items():
                    self.memory.write_word(base + slot * 8, pte)
                return None
            # evict the resident group and take its bucket
            victim_group = tag - 1
            victim_slots = {}
            for slot in range(_GROUP_PAGES):
                value = self.memory.read_word(base + slot * 8)
                if value:
                    victim_slots[slot] = value
                    self.memory.write_word(base + slot * 8, 0)
            self._tags[way][bucket] = group + 1
            for slot, pte in slots.items():
                self.memory.write_word(base + slot * 8, pte)
            group, slots = victim_group, victim_slots
            way = (way + 1) % self.ways
        return (group, slots)

    def remove(self, vpn: int) -> bool:
        for way in range(self.ways):
            addr = self._slot_hit(way, vpn)
            if addr is not None and self.memory.read_word(addr):
                self.memory.write_word(addr, 0)
                group = vpn >> 3
                bucket = self._bucket_of(group, way)
                base = self._bucket_addr(way, bucket)
                if not any(self.memory.read_word(base + s * 8)
                           for s in range(_GROUP_PAGES)):
                    self._tags[way].pop(bucket, None)
                    self.groups -= 1
                return True
        return False

    def _collect_live(self) -> List[Tuple[int, Dict[int, int]]]:
        live: List[Tuple[int, Dict[int, int]]] = []
        for way, tags in enumerate(self._tags):
            for bucket, tag in tags.items():
                base = self._bucket_addr(way, bucket)
                slots = {}
                for slot in range(_GROUP_PAGES):
                    value = self.memory.read_word(base + slot * 8)
                    if value:
                        slots[slot] = value
                        self.memory.write_word(base + slot * 8, 0)
                live.append((tag - 1, slots))
        return live

    def _resize(self, extra: Optional[Tuple[int, Dict[int, int]]] = None) -> None:
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
            self._allocate_ways()
            self._free_ways(old_frames, old_pages)
            self.groups = 0
            pending = []
            for index, (group, slots) in enumerate(live):
                leftover = self._insert_group(group, slots)
                if leftover is not None:
                    # extremely unlikely: double again, carrying everything
                    pending = [leftover] + live[index + 1:]
                    break
            if not pending:
                return

    @property
    def load_factor(self) -> float:
        return self.groups / (self.nbuckets * self.ways)

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

    def probe_hit(self, va: int) -> Optional[Tuple[int, PageSize]]:
        """(PA, page size) if any probe hits (used by the walkers)."""
        return self.translate(va)

    def load_from_radix(self, page_table) -> int:
        """Mirror an existing radix page table's leaf mappings."""
        count = 0
        for base_va, size in page_table._mapped_pages.items():
            found = page_table.lookup(base_va)
            if found is None:
                continue
            self.map(base_va, pte_frame(found[1]), size)
            count += 1
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
