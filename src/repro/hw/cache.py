"""Set-associative caches and a three-level hierarchy.

The hierarchy charges Table 3 round-trip latencies: an access probes L1,
then L2, then LLC, then main memory, and installs the line in every level
it missed in (inclusive allocation, LRU replacement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.hw.config import CacheConfig, MachineConfig
from repro.hw.stats import HitStats


@dataclass
class CacheBatchView:
    """Flat mutable view of one cache level (batched replay engine).

    ``sets`` is the live set-index -> LRU-ordered line dict mapping; the
    engine inlines :meth:`SetAssociativeCache.lookup`/``install`` over it
    so LRU state and stats after a batched replay match the scalar
    path's exactly.
    """

    sets: Dict[int, Dict[int, None]]
    line_shift: int
    num_sets: int
    assoc: int
    latency: int
    name: str
    stats: HitStats


@dataclass
class CacheArrayView:
    """Flat ndarray snapshot of one cache level (native kernel engine).

    ``tags[set * assoc : set * assoc + nvalid[set]]`` holds the set's
    line addresses in LRU order, oldest first — the same order the
    insertion-ordered set dicts keep; unused slots are ``-1``. Unlike
    :class:`CacheBatchView` (live dicts, mutations apply immediately)
    this is a *copy*: kernels mutate the arrays freely and the caller
    must invoke :meth:`writeback` exactly once afterwards to rebuild
    the owning cache's dict state. Between ``array_view()`` and
    ``writeback()`` the owner must not be accessed through any other
    path (the dicts are stale). Stats are not carried here — kernels
    accumulate hit/miss counters separately and flush them to
    :class:`HitStats` themselves.
    """

    tags: np.ndarray      # int64[num_sets * assoc], -1 = invalid
    nvalid: np.ndarray    # int64[num_sets], live ways per set
    line_shift: int
    num_sets: int
    assoc: int
    latency: int
    name: str
    stats: HitStats
    owner: "SetAssociativeCache"

    def writeback(self) -> None:
        """Rebuild the owner's set dicts from the (mutated) arrays."""
        sets = self.owner._sets
        sets.clear()
        assoc = self.assoc
        tags = self.tags
        for idx in np.nonzero(self.nvalid)[0].tolist():
            base = idx * assoc
            count = int(self.nvalid[idx])
            sets[idx] = {int(tags[base + k]): None for k in range(count)}


class SetAssociativeCache:
    """A single LRU set-associative cache level.

    Lines are tracked by line address (``addr >> line_shift``); no data is
    stored. LRU order per set is kept with an insertion-ordered dict, which
    makes both lookup and recency update O(1).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        # set index -> {line_addr: None} in LRU order (oldest first)
        self._sets: Dict[int, Dict[int, None]] = {}
        self.stats = HitStats()

    @property
    def latency(self) -> int:
        return self.config.latency

    def _line(self, addr: int) -> int:
        return addr >> self._line_shift

    def lookup(self, addr: int) -> bool:
        """Probe for ``addr``; update LRU and stats."""
        line = self._line(addr)
        way_set = self._sets.get(line % self._num_sets)
        if way_set is not None and line in way_set:
            way_set.pop(line)
            way_set[line] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def install(self, addr: int) -> Optional[int]:
        """Insert the line for ``addr``; return the evicted line or None."""
        line = self._line(addr)
        index = line % self._num_sets
        way_set = self._sets.setdefault(index, {})
        if line in way_set:
            way_set.pop(line)
            way_set[line] = None
            return None
        evicted = None
        if len(way_set) >= self._assoc:
            evicted = next(iter(way_set))
            way_set.pop(evicted)
        way_set[line] = None
        return evicted

    def contains(self, addr: int) -> bool:
        """Probe without updating LRU or statistics."""
        line = self._line(addr)
        way_set = self._sets.get(line % self._num_sets)
        return way_set is not None and line in way_set

    def invalidate(self, addr: int) -> None:
        line = self._line(addr)
        way_set = self._sets.get(line % self._num_sets)
        if way_set is not None:
            way_set.pop(line, None)

    def flush(self) -> None:
        self._sets.clear()

    def batch_view(self) -> CacheBatchView:
        """Mutable flat state for the batched replay engine."""
        return CacheBatchView(
            sets=self._sets,
            line_shift=self._line_shift,
            num_sets=self._num_sets,
            assoc=self._assoc,
            latency=self.config.latency,
            name=self.config.name.split("(")[0],
            stats=self.stats,
        )

    def array_view(self) -> CacheArrayView:
        """Flat ndarray state copy for the native kernel engine.

        See :class:`CacheArrayView` for the writeback contract.
        """
        tags = np.full(self._num_sets * self._assoc, -1, dtype=np.int64)
        nvalid = np.zeros(self._num_sets, dtype=np.int64)
        assoc = self._assoc
        for idx, ways in self._sets.items():
            base = idx * assoc
            count = 0
            for line in ways:
                tags[base + count] = line
                count += 1
            nvalid[idx] = count
        return CacheArrayView(
            tags=tags,
            nvalid=nvalid,
            line_shift=self._line_shift,
            num_sets=self._num_sets,
            assoc=self._assoc,
            latency=self.config.latency,
            name=self.config.name.split("(")[0],
            stats=self.stats,
            owner=self,
        )


@dataclass
class AccessResult:
    """Outcome of one hierarchy access."""

    latency: int
    level: str  # "L1", "L2", "LLC" or "MEM"


class CacheHierarchy:
    """L1 -> L2 -> LLC -> memory, inclusive, LRU.

    ``access`` returns the round-trip latency of the satisfying level; lower
    levels that missed get the line installed so subsequent accesses hit
    closer to the core.
    """

    def __init__(self, levels: List[CacheConfig], memory_latency: int):
        if not levels:
            raise ValueError("need at least one cache level")
        self.levels = [SetAssociativeCache(cfg) for cfg in levels]
        self.memory_latency = memory_latency
        self.memory_accesses = 0

    @classmethod
    def from_machine(cls, machine: MachineConfig) -> "CacheHierarchy":
        return cls([machine.l1d, machine.l2, machine.llc], machine.memory_latency)

    @classmethod
    def pte_side(cls, machine: MachineConfig) -> "CacheHierarchy":
        """Hierarchy scaled to the page-table share of the caches (DESIGN §5).

        Each level keeps only the share of capacity that page-table lines
        effectively retain while the application streams data through the
        same caches. The surviving L1 slice is tiny (a handful of lines) —
        enough for the hottest upper-level table lines, which Figure 16
        shows costing L1/L2-class latencies, but nothing else.
        """
        levels = [
            machine.scaled_pte_cache(machine.l1d),
            machine.scaled_pte_cache(machine.l2),
            machine.scaled_pte_cache(machine.llc),
        ]
        return cls(levels, machine.memory_latency)

    def access(self, addr: int) -> AccessResult:
        missed: List[SetAssociativeCache] = []
        for cache in self.levels:
            if cache.lookup(addr):
                for lower in missed:
                    lower.install(addr)
                return AccessResult(cache.latency, cache.config.name.split("(")[0])
            missed.append(cache)
        self.memory_accesses += 1
        for lower in missed:
            lower.install(addr)
        return AccessResult(self.memory_latency, "MEM")

    def probe(self, addr: int) -> AccessResult:
        """Access that does not allocate on a miss.

        Used for losing parallel probes (ECPT ways, FPT/DMT multi-size
        slots): they consume bandwidth but their junk lines are not kept —
        keeping them would over-weight pollution in the capacity-scaled
        PTE-side caches.
        """
        for cache in self.levels:
            if cache.lookup(addr):
                return AccessResult(cache.latency, cache.config.name.split("(")[0])
        self.memory_accesses += 1
        return AccessResult(self.memory_latency, "MEM")

    def warm(self, addr: int) -> None:
        """Install a line in every level without charging latency (prefetch)."""
        for cache in self.levels:
            cache.install(addr)

    def contains(self, addr: int) -> bool:
        return any(cache.contains(addr) for cache in self.levels)

    def flush(self) -> None:
        for cache in self.levels:
            cache.flush()
