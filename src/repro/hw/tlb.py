"""TLB models: single level and the two-level L1 + STLB arrangement.

TLBs are indexed by (address-space id, virtual page number). Huge pages
occupy one entry tagged with their page size, as on real Intel STLBs that
hold 4 KB and 2 MB translations together.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.arch import PageSize, vpn_of
from repro.hw.config import MachineConfig, TLBConfig
from repro.analysis import sanitizer
from repro.hw.stats import HitStats


Key = Tuple[int, int, int]  # (asid, page-size shift, page-size-granule VPN)


class TLB:
    """One set-associative TLB level with LRU replacement."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._sets: Dict[int, Dict[Key, None]] = {}
        self.stats = HitStats()

    def _set_index(self, key: Key) -> int:
        return key[2] % self._num_sets

    def lookup(self, asid: int, va: int, page_size: PageSize) -> bool:
        key = (asid, int(page_size), vpn_of(va, page_size))
        way_set = self._sets.get(self._set_index(key))
        if way_set is not None and key in way_set:
            way_set.pop(key)
            way_set[key] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def install(self, asid: int, va: int, page_size: PageSize) -> None:
        key = (asid, int(page_size), vpn_of(va, page_size))
        way_set = self._sets.setdefault(self._set_index(key), {})
        if key in way_set:
            way_set.pop(key)
        elif len(way_set) >= self._assoc:
            way_set.pop(next(iter(way_set)))
        way_set[key] = None

    def probe(self, asid: int, va: int, page_size: PageSize) -> bool:
        """Non-mutating presence check: no stats, no LRU reordering."""
        key = (asid, int(page_size), vpn_of(va, page_size))
        way_set = self._sets.get(self._set_index(key))
        return way_set is not None and key in way_set

    def invalidate_asid(self, asid: int) -> None:
        for way_set in self._sets.values():
            stale = [key for key in way_set if key[0] == asid]
            for key in stale:
                way_set.pop(key)

    def flush(self) -> None:
        self._sets.clear()


class TLBHierarchy:
    """L1 D-TLB backed by the unified L2 STLB (Table 3 geometry).

    ``lookup`` returns True on a hit at either level; an L1 miss that hits
    the STLB refills L1. A full miss triggers a page walk in the simulator,
    which then calls ``fill`` with the translation's page size.

    ``accept_rates`` (per page size) thin hits for scaled-down working
    sets: each TLB entry covers a constant number of bytes, so against a
    working set 512x smaller than the paper's the TLB reach is relatively
    512x larger — especially distorting for 2 MB entries, whose reach can
    cover the entire scaled working set. Accepting hits at the ratio of
    paper-scale to simulated-scale hit rates restores the miss behaviour
    (DESIGN.md §5); the thinning is deterministic (credit counters). A
    size without a rate, or with rate 1.0, is not thinned.
    """

    def __init__(self, l1: TLBConfig, stlb: TLBConfig,
                 accept_rates: Optional[Dict[PageSize, float]] = None):
        self.l1 = TLB(l1)
        self.stlb = TLB(stlb)
        self._accept = dict(accept_rates or {})
        self._credit: Dict[PageSize, float] = {}
        sanitizer.register_tlb(self)  # no-op unless --sanitize is active

    @classmethod
    def from_machine(cls, machine: MachineConfig,
                     accept_rates: Optional[Dict[PageSize, float]] = None
                     ) -> "TLBHierarchy":
        return cls(machine.l1d_tlb, machine.l2_stlb, accept_rates)

    def _accept_hit(self, page_size: PageSize) -> bool:
        rate = self._accept.get(page_size, 1.0)
        if rate >= 1.0:
            return True
        credit = self._credit.get(page_size, 0.0) + rate
        if credit >= 1.0:
            self._credit[page_size] = credit - 1.0
            return True
        self._credit[page_size] = credit
        return False

    def lookup(self, asid: int, va: int, page_size: PageSize) -> bool:
        if self.l1.lookup(asid, va, page_size):
            if self._accept_hit(page_size):
                return True
            return False
        if self.stlb.lookup(asid, va, page_size):
            self.l1.install(asid, va, page_size)
            if self._accept_hit(page_size):
                return True
            return False
        return False

    def probe(self, asid: int, va: int, page_size: PageSize) -> bool:
        """Non-mutating: is the translation present at either level?"""
        return self.l1.probe(asid, va, page_size) or \
            self.stlb.probe(asid, va, page_size)

    def fill(self, asid: int, va: int, page_size: PageSize) -> None:
        self.stlb.install(asid, va, page_size)
        self.l1.install(asid, va, page_size)

    def flush(self) -> None:
        self.l1.flush()
        self.stlb.flush()

    @property
    def miss_rate(self) -> float:
        """Full-hierarchy miss rate relative to L1 accesses."""
        total = self.l1.stats.accesses
        return self.stlb.stats.misses / total if total else 0.0
