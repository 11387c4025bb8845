"""Page-walk caches (PWC) and the nested PWC.

A PWC caches partial translations: level ``n`` of the PWC maps the virtual
address bits consumed down to radix level ``n`` onto the physical address of
the level-``n`` page-table node, letting the walker skip the upper levels of
the tree. Table 3 configures three PWC levels with 2 / 4 / 32 entries
(caching L4, L3 and L2 lookups respectively) at 1-cycle latency.

The nested PWC plays the same role for the host dimension of a 2D walk: it
caches gPA -> host-leaf partial walks so the inner hL4..hL1 chain can be
skipped for recently-walked guest-physical pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arch import level_shift
from repro.hw.config import PWCConfig
from repro.analysis import sanitizer
from repro.hw.stats import HitStats


@dataclass
class PWCBatchView:
    """Flat mutable view of a :class:`PageWalkCache` (batched engine).

    ``tables`` are the live per-level insertion-ordered dicts (MRU last;
    evict = pop first). ``key_shifts[offset]`` turns a VA into the
    offset's lookup key (``va >> key_shifts[offset]``). ``accept`` and
    ``credit`` are the hit-thinning state, shared by reference so credit
    updates persist.
    """

    tables: list
    capacities: list
    accept: list
    credit: list
    key_shifts: list
    top_level: int
    stats: HitStats


@dataclass
class NestedPWCBatchView:
    """Flat mutable view of a :class:`NestedPWC` (batched engine)."""

    table: dict
    capacity: int
    accept: float
    stats: HitStats
    owner: "NestedPWC"   # credit lives on the owner (float, write back)


@dataclass
class PWCArrayView:
    """Flat ndarray snapshot of a :class:`PageWalkCache` (native kernels).

    ``keys[level, :sizes[level]]`` / ``vals[level, ...]`` hold each
    level's entries in LRU order, oldest first (unused slots ``-1``).
    This is a *copy* of the live tables: the caller mutates the arrays
    and must call :meth:`writeback` exactly once afterwards; the owner
    must not be probed through any other path in between.
    Hit/miss stats are not carried — kernels accumulate them
    separately and flush to :class:`HitStats` themselves; ``credit``
    *is* carried (and written back) because it is replay state.
    """

    keys: np.ndarray          # int64[levels, max_capacity]
    vals: np.ndarray          # int64[levels, max_capacity]
    sizes: np.ndarray         # int64[levels], live entries per level
    capacities: np.ndarray    # int64[levels]
    key_shifts: np.ndarray    # int64[levels], VA -> lookup key shifts
    accept: np.ndarray        # float64[levels]
    credit: np.ndarray        # float64[levels]
    top_level: int
    stats: HitStats
    owner: "PageWalkCache"

    def writeback(self) -> None:
        """Rebuild the owner's LRU tables and credits from the arrays."""
        for offset, table in enumerate(self.owner._tables):
            count = int(self.sizes[offset])
            table._entries = {int(self.keys[offset, k]):
                              int(self.vals[offset, k])
                              for k in range(count)}
        credit = self.owner._credit
        for offset in range(len(credit)):
            credit[offset] = float(self.credit[offset])


@dataclass
class NestedPWCArrayView:
    """Flat ndarray snapshot of a :class:`NestedPWC` (native kernels).

    Same copy/writeback contract as :class:`PWCArrayView`, over the
    single gfn -> hfn LRU table.
    """

    keys: np.ndarray      # int64[capacity], LRU order, oldest first
    vals: np.ndarray      # int64[capacity]
    meta: np.ndarray      # int64[2]: [live entries, capacity]
    accept: float
    credit: np.ndarray    # float64[1], written back to the owner
    stats: HitStats
    owner: "NestedPWC"

    def writeback(self) -> None:
        count = int(self.meta[0])
        self.owner._table._entries = {int(self.keys[k]): int(self.vals[k])
                                      for k in range(count)}
        self.owner._credit = float(self.credit[0])


class _LRUTable:
    """Tiny fully-associative LRU table (PWC levels hold 2..32 entries)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: Dict[int, int] = {}

    def get(self, key: int) -> Optional[int]:
        if key in self._entries:
            value = self._entries.pop(key)
            self._entries[key] = value
            return value
        return None

    def peek(self, key: int) -> Optional[int]:
        """Non-mutating lookup: no LRU reordering."""
        return self._entries.get(key)

    def put(self, key: int, value: int) -> None:
        if key in self._entries:
            self._entries.pop(key)
        elif len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()


class PageWalkCache:
    """MMU cache over the upper levels of a radix tree.

    For a walk starting at level ``top`` (4 or 5), ``best_entry`` returns the
    deepest cached level: the walker then starts fetching at ``level - 1``.
    Keys are the VA prefix consumed above the returned node.
    """

    def __init__(self, config: PWCConfig, top_level: int = 4,
                 accept_rates: Optional[Sequence[float]] = None):
        self.config = config
        self.top_level = top_level
        # PWC level i caches nodes *pointed to by* radix level (top - i),
        # i.e. tables[0] -> skips L4, tables[-1] -> skips down to L2.
        self._tables = [_LRUTable(n) for n in config.entries_per_level]
        self.stats = HitStats()
        # Hit-rate thinning for scaled-down simulations: a hit at PWC
        # level i is *accepted* only at rate accept_rates[i], restoring the
        # hit rate the same structure would see against a full-size
        # working set (DESIGN.md §5). Deterministic (credit counters); a
        # rate of 1.0 (the default) accepts every hit and keeps its
        # credit at exactly 0.0.
        self._accept = (list(accept_rates) if accept_rates is not None
                        else [1.0] * len(self._tables))
        self._credit = [0.0] * len(self._tables)
        sanitizer.register_pwc(self)  # no-op unless --sanitize is active

    def _key(self, va: int, level: int) -> int:
        """VA bits that select the level-``level`` table."""
        return va >> level_shift(level + 1)

    def best_entry(self, va: int) -> Tuple[int, Optional[int]]:
        """Deepest cached partial walk for ``va``.

        Returns ``(level, table_addr)`` where ``level`` is the radix level of
        the table whose physical address is ``table_addr``; the walker resumes
        by indexing that table. If nothing is cached, returns
        ``(top_level, None)`` and the walk starts from the root.
        """
        for offset in range(len(self._tables) - 1, -1, -1):
            level = self.top_level - 1 - offset  # table level this PWC level provides
            addr = self._tables[offset].get(self._key(va, level))
            if addr is not None and self._accept_hit(offset):
                self.stats.hits += 1
                return (level, addr)
        self.stats.misses += 1
        return (self.top_level, None)

    def _accept_hit(self, offset: int) -> bool:
        self._credit[offset] += self._accept[offset]
        if self._credit[offset] >= 1.0:
            self._credit[offset] -= 1.0
            return True
        return False

    def peek(self, va: int, level: int) -> Optional[int]:
        """Non-mutating: cached address of the level-``level`` table for
        ``va``, without stats or thinning credit (sanitizer probes)."""
        offset = self.top_level - 1 - level
        if 0 <= offset < len(self._tables):
            return self._tables[offset].peek(self._key(va, level))
        return None

    def batch_view(self) -> "PWCBatchView":
        """Mutable flat state for the batched replay engine.

        The engine inlines :meth:`best_entry`/:meth:`fill` over the raw
        per-level dicts (same insertion-order LRU semantics) so the PWC
        contents, credits, and stats after a batched replay are identical
        to a scalar replay's.
        """
        return PWCBatchView(
            tables=[table._entries for table in self._tables],
            capacities=[table.capacity for table in self._tables],
            accept=self._accept,
            credit=self._credit,
            key_shifts=[level_shift(self.top_level - offset)
                        for offset in range(len(self._tables))],
            top_level=self.top_level,
            stats=self.stats,
        )

    def array_view(self) -> "PWCArrayView":
        """Flat ndarray state copy for the native kernel engine.

        See :class:`PWCArrayView` for the writeback contract.
        """
        nlev = len(self._tables)
        maxcap = max(table.capacity for table in self._tables)
        keys = np.full((nlev, maxcap), -1, dtype=np.int64)
        vals = np.full((nlev, maxcap), -1, dtype=np.int64)
        sizes = np.zeros(nlev, dtype=np.int64)
        for offset, table in enumerate(self._tables):
            for k, (key, val) in enumerate(table._entries.items()):
                keys[offset, k] = key
                vals[offset, k] = val
            sizes[offset] = len(table._entries)
        return PWCArrayView(
            keys=keys,
            vals=vals,
            sizes=sizes,
            capacities=np.array([t.capacity for t in self._tables],
                                dtype=np.int64),
            key_shifts=np.array([level_shift(self.top_level - offset)
                                 for offset in range(nlev)], dtype=np.int64),
            accept=np.asarray(self._accept, dtype=np.float64),
            credit=np.asarray(self._credit, dtype=np.float64),
            top_level=self.top_level,
            stats=self.stats,
            owner=self,
        )

    def fill(self, va: int, level: int, table_addr: int) -> None:
        """Record that the level-``level`` table for ``va`` lives at ``table_addr``."""
        offset = self.top_level - 1 - level
        if 0 <= offset < len(self._tables):
            self._tables[offset].put(self._key(va, level), table_addr)

    def flush(self) -> None:
        for table in self._tables:
            table.clear()


class NestedPWC:
    """Caches completed gPA -> hPA translations of page-table accesses.

    During a 2D walk every guest-dimension step needs the host physical
    address of a guest-physical page-table page; this cache short-circuits
    the inner host walk for recently used guest-physical frames (the paper's
    "Nested PWC", Table 3). Keyed by guest frame number.
    """

    def __init__(self, config: PWCConfig, accept_rate: float = 1.0):
        self.config = config
        self._table = _LRUTable(sum(config.entries_per_level))
        self.stats = HitStats()
        self._accept = accept_rate
        self._credit = 0.0

    def get(self, gfn: int) -> Optional[int]:
        hfn = self._table.get(gfn)
        if hfn is not None:
            # credit thinning; a rate of 1.0 keeps the credit at 0.0
            self._credit += self._accept
            if self._credit >= 1.0:
                self._credit -= 1.0
            else:
                hfn = None
        if hfn is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return hfn

    def fill(self, gfn: int, hfn: int) -> None:
        self._table.put(gfn, hfn)

    def flush(self) -> None:
        self._table.clear()

    @property
    def credit(self) -> float:
        """Hit-thinning credit counter (batched engine reads/writes it)."""
        return self._credit

    @credit.setter
    def credit(self, value: float) -> None:
        self._credit = value

    def batch_view(self) -> NestedPWCBatchView:
        """Mutable flat state for the batched replay engine."""
        return NestedPWCBatchView(
            table=self._table._entries,
            capacity=self._table.capacity,
            accept=self._accept,
            stats=self.stats,
            owner=self,
        )

    def array_view(self) -> "NestedPWCArrayView":
        """Flat ndarray state copy for the native kernel engine.

        See :class:`NestedPWCArrayView` for the writeback contract.
        """
        capacity = self._table.capacity
        keys = np.full(capacity, -1, dtype=np.int64)
        vals = np.full(capacity, -1, dtype=np.int64)
        for k, (key, val) in enumerate(self._table._entries.items()):
            keys[k] = key
            vals[k] = val
        return NestedPWCArrayView(
            keys=keys,
            vals=vals,
            meta=np.array([len(self._table._entries), capacity],
                          dtype=np.int64),
            accept=self._accept,
            credit=np.array([self._credit], dtype=np.float64),
            stats=self.stats,
            owner=self,
        )
