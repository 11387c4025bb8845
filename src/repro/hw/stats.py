"""Hit/miss counters shared by the TLBs, PTE caches and page-walk caches."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class HitStats:
    """Per-structure hit/miss counts; value equality lets the parity
    suites compare the stats of independently replayed machines."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
