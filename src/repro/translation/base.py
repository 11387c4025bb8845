"""Walker framework shared by every translation design.

A *walker* turns one virtual address into a physical address, charging
every PTE fetch through a :class:`MemorySubsystem` (the page-table side of
the cache hierarchy plus the MMU caches of Table 3). Sequential fetches
add latency; parallel probes within one group cost the slowest member
(hash-based designs and DMT's multi-size probes rely on this, §4.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch import PageSize
from repro.hw.cache import CacheHierarchy
from repro.hw.config import MachineConfig
from repro.hw.pwc import NestedPWC, PageWalkCache


@dataclass
class MemRef:
    """One memory reference made during a translation."""

    addr: int
    tag: str          # e.g. "L1", "gL2", "hL4", "gPTE" — figure 16 labels
    latency: int
    hit_level: str    # cache level that served it ("L1D"/"L2"/"LLC"/"MEM")
    group: int = -1   # parallel probes share a group id


@dataclass
class WalkResult:
    """Outcome of translating one address."""

    va: int
    cycles: int
    refs: List[MemRef]
    pa: Optional[int] = None
    page_size: PageSize = PageSize.SIZE_4K
    fallback: bool = False   # DMT register miss -> x86 walker handled it

    @property
    def sequential_steps(self) -> int:
        """Number of serialized memory accesses (parallel groups count once)."""
        seen: Dict[int, None] = {}
        steps = 0
        for ref in self.refs:
            if ref.group >= 0:
                if ref.group not in seen:
                    seen[ref.group] = None
                    steps += 1
            else:
                steps += 1
        return steps


def pwc_accept_rates(pwc_config, ws_bytes: int, paper_ws_bytes: int):
    """Hit-acceptance rates restoring paper-scale PWC hit rates.

    PWC level *i* (top first) holds ``n_i`` entries each covering
    ``c_i`` bytes of VA (512 GB / 1 GB / 2 MB for a 3-level PWC over a
    4-level tree). Against a working set ``ws``, its raw hit rate is
    roughly ``min(1, n*c/ws)``; scaled-down working sets inflate this, so
    hits are accepted at the ratio of paper-scale to simulated-scale hit
    rates (DESIGN.md §5), at most 1.0: a working set at least the
    paper's is not thinned.
    """
    rates = []
    nlevels = len(pwc_config.entries_per_level)
    for i, entries in enumerate(pwc_config.entries_per_level):
        coverage = 1 << (12 + 9 * (nlevels - i))   # bytes per entry
        paper_hit = min(1.0, entries * coverage / paper_ws_bytes)
        sim_hit = min(1.0, entries * coverage / ws_bytes)
        rates.append(min(1.0, paper_hit / sim_hit) if sim_hit else 1.0)
    return rates


class MemorySubsystem:
    """Page-table-side memory system: PTE caches + PWC + nested PWC."""

    def __init__(self, machine: MachineConfig, levels: int = 4,
                 record_refs: bool = True,
                 ws_bytes: Optional[int] = None,
                 paper_ws_bytes: Optional[int] = None):
        self.machine = machine
        self.caches = CacheHierarchy.pte_side(machine)
        pwc_rates = None
        npwc_rate = 1.0
        if ws_bytes and paper_ws_bytes:
            pwc_rates = pwc_accept_rates(machine.pwc, ws_bytes, paper_ws_bytes)
            npwc_rate = min(1.0, ws_bytes / paper_ws_bytes)
        self.pwc = PageWalkCache(machine.pwc, top_level=levels,
                                 accept_rates=pwc_rates)
        self.guest_pwc = PageWalkCache(machine.pwc, top_level=levels,
                                       accept_rates=pwc_rates)
        self.nested_pwc = NestedPWC(machine.nested_pwc, accept_rate=npwc_rate)
        self.pwc_latency = machine.pwc.latency
        #: When False, walkers skip building per-reference MemRef lists
        #: (bulk simulation mode; Figure 16 turns it back on).
        self.record_refs = record_refs

    def flush(self) -> None:
        self.caches.flush()
        self.pwc.flush()
        self.guest_pwc.flush()
        self.nested_pwc.flush()


class WalkRecorder:
    """Accumulates the references and latency of one translation."""

    def __init__(self, memsys: MemorySubsystem):
        self.memsys = memsys
        self.refs: List[MemRef] = []
        self.cycles = 0
        self._record = memsys.record_refs
        self._open_group: int = -1
        self._group_max = 0

    def fetch(self, addr: int, tag: str) -> MemRef:
        """One sequential memory reference."""
        self._close_group()
        result = self.memsys.caches.access(addr)
        self.cycles += result.latency
        if not self._record:
            return None
        ref = MemRef(addr, tag, result.latency, result.level)
        self.refs.append(ref)
        return ref

    def fetch_grouped(self, addr: int, tag: str, group: int) -> MemRef:
        """A reference that may run in parallel with same-group references."""
        if group != self._open_group:
            self._close_group()
            self._open_group = group
        result = self.memsys.caches.access(addr)
        if result.latency > self._group_max:
            self._group_max = result.latency
        if not self._record:
            return None
        ref = MemRef(addr, tag, result.latency, result.level, group=group)
        self.refs.append(ref)
        return ref

    def charge(self, cycles: int) -> None:
        """Non-memory latency (hash computation, PWC probe, ...)."""
        self._close_group()
        self.cycles += cycles

    def finish(self) -> int:
        self._close_group()
        return self.cycles

    def _close_group(self) -> None:
        if self._open_group >= 0:
            self.cycles += self._group_max
            self._open_group = -1
            self._group_max = 0


@dataclass
class BatchSpec:
    """A walker's geometry, exposed for the batched replay engine.

    :mod:`repro.sim.walk_vec` replays whole miss streams without calling
    ``translate`` per address; to do that it needs the structures a
    walker consults (page tables, the VM for host-dimension resolution,
    or the DMT fetch attempt plus its radix fallback). A walker without
    a batched path returns ``None`` from :meth:`Walker.batch_spec` and
    the engine transparently falls back to the scalar loop.

    ``kind`` selects the planner: ``"radix-native"`` (one-dimensional
    walk over ``page_table``), ``"radix-nested"`` (two-dimensional walk
    over ``guest_pt`` with host resolution through ``vm``), ``"dmt"``
    (register attempt via ``attempt``/``fetcher`` with ``fallback``
    handling register misses), ``"ecpt-native"``/``"ecpt-nested"``
    (hashed-bucket probing over ``ecpt``/``host_ecpt`` with the walker's
    live Cuckoo Walk Cache ``cwc``), ``"fpt-native"``/``"fpt-nested"``
    (flattened two-level plans over ``fpt``/``host_fpt``), ``"agile"`` (shadow
    upper levels over ``spt`` + nested leaf through ``vm``), or
    ``"asap-native"``/``"asap-nested"`` (prefetch cost model wrapped
    around the ``inner`` radix walker's plan).
    """

    kind: str
    page_table: object = None       # radix-native: the table walked
    guest_pt: object = None         # radix-nested: guest page table
    vm: object = None               # radix-nested: VM/adapter (gpa_to_hpa, ept)
    attempt: Optional[Callable] = None   # dmt: (va, fetch_cb) -> FetchResult
    fetcher: object = None          # dmt: the DMTFetcher (counter fidelity)
    fallback: object = None         # dmt: Walker covering register misses
    ecpt: object = None             # ecpt-*: guest/native cuckoo tables
    host_ecpt: object = None        # ecpt-nested: host cuckoo tables
    cwc: object = None              # ecpt-*: the walker's cuckoo-walk cache
    fpt: object = None              # fpt-*: guest/native flattened table
    host_fpt: object = None         # fpt-nested: host flattened table
    probe_huge: bool = False        # fpt-*: parallel 2M slot probing
    spt: object = None              # agile: the shadow page table
    inner: object = None            # asap-*: the wrapped radix walker
    #: Extra walkers whose walks/cycles counters mirror this walker's
    #: (ShadowWalker records through its inner native walker too).
    extra_walkers: Tuple = field(default_factory=tuple)


class Walker(abc.ABC):
    """A translation design: VA in, WalkResult out."""

    #: Short display name used by benches and reports.
    name: str = "walker"

    def __init__(self, memsys: MemorySubsystem):
        self.memsys = memsys
        self.walks = 0
        self.total_cycles = 0
        self.fallbacks = 0

    @abc.abstractmethod
    def translate(self, va: int) -> WalkResult:
        """Translate one address, charging latency through ``memsys``."""

    def batch_spec(self) -> Optional[BatchSpec]:
        """Geometry for the batched replay engine; None = scalar only."""
        return None

    def record(self, result: WalkResult) -> WalkResult:
        self.walks += 1
        self.total_cycles += result.cycles
        if result.fallback:
            self.fallbacks += 1
        return result

    @property
    def mean_latency(self) -> float:
        return self.total_cycles / self.walks if self.walks else 0.0
