"""Trace-driven simulation: TLB filtering + per-design walk replay.

Stage 1 runs a workload's address trace through the two-level TLB
hierarchy once, producing the stream of TLB-miss addresses (with the page
size each translation would install). Stage 2 replays that *same* miss
stream through each translation design's walker, so designs are compared
on identical inputs — the structure of the paper's DynamoRIO methodology
(§5) at simulation scale.

Stage 1 runs on :mod:`repro.sim.tlb_vec`, which batches the
per-reference work with NumPy and runs a chunked state machine over
flat set/way arrays. The scalar :class:`~repro.hw.tlb.TLBHierarchy`
path is kept as the reference oracle (:class:`ScalarTLBFilterStream`,
:func:`tlb_filter_scalar`) that tests compare against; the two are
bit-identical by construction and by test (``tests/test_tlb_vec.py``).

Stage 2 mirrors that structure: :func:`replay_walks` is the scalar
oracle and the one dispatcher, and :func:`repro.sim.walk_vec.replay_batched`
is the batched replay every design has (``tests/test_walk_vec.py`` pins
bit-identity). ``engine="auto"`` picks the batched path whenever the
walker supports it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch import PageSize
from repro.hw.config import MachineConfig
from repro.hw.tlb import TLBHierarchy
from repro.sim import tlb_vec, walk_vec
from repro.translation.base import Walker

SizeLookup = Callable[[int], PageSize]

#: Page size is uniform within a 2 MB region, so classification memoizes
#: per 2 MB "unit" (VA >> this shift).
_UNIT_SHIFT = int(PageSize.SIZE_2M)


@dataclass
class TLBFilterResult:
    """Stage-1 output: which references missed the TLB hierarchy.

    ``miss_vas`` is an int64 ndarray (the replay fast path and the
    vectorized engine hand arrays around without copying).
    """

    miss_vas: np.ndarray
    total_refs: int

    def __post_init__(self):
        self.miss_vas = np.asarray(self.miss_vas, dtype=np.int64)

    @property
    def miss_count(self) -> int:
        return len(self.miss_vas)

    @property
    def miss_rate(self) -> float:
        return self.miss_count / self.total_refs if self.total_refs else 0.0


class SizeClassifier:
    """Page size of the translation covering a VA (memoized per 2 MB unit).

    The TLB needs the installed translation's page size; under THP a VMA
    mixes 4 KB and 2 MB pages. Page size is uniform within a 2 MB region
    in this simulator, so memoization is exact — and the batch interface
    can classify whole traces with one page-table lookup per unique
    region, sharing the same memo dict as the scalar calls.
    """

    def __init__(self, page_table):
        self._page_table = page_table
        self._cache: Dict[int, PageSize] = {}

    def __call__(self, va: int) -> PageSize:
        size = self._cache.get(va >> _UNIT_SHIFT)
        if size is None:
            return self._classify(va >> _UNIT_SHIFT, va)
        return size

    def _classify(self, unit: int, va: int) -> PageSize:
        found = self._page_table.lookup(va)
        size = found[2] if found is not None else PageSize.SIZE_4K
        self._cache[unit] = size
        return size

    def batch_units(self, units: np.ndarray) -> np.ndarray:
        """Page-size *shifts* for an array of unique 2 MB unit indices."""
        cache = self._cache
        shifts = np.empty(len(units), dtype=np.int64)
        for pos, unit in enumerate(units.tolist()):
            size = cache.get(unit)
            if size is None:
                size = self._classify(unit, unit << _UNIT_SHIFT)
            shifts[pos] = int(size)
        return shifts

    def batch(self, vas: np.ndarray) -> np.ndarray:
        """Per-reference page-size shifts for a whole trace."""
        return tlb_vec.classify_trace(
            np.asarray(vas, dtype=np.int64), self
        )


def make_size_lookup(page_table) -> SizeClassifier:
    """Build the (batch-capable) size classifier for a page table."""
    return SizeClassifier(page_table)


def tlb_accept_rates(machine: MachineConfig, ws_bytes: int,
                     paper_ws_bytes: int) -> Dict[PageSize, float]:
    """Per-page-size TLB hit-acceptance rates for a scaled working set.

    A TLB entry of page size ``p`` covers ``entries * p`` bytes; its raw
    hit rate against a working set is roughly min(1, reach/ws). The
    acceptance rate restores the paper-scale hit rate (DESIGN.md §5), at
    most 1.0: a working set at least the paper's is not thinned.
    """
    entries = machine.l2_stlb.entries
    rates = {}
    for size in PageSize:
        reach = entries * size.bytes
        paper_hit = min(1.0, reach / paper_ws_bytes)
        sim_hit = min(1.0, reach / ws_bytes)
        rates[size] = min(1.0, paper_hit / sim_hit) if sim_hit else 1.0
    return rates


class ScalarTLBFilterStream:
    """Reference oracle: the original per-reference scalar TLB model,
    fed the trace chunk by chunk.

    One :class:`~repro.hw.tlb.TLBHierarchy` lives across ``feed`` calls,
    so chunk boundaries are invisible to it — the same contract, and
    the same ``feed`` / ``total_refs`` / ``total_misses`` surface, as
    :class:`~repro.sim.tlb_vec.TLBFilterStream`.
    """

    def __init__(self, machine: MachineConfig, size_lookup: SizeLookup,
                 asid: int = 1,
                 accept_rates: Optional[Dict[PageSize, float]] = None):
        self._tlbs = TLBHierarchy.from_machine(machine, accept_rates)
        self._size_lookup = size_lookup
        self._asid = asid
        self.total_refs = 0
        self.total_misses = 0

    def feed(self, trace: np.ndarray) -> np.ndarray:
        """Filter one trace chunk; returns its miss-stream segment."""
        misses: List[int] = []
        lookup = self._tlbs.lookup
        fill = self._tlbs.fill
        size_lookup = self._size_lookup
        asid = self._asid
        for va in np.asarray(trace, dtype=np.int64).tolist():
            size = size_lookup(va)
            if not lookup(asid, va, size):
                misses.append(va)
                fill(asid, va, size)
        self.total_refs += len(trace)
        self.total_misses += len(misses)
        return np.asarray(misses, dtype=np.int64)


def tlb_filter_scalar(
    trace: np.ndarray,
    machine: MachineConfig,
    size_lookup: SizeLookup,
    asid: int = 1,
    accept_rates: Optional[Dict[PageSize, float]] = None,
) -> TLBFilterResult:
    """Reference oracle: one feed of a fresh :class:`ScalarTLBFilterStream`."""
    stream = ScalarTLBFilterStream(machine, size_lookup, asid=asid,
                                   accept_rates=accept_rates)
    return TLBFilterResult(stream.feed(trace), len(trace))


@dataclass
class WalkStats:
    """Stage-2 output for one design."""

    design: str
    walks: int = 0
    total_cycles: int = 0
    fallbacks: int = 0
    ref_count: int = 0
    #: per-position mean breakdown for Figure 16 (tag -> [sum, count])
    step_cycles: Dict[str, List[float]] = field(default_factory=dict)
    #: Which stage-2 path produced these stats: "scalar", "vec" (the
    #: batched runners) or "native" (the batched kernels).
    #: Telemetry only — excluded from equality so parity tests can
    #: compare vec and scalar WalkStats directly.
    engine: str = field(default="scalar", compare=False)
    #: Why ``engine="auto"`` fell back to the scalar loop (the
    #: :func:`repro.sim.walk_vec.unsupported_reason` string), or None
    #: when the batched path ran or scalar was requested explicitly.
    #: Telemetry only — excluded from equality like ``engine``.
    fallback_reason: Optional[str] = field(default=None, compare=False)

    @property
    def mean_latency(self) -> float:
        return self.total_cycles / self.walks if self.walks else 0.0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.walks if self.walks else 0.0

    def overhead_cycles(self) -> int:
        """Total translation overhead O_sim of §5's model."""
        return self.total_cycles

    def step_breakdown(self) -> Dict[str, float]:
        """Mean cycles per step tag (only populated with record_refs)."""
        return {
            tag: total / count
            for tag, (total, count) in self.step_cycles.items()
        }


#: Misses converted per chunk by the scalar replay loop: slices convert
#: through ``.tolist()`` piecewise instead of materializing the whole
#: miss stream as one Python list up front.
_REPLAY_CHUNK = 1 << 16


def _chunked_ints(vas: np.ndarray, start: int, stop: int):
    """Yield ``vas[start:stop]`` as Python ints, one chunk at a time."""
    for lo in range(start, stop, _REPLAY_CHUNK):
        yield from vas[lo:min(lo + _REPLAY_CHUNK, stop)].tolist()


def replay_walks(
    walker: Walker,
    miss_vas: Union[np.ndarray, Sequence[int]],
    warmup_fraction: float = 0.1,
    collect_steps: bool = False,
    engine: str = "scalar",
) -> WalkStats:
    """Run stage 2: replay the miss stream through one design.

    The first ``warmup_fraction`` of misses warm the PTE caches/PWCs and
    are excluded from the statistics (the paper's simulator similarly
    measures steady state over multi-billion-instruction traces). When
    ``collect_steps`` is off the loop keeps its counters in locals and
    allocates nothing per walk beyond what the walker itself returns.

    ``engine`` selects the stage-2 path: ``"scalar"`` (this loop, the
    reference oracle) or ``"auto"``, which checks
    :func:`repro.sim.walk_vec.unsupported_reason` once and then runs
    :func:`repro.sim.walk_vec.replay_batched` (the compiled kernels
    when numba is installed and no steps are collected, the vec runners
    otherwise) or, for a walker it names a reason for, this loop with
    that reason as ``fallback_reason``. All paths are bit-identical on
    supported designs (``tests/test_walk_vec.py``).
    """
    if engine not in ("scalar", "auto"):
        raise ValueError(f"unknown stage-2 engine {engine!r} "
                         "(expected 'scalar' or 'auto')")
    fallback_reason: Optional[str] = None
    if engine == "auto":
        fallback_reason = walk_vec.unsupported_reason(walker)
        if fallback_reason is None:
            return walk_vec.replay_batched(
                walker, miss_vas, warmup_fraction=warmup_fraction,
                collect_steps=collect_steps)
    vas = np.asarray(miss_vas, dtype=np.int64)
    stats = WalkStats(design=walker.name, fallback_reason=fallback_reason)
    total = len(vas)
    warmup = int(total * warmup_fraction)
    translate = walker.translate
    for va in _chunked_ints(vas, 0, warmup):
        translate(va)
    if not collect_steps:
        walks = total_cycles = ref_count = fallbacks = 0
        for va in _chunked_ints(vas, warmup, total):
            result = translate(va)
            walks += 1
            total_cycles += result.cycles
            ref_count += len(result.refs)
            if result.fallback:
                fallbacks += 1
        stats.walks = walks
        stats.total_cycles = total_cycles
        stats.ref_count = ref_count
        stats.fallbacks = fallbacks
        return stats
    for va in _chunked_ints(vas, warmup, total):
        result = translate(va)
        stats.walks += 1
        stats.total_cycles += result.cycles
        stats.ref_count += len(result.refs)
        if result.fallback:
            stats.fallbacks += 1
        if result.refs:
            # collapse parallel groups: one logical step per group
            seen_groups: Dict[int, str] = {}
            position = 0
            for ref in result.refs:
                if ref.group >= 0:
                    if ref.group in seen_groups:
                        continue
                    seen_groups[ref.group] = ref.tag
                position += 1
                key = f"{position:02d}:{ref.tag}"
                bucket = stats.step_cycles.setdefault(key, [0.0, 0])
                bucket[0] += ref.latency
                bucket[1] += 1
    return stats


class Stage1Cache:
    """Sweep-wide stage-1 memo: the TLB-miss stream, computed once.

    Grid cells that share a stage-1 input signature — workload, scale,
    trace length, seed, THP mode, tree depth, TLB geometry — produce
    the same miss stream regardless of environment: the workload layout
    and trace are deterministic in the process address space, and the
    TLB filter sees only virtual addresses and page sizes
    (``tests/test_walk_vec.py`` pins the cross-environment identity).
    A sweep group shares one instance across its environments so the
    trace is generated and TLB-filtered once per (workload, config,
    THP) group instead of once per environment.

    With an :class:`~repro.sim.artifacts.ArtifactCache` attached the
    memo extends across processes and runs: a key absent from the
    in-memory dict is looked up on disk (stage ``"stage1"``, keyed by
    the same signature) before being recomputed. The lookup order is
    memory, disk, build. Persisting is the build's job: the streaming
    pipeline writes the miss stream's segments under the same key as
    they are produced and commits the entry with its ``total_refs``
    and ``seconds`` (DESIGN.md §13).

    ``fetch`` records telemetry: ``last_seconds`` is the stage-1 wall
    time of the entry served (the original compute time when reused)
    and ``last_source`` where it came from: ``"memo"`` / ``"disk"`` /
    ``"computed"``.
    """

    def __init__(self, artifacts=None):
        self._entries: Dict[Tuple, Tuple[TLBFilterResult, float]] = {}
        #: Optional :class:`~repro.sim.artifacts.ArtifactCache`.
        self.artifacts = artifacts
        self.computed = 0
        self.reused = 0
        self.last_seconds = 0.0
        self.last_source = "none"

    def fetch(self, key: Tuple,
              build: Callable[[], TLBFilterResult]) -> TLBFilterResult:
        entry = self._entries.get(key)
        if entry is not None:
            self.reused += 1
            self.last_seconds = entry[1]
            self.last_source = "memo"
            return entry[0]
        if self.artifacts is not None:
            # mmap: workers replaying the same miss stream share the
            # cache file's pages instead of each materializing a copy.
            loaded = self.artifacts.load_array("stage1", list(key),
                                               mmap=True)
            if loaded is not None:
                miss_vas, meta = loaded
                result = TLBFilterResult(miss_vas,
                                         int(meta.get("total_refs", 0)))
                seconds = float(meta.get("seconds", 0.0))
                self._entries[key] = (result, seconds)
                self.reused += 1
                self.last_seconds = seconds
                self.last_source = "disk"
                return result
        start = time.perf_counter()
        result = build()
        seconds = time.perf_counter() - start
        self._entries[key] = (result, seconds)
        self.computed += 1
        self.last_seconds = seconds
        self.last_source = "computed"
        return result


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive entries of ``values``.

    Zero or negative entries cannot enter a geometric mean; silently
    dropping them would let one broken design stat inflate a summary
    unnoticed, so their presence raises a ``RuntimeWarning`` (they are
    still excluded, preserving the historical result).
    """
    raw = np.asarray(list(values), dtype=np.float64)
    arr = raw[raw > 0]
    if arr.size < raw.size:
        warnings.warn(
            f"geomean: discarding {raw.size - arr.size} non-positive "
            f"value(s) out of {raw.size}",
            RuntimeWarning, stacklevel=2,
        )
    if arr.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(arr))))
