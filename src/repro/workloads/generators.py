"""The seven evaluation workloads (Table 4), as synthetic generators.

Each generator reproduces (a) the documented memory-access pattern of the
application — what drives TLB/PWC/cache behaviour — and (b) its VMA layout
characteristics from Table 1 (total VMAs, VMAs covering 99% of memory,
clusters). Working sets are scaled down by
:data:`~repro.workloads.base.DEFAULT_SCALE` (see DESIGN.md §2).

Every generator is chunked: it yields fixed-size int64 blocks whose
concatenation is bit-identical to the historical monolithic draw (the
chunk-boundary RNG contract, DESIGN.md §13).  Draw *sites* appear below
in the same order the monolithic code called them, so the shared
generator consumes the identical bit stream; each site is then replayed
chunk-by-chunk through :class:`~repro.workloads.base.SiteStream`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

import numpy as np

from repro.arch import PAGE_SIZE
from repro.workloads.base import (
    DEFAULT_SCALE,
    InstalledLayout,
    InterleavedColumns,
    MixedStream,
    SeqStream,
    SiteStream,
    UniformStream,
    VMASpec,
    Workload,
    ZipfStream,
    emit_chunks,
)

_GB = 1 << 30
_MB = 1 << 20
_KB = 1 << 10


def _small_vmas(count: int, seed: int) -> List[VMASpec]:
    """Cold library/stack/arena VMAs that pad the layout to Table 1 totals."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        # Small and cold: libraries, stacks, arenas. Collectively they must
        # stay below ~1% of the working set (Table 1: 1-6 VMAs cover 99%).
        size = int(rng.choice([4 * _KB, 8 * _KB], p=[0.8, 0.2]))
        gap = int(rng.choice([4 * _KB, 64 * _KB, 1 * _MB], p=[0.5, 0.3, 0.2]))
        specs.append(VMASpec(size, gap_before=gap, name=f"lib{i}", hot=False))
    return specs


# --------------------------------------------------------------------- #
# Trace generators (chunked)
# --------------------------------------------------------------------- #

def _gups_chunks(wl: Workload, layout: InstalledLayout, nrefs: int,
                 rng: np.random.Generator, chunk: int) -> Iterator[np.ndarray]:
    """GUPS: giga-updates per second — uniform random updates."""
    yield from emit_chunks(
        UniformStream(layout.main, nrefs, rng, advance=False), chunk)


def _redis_chunks(wl: Workload, layout: InstalledLayout, nrefs: int,
                  rng: np.random.Generator, chunk: int) -> Iterator[np.ndarray]:
    """Redis: hash-table probe + value read per GET over a huge keyspace.

    At 512M small records the per-page reuse is low: mostly-uniform access
    with a mild hot set (shared dict structures)."""
    main = layout.main
    hot = ZipfStream(main, nrefs, rng, alpha=0.6)
    cold = UniformStream(main, nrefs, rng)
    yield from emit_chunks(
        MixedStream([(cold, 0.8), (hot, 0.2)], nrefs, rng), chunk)


def _memcached_chunks(wl: Workload, layout: InstalledLayout, nrefs: int,
                      rng: np.random.Generator,
                      chunk: int) -> Iterator[np.ndarray]:
    """Memcached: zipfian item popularity across hundreds of slab VMAs."""
    slabs = layout.hot_vmas
    # The monolithic draw order was: all slab picks, then each slab's
    # offsets in slab order, sized by that slab's pick count — so tally
    # the counts while fast-forwarding past the picks site.
    counts = np.zeros(len(slabs), dtype=np.int64)

    def _tally(block: np.ndarray) -> None:
        counts[:] += np.bincount(block, minlength=len(slabs))

    nslabs = len(slabs)
    picks = SiteStream(rng, lambda r, n: r.integers(0, nslabs, size=n),
                       nrefs, on_advance=_tally)
    sites: Dict[int, UniformStream] = {}
    for idx, slab in enumerate(slabs):
        count = int(counts[idx])
        if count:
            sites[idx] = UniformStream(slab, count, rng)
    left = nrefs
    while left:
        n = min(chunk, left)
        chosen = picks.take(n)
        out = np.empty(n, dtype=np.int64)
        for idx in np.unique(chosen):
            mask = chosen == idx
            out[mask] = sites[int(idx)].take(int(mask.sum()))
        yield out
        left -= n


def _btree_chunks(wl: Workload, layout: InstalledLayout, nrefs: int,
                  rng: np.random.Generator, chunk: int) -> Iterator[np.ndarray]:
    """BTree: index lookups — one touch per tree level, upper levels hot.

    A lookup descends ~4 levels: the root/inner levels live in small,
    heavily reused page sets; the leaf touch is effectively random."""
    main = layout.main
    ops = nrefs // 4
    l2_pages = max(1, main.size // (256 * PAGE_SIZE))
    l3_pages = max(1, main.size // (16 * PAGE_SIZE))
    root = SiteStream(
        rng, lambda r, n: r.integers(0, 16, size=n, dtype=np.int64), ops)
    l2 = SiteStream(
        rng,
        lambda r, n: r.integers(0, l2_pages, size=n, dtype=np.int64), ops)
    l3 = SiteStream(
        rng,
        lambda r, n: r.integers(0, l3_pages, size=n, dtype=np.int64), ops)
    leaf = UniformStream(main, ops, rng, advance=False)
    start = main.start

    def block(groups: int):
        return (start + root.take(groups) * PAGE_SIZE,
                start + l2.take(groups) * PAGE_SIZE,
                start + l3.take(groups) * PAGE_SIZE,
                leaf.take(groups))

    yield from emit_chunks(InterleavedColumns(block, 4, ops), chunk)


def _canneal_chunks(wl: Workload, layout: InstalledLayout, nrefs: int,
                    rng: np.random.Generator,
                    chunk: int) -> Iterator[np.ndarray]:
    """Canneal: random element swaps — pairs of uniform accesses plus the
    neighbour lists of each element (some spatial locality)."""
    main = layout.main
    half = nrefs // 2
    elems = UniformStream(main, half, rng)
    deltas = SiteStream(
        rng, lambda r, n: r.integers(-2048, 2048, size=n, dtype=np.int64),
        half, advance=False)
    lo, hi = main.start, main.end - 1

    def block(groups: int):
        current = elems.take(groups)
        neighbours = np.clip(current + deltas.take(groups), lo, hi)
        return (current, neighbours)

    yield from emit_chunks(InterleavedColumns(block, 2, half), chunk)


def _xsbench_chunks(wl: Workload, layout: InstalledLayout, nrefs: int,
                    rng: np.random.Generator,
                    chunk: int) -> Iterator[np.ndarray]:
    """XSBench: per-lookup binary search over sorted nuclide grids — the
    first search steps reuse a small page set, the final ones are random."""
    main = layout.main
    ops = nrefs // 4
    npages = max(1, main.size // PAGE_SIZE)
    # successive binary-search probes narrow from hot to cold pages
    spans = [max(1, npages // 256), max(1, npages // 32), max(1, npages // 4)]
    probes = [
        SiteStream(
            rng,
            lambda r, n, span=span: r.integers(0, span, size=n,
                                               dtype=np.int64),
            ops)
        for span in spans
    ]
    leaf = UniformStream(main, ops, rng, advance=False)
    start = main.start

    def block(groups: int):
        cols = [start + probe.take(groups) * PAGE_SIZE for probe in probes]
        cols.append(leaf.take(groups))
        return cols

    yield from emit_chunks(InterleavedColumns(block, 4, ops), chunk)


def _graph500_chunks(wl: Workload, layout: InstalledLayout, nrefs: int,
                     rng: np.random.Generator,
                     chunk: int) -> Iterator[np.ndarray]:
    """Graph500 BFS: sequential frontier scans + random neighbour chasing
    with power-law vertex popularity."""
    main = layout.main
    third = nrefs // 3
    seq_start = int(rng.integers(0, max(1, main.size - third * 64)))
    seq = SeqStream(main.start + seq_start, third, stride=64)
    hubs = ZipfStream(main, third, rng, alpha=1.1)
    rand = UniformStream(main, nrefs - 2 * third, rng)
    yield from emit_chunks(
        MixedStream([(seq, 0.34), (hubs, 0.33), (rand, 0.33)], nrefs, rng),
        chunk)


def _quads(nrefs: int) -> int:
    return 4 * (nrefs // 4)


def _pairs(nrefs: int) -> int:
    return 2 * (nrefs // 2)


# --------------------------------------------------------------------- #
# Workload catalogue (Table 4 x Table 1)
# --------------------------------------------------------------------- #

def _simple_layout(heap_bytes: int, total_vmas: int, seed: int,
                   heap_name: str = "heap") -> List[VMASpec]:
    """One dominant heap + (total-1) small cold VMAs — the common shape
    where 1-2 VMAs cover 99% of memory (BTree/Canneal/GUPS/XSBench/...)."""
    return (
        _small_vmas(total_vmas - 1, seed)
        + [VMASpec(heap_bytes, gap_before=4 * _MB, name=heap_name, hot=True)]
    )


def _redis_layout(scale: int) -> List[VMASpec]:
    """Redis: 182 VMAs, 6 of significant size (Table 1)."""
    specs = _small_vmas(176, seed=42)
    sizes = [96 * _GB // scale, 24 * _GB // scale, 16 * _GB // scale,
             12 * _GB // scale, 5 * _GB // scale, 2 * _GB // scale]
    for i, size in enumerate(sizes):
        specs.append(VMASpec(size, gap_before=8 * _MB, name=f"redis-arena{i}",
                             hot=True))
    return specs


def _memcached_layout(scale: int) -> List[VMASpec]:
    """Memcached: 1,065 VMAs, 778 significant slab regions in 2 clusters
    with sub-16KB bubbles (Table 1)."""
    specs = _small_vmas(287, seed=7)
    # Keep slabs large relative to their 4 KB bubbles so clustering with the
    # 2% allowance works at simulation scale as it does at 122 MB/slab in
    # the paper (bubbles < 16 KB, §2.3).
    per_slab = max(64 * PAGE_SIZE, (190 * _GB // scale) // 778 // PAGE_SIZE * PAGE_SIZE)
    for i in range(778):
        # two tight clusters of adjacent slab mappings
        gap = 32 * _MB if i in (0, 389) else 4 * _KB
        specs.append(VMASpec(per_slab, gap_before=gap, name=f"slab{i}", hot=True))
    return specs


def _redis(scale: int) -> Workload:
    return Workload(
        name="Redis",
        description="In-memory KV store, 512M 256B records, 100% reads",
        vma_specs=_redis_layout(scale),
        chunk_fn=_redis_chunks,
        paper_working_set_gb=155,
        paper_total_vmas=182, paper_cov99=6, paper_clusters=6,
    )


def _memcached(scale: int) -> Workload:
    return Workload(
        name="Memcached",
        description="In-memory KV store, 100M 1KB records, 100% reads",
        vma_specs=_memcached_layout(scale),
        chunk_fn=_memcached_chunks,
        paper_working_set_gb=95,
        paper_total_vmas=1065, paper_cov99=778, paper_clusters=2,
    )


def _gups(scale: int) -> Workload:
    return Workload(
        name="GUPS",
        description="Random memory updates over a 128 GB table",
        vma_specs=_simple_layout(128 * (_GB // scale), 103, seed=1),
        chunk_fn=_gups_chunks,
        paper_working_set_gb=128,
        paper_total_vmas=103, paper_cov99=1, paper_clusters=1,
    )


def _btree(scale: int) -> Workload:
    gb = _GB // scale
    return Workload(
        name="BTree",
        description="Index lookups, 1.5B keys",
        vma_specs=_simple_layout(125 * gb, 108, seed=2)
        + [VMASpec(1 * gb, gap_before=16 * _MB, name="btree-meta", hot=True)],
        chunk_fn=_btree_chunks,
        paper_working_set_gb=125,
        paper_total_vmas=109, paper_cov99=2, paper_clusters=2,
        trace_len_fn=_quads,
    )


def _canneal(scale: int) -> Workload:
    gb = _GB // scale
    return Workload(
        name="Canneal",
        description="Simulated annealing over 100M netlist elements",
        vma_specs=_simple_layout(61 * gb, 115, seed=3)
        + [VMASpec(1 * gb, gap_before=16 * _MB, name="canneal-meta", hot=True)],
        chunk_fn=_canneal_chunks,
        paper_working_set_gb=62,
        paper_total_vmas=116, paper_cov99=2, paper_clusters=2,
        trace_len_fn=_pairs,
    )


def _xsbench(scale: int) -> Workload:
    return Workload(
        name="XSBench",
        description="Monte Carlo neutron transport cross-section lookups",
        vma_specs=_simple_layout(84 * (_GB // scale), 111, seed=4),
        chunk_fn=_xsbench_chunks,
        paper_working_set_gb=84,
        paper_total_vmas=111, paper_cov99=1, paper_clusters=1,
        trace_len_fn=_quads,
    )


def _graph500(scale: int) -> Workload:
    return Workload(
        name="Graph500",
        description="BFS on a scale-27 power-law graph",
        vma_specs=_simple_layout(123 * (_GB // scale), 105, seed=5),
        chunk_fn=_graph500_chunks,
        paper_working_set_gb=123,
        paper_total_vmas=105, paper_cov99=1, paper_clusters=1,
    )


#: Workload name -> builder, in catalogue order. Each layout draws from
#: its own seeded RNG, so building one workload alone gives the same
#: layout as building all seven.
_BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "Redis": _redis,
    "Memcached": _memcached,
    "GUPS": _gups,
    "BTree": _btree,
    "Canneal": _canneal,
    "XSBench": _xsbench,
    "Graph500": _graph500,
}


def catalogue(scale: int = DEFAULT_SCALE) -> Dict[str, Workload]:
    """All seven evaluation workloads, scaled by ``scale``."""
    return {name: build(scale) for name, build in _BUILDERS.items()}


def get(name: str, scale: int = DEFAULT_SCALE) -> Workload:
    """The named workload alone, scaled by ``scale``."""
    build = _BUILDERS.get(name)
    if build is None:
        raise KeyError(f"unknown workload {name!r}; have {sorted(_BUILDERS)}")
    return build(scale)
