"""Vectorized stage-2 walk replay (the batched simulation engine).

The scalar stage-2 loop calls ``walker.translate(va)`` once per TLB
miss: every walk allocates a ``WalkRecorder`` and a ``WalkResult``,
re-reads static page-table words, re-derives table indices, and builds
tag strings — even in bulk mode. This module is the batched
replacement, following the :mod:`repro.sim.tlb_vec` pattern:

1. **Vectorized precompute** (NumPy + one planning pass): every stage-2
   statistic depends only on the miss's 4 KB VPN, and the translation
   structures are static during a replay — so the engine plans each
   *unique* VPN once, in first-occurrence order. A plan precomputes the
   walk chain's PTE fetch addresses, the PWC fill keys/values, and (for
   DMT) the exact fetch groups the register file would issue, captured
   by running the real :class:`~repro.core.fetcher.DMTFetcher` with a
   recording callback.
2. **Chunked state machine**: the sequential, history-dependent state —
   PTE-cache LRU sets, PWC/nested-PWC LRU tables, credit-counter
   thinning — runs in a tight chunked loop over the live flat dicts
   exposed by ``batch_view()`` (:mod:`repro.hw.cache`,
   :mod:`repro.hw.pwc`). Every LRU touch, install, eviction, and
   float credit update replicates the scalar operation in the scalar
   order, so cycles, ref counts, fallbacks, step breakdowns, and the
   post-replay cache/PWC state are **bit-identical** to the oracle.
   Radix-native replays over the Table 3 cache shape run each chunk in
   one fused runner; every other shape and design replays walk by walk.
   Hit thinning has one path: an unthinned structure has rate 1.0.

Supported walkers (via :meth:`~repro.translation.base.Walker.batch_spec`):
radix native/shadow, radix nested, every DMT/pvDMT variant (register
hit -> direct TEA fetch groups; register miss -> the radix fallback
plan, with the attempt's cache traffic applied uncounted, exactly like
the scalar ``_run``), and the four prior designs — ECPT (hashed-bucket
probing with the live Cuckoo Walk Cache replayed in scalar order), FPT
(fully static flattened two-level plans), Agile Paging (shadow chain +
nested data leaf, split per walk at the guest-leaf boundary), and ASAP
(static prefetch address plans wrapped around the inner radix runner,
with the completion-max cost model). ECPT and FPT plans compile to a
small per-VPN op program (fetch / probe run / parallel group /
CWC-predicted probe step) replayed by one interpreter that reproduces
``WalkRecorder`` group episodes and the scalar step collapsing
bit-for-bit; background probes of lines no level can hold during the
replay are folded into miss counts at plan time (:class:`_ProbeFold`).
``tests/test_walk_vec.py`` pins parity for every design.

:func:`replay_batched` is the one frame of a batched replay: it plans
each unique VPN through one ``spec.kind`` -> planner table
(:data:`_PLANNERS`) and hands the plan either to the per-walk runners
below or to the compiled kernels' flatteners
(:mod:`repro.sim.kernels.replay`). :func:`unsupported_reason` names why
a walker cannot batch; ``replay_walks(engine="auto")`` checks it once
and surfaces it as ``WalkStats.fallback_reason`` when it falls back to
the scalar loop.

The planning pass preserves lazy first-touch side effects (EPT
backfill, shadow-table extension) by visiting unique VPNs in
first-occurrence order — and, for DMT, by planning register-miss
fallbacks in a second pass over only the VPNs whose attempt fell back,
which is the order the scalar loop would have touched them.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import sanitizer
from repro.arch import (
    ENTRIES_PER_TABLE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    TABLE_INDEX_BITS,
    PageSize,
    level_index,
)
from repro.kernel.page_table import PTE_HUGE, PTE_PRESENT, pte_frame
from repro.translation.asap import PREFETCH_LEVELS
from repro.translation.base import BatchSpec, MemorySubsystem, Walker

#: Misses processed per chunk; bounds the transient Python-list
#: footprint regardless of miss-stream length.
DEFAULT_CHUNK = 1 << 16

_IDX_MASK = ENTRIES_PER_TABLE - 1
_OFFSET_MASK = PAGE_SIZE - 1
_LEAF_BYTES = {1: PageSize.SIZE_4K.bytes, 2: PageSize.SIZE_2M.bytes,
               3: PageSize.SIZE_1G.bytes}

#: Chain-node memo sentinels (a table frame may legitimately be 0).
_DEAD = object()    # not-present PTE: the chain ends here
_LEAF = object()    # leaf PTE (level 1 or PS bit)
_NEXT = object()    # interior PTE: payload is the next table's address


def unsupported_reason(walker: Walker) -> Optional[str]:
    """Why ``walker`` cannot take the batched path, or None if it can.

    Every design has a planner, so what is left is a sanitized run (the
    sanitizer hooks the scalar structures), a walker exposing no
    :meth:`~repro.translation.base.Walker.batch_spec` (only hand-made
    test walkers), and nested ASAP on a VM that is not fully backed
    (:func:`_plan_asap`). ``engine="auto"`` records this string as
    ``WalkStats.fallback_reason`` and replays on the scalar loop.
    """
    if sanitizer.active():
        return "sanitizer active: batched replay bypasses its hooks"
    spec = walker.batch_spec()
    if spec is None:
        return "walker exposes no batch spec"
    if spec.kind == "asap-nested" and not spec.vm.fully_backed():
        # the plan takes prefetch host addresses from the walk plan, so
        # lazy EPT faults would come in another order than the scalar
        # walker's
        return "asap-nested plans need a fully backed VM"
    return None


# --------------------------------------------------------------------- #
# Flat-state primitives
# --------------------------------------------------------------------- #

def _make_access(caches):
    """The inlined 3-level hierarchy access: ``addr -> latency``.

    Replicates ``CacheHierarchy.access`` (probe L1/L2/LLC in order,
    install into every missed level, charge the satisfying level's
    round trip) over the live set dicts — dict probes keep membership
    *misses* O(1), and misses dominate the PTE-side reference stream.
    Stats accumulate in locals and flush via the returned finalizer.
    Also returns the context tuple ``(views, memory_latency, counters)``
    so the columnar radix runner can inline the same logic over the
    same shared state.
    """
    v1, v2, v3 = (level.batch_view() for level in caches.levels)
    s1, ls1, ns1, a1, lat1 = v1.sets, v1.line_shift, v1.num_sets, v1.assoc, v1.latency
    s2, ls2, ns2, a2, lat2 = v2.sets, v2.line_shift, v2.num_sets, v2.assoc, v2.latency
    s3, ls3, ns3, a3, lat3 = v3.sets, v3.line_shift, v3.num_sets, v3.assoc, v3.latency
    mem_latency = caches.memory_latency
    # hits L1/L2/LLC, misses L1/L2/LLC, memory accesses
    counters = [0, 0, 0, 0, 0, 0, 0]

    def access(addr: int) -> int:
        line1 = addr >> ls1
        idx1 = line1 % ns1
        ways1 = s1.get(idx1)
        if ways1 is not None and line1 in ways1:
            del ways1[line1]
            ways1[line1] = None
            counters[0] += 1
            return lat1
        counters[3] += 1
        line2 = addr >> ls2
        idx2 = line2 % ns2
        ways2 = s2.get(idx2)
        if ways2 is not None and line2 in ways2:
            del ways2[line2]
            ways2[line2] = None
            counters[1] += 1
            latency = lat2
        else:
            counters[4] += 1
            line3 = addr >> ls3
            idx3 = line3 % ns3
            ways3 = s3.get(idx3)
            if ways3 is not None and line3 in ways3:
                del ways3[line3]
                ways3[line3] = None
                counters[2] += 1
                latency = lat3
            else:
                counters[5] += 1
                counters[6] += 1
                latency = mem_latency
                if ways3 is None:
                    s3[idx3] = {line3: None}
                else:
                    if len(ways3) >= a3:
                        del ways3[next(iter(ways3))]
                    ways3[line3] = None
            if ways2 is None:
                s2[idx2] = {line2: None}
            else:
                if len(ways2) >= a2:
                    del ways2[next(iter(ways2))]
                ways2[line2] = None
        if ways1 is None:
            s1[idx1] = {line1: None}
        else:
            if len(ways1) >= a1:
                del ways1[next(iter(ways1))]
            ways1[line1] = None
        return latency

    def finalize() -> None:
        for view, hit_i, miss_i in ((v1, 0, 3), (v2, 1, 4), (v3, 2, 5)):
            view.stats.hits += counters[hit_i]
            view.stats.misses += counters[miss_i]
        caches.memory_accesses += counters[6]

    return access, finalize, ((v1, v2, v3), mem_latency, counters)


def _make_probe(access_ctx) -> Callable[[int], None]:
    """Inlined ``CacheHierarchy.probe``: the no-allocate background access.

    Losing parallel probes (ECPT ways, FPT multi-size slots) consult
    each level in order — LRU-touching and counting hits/misses exactly
    like ``SetAssociativeCache.lookup`` — but install nothing on a full
    miss. Shares the counters (and finalizer) of the ``access`` closure
    built by :func:`_make_access` over the same ``access_ctx``.
    """
    (v1, v2, v3), _mem_latency, counters = access_ctx
    s1, ls1, ns1 = v1.sets, v1.line_shift, v1.num_sets
    s2, ls2, ns2 = v2.sets, v2.line_shift, v2.num_sets
    s3, ls3, ns3 = v3.sets, v3.line_shift, v3.num_sets

    def probe(addr: int) -> None:
        line1 = addr >> ls1
        ways1 = s1.get(line1 % ns1)
        if ways1 is not None and line1 in ways1:
            del ways1[line1]
            ways1[line1] = None
            counters[0] += 1
            return
        counters[3] += 1
        line2 = addr >> ls2
        ways2 = s2.get(line2 % ns2)
        if ways2 is not None and line2 in ways2:
            del ways2[line2]
            ways2[line2] = None
            counters[1] += 1
            return
        counters[4] += 1
        line3 = addr >> ls3
        ways3 = s3.get(line3 % ns3)
        if ways3 is not None and line3 in ways3:
            del ways3[line3]
            ways3[line3] = None
            counters[2] += 1
            return
        counters[5] += 1
        counters[6] += 1

    return probe


def _make_pwc_probe(view) -> Tuple[Callable[[int], int], Callable[[], None]]:
    """Inlined ``PageWalkCache.best_entry`` returning a chain index.

    Probes offsets deepest-first; a hit at offset ``o`` (LRU-touched
    even when credit thinning later rejects it, exactly like the scalar
    ``_LRUTable.get``) resumes the walk at chain index ``o + 1``; a full
    miss starts at index 0 (the root). The cached table *address* is not
    needed — plans precompute every chain address from the static table.
    Also returns ``(order, accept, credit, counters)`` so the Table 3
    chunk runner can inline the same probe over the same shared state.
    A rate of 1.0 runs the credit path too: the credit goes 0.0 -> 1.0
    -> 0.0 and every hit is accepted.
    """
    accept = view.accept
    credit = view.credit
    # Deepest-first probe order with the table refs and shifts hoisted
    # (the dict objects are stable; fills mutate them in place).
    order = tuple((view.tables[offset], view.key_shifts[offset] - PAGE_SHIFT,
                   offset)
                  for offset in range(len(view.tables) - 1, -1, -1))
    counters = [0, 0]  # hits, misses

    def probe(vpn: int) -> int:
        for table, shift, offset in order:
            key = vpn >> shift
            if key in table:
                value = table.pop(key)
                table[key] = value
                credit[offset] += accept[offset]
                if credit[offset] >= 1.0:
                    credit[offset] -= 1.0
                    counters[0] += 1
                    return offset + 1
        counters[1] += 1
        return 0

    def finalize() -> None:
        view.stats.hits += counters[0]
        view.stats.misses += counters[1]

    return probe, finalize, (order, accept, credit, counters)


# --------------------------------------------------------------------- #
# Planners
# --------------------------------------------------------------------- #

def _pwc_shape(pwc) -> Tuple[int, int]:
    """``(top_level, n_offsets)``: the radix level a PWC probe starts
    from and how many levels the PWC caches."""
    return pwc.top_level, len(pwc.batch_view().tables)


def _build_radix_native_columns(page_table, top_level: int, n_offsets: int,
                                uniq_vpns: List[int], views,
                                prefetch_levels: Tuple[int, ...] = ()):
    """Column-major native walk chains over a static radix table.

    All per-step quantities a replayed walk needs are precomputed with
    NumPy into flat row-major lists of stride ``top_level``: the cache
    line and set index per hierarchy level (so the hot loop does only
    dict operations, no address arithmetic) and the PWC fill key/value
    (key ``-1`` where the scalar walk would not fill — the leaf step, a
    dead or huge-page terminal, or an offset beyond the PWC depth).
    Page-table reads are pure (``PhysicalMemory.read_word``), one per
    distinct table node via a ``(level, prefix)`` memo, so the
    level-major traversal order cannot diverge from the scalar walk.

    Returns ``(slots, columns, prefetch)``: ``slots[vpn] = (row_base,
    chain_len)``, ``columns = (line/idx per level ..., fill_key,
    fill_val)``, and ``prefetch[vpn]``, the addresses of the walk's
    steps at ``prefetch_levels`` in walk order (ASAP's prefetch; None
    when no levels are asked for).
    """
    read = page_table.memory.read_word
    root = page_table.root_frame
    vpn_arr = np.asarray(uniq_vpns, dtype=np.int64)
    n = int(vpn_arr.size)
    lengths = np.zeros(n, dtype=np.int64)
    # Levels sharing a line size (and set count) share one column.
    line_cache: dict = {}
    idx_cache: dict = {}
    line_mats, idx_mats = [], []
    for view in views:
        line_mat = line_cache.get(view.line_shift)
        if line_mat is None:
            line_mat = np.zeros((n, top_level), dtype=np.int64)
            line_cache[view.line_shift] = line_mat
        idx_key = (view.line_shift, view.num_sets)
        idx_mat = idx_cache.get(idx_key)
        if idx_mat is None:
            idx_mat = np.zeros((n, top_level), dtype=np.int64)
            idx_cache[idx_key] = idx_mat
        line_mats.append(line_mat)
        idx_mats.append(idx_mat)
    fkey_mat = np.full((n, top_level), -1, dtype=np.int64)
    fval_mat = np.zeros((n, top_level), dtype=np.int64)
    pf_levels = [level for level in range(top_level, 0, -1)
                 if level in prefetch_levels]
    pf_mat = np.full((n, len(pf_levels)), -1, dtype=np.int64)

    nodes: dict = {}
    active = np.arange(n)
    frames = np.full(n, root, dtype=np.int64)
    for depth, level in enumerate(range(top_level, 0, -1)):
        shift = TABLE_INDEX_BITS * (level - 1)
        sub = vpn_arr[active]
        index = (sub >> shift) & _IDX_MASK
        addr = (frames << PAGE_SHIFT) + index * PTE_SIZE
        for line_shift, line_mat in line_cache.items():
            line_mat[active, depth] = addr >> line_shift
        for (line_shift, num_sets), idx_mat in idx_cache.items():
            idx_mat[active, depth] = (addr >> line_shift) % num_sets
        lengths[active] = depth + 1
        if level in pf_levels:
            pf_mat[active, pf_levels.index(level)] = addr
        if level == 1:
            break
        prefix = sub >> shift
        uniq_p, first, inverse = np.unique(
            prefix, return_index=True, return_inverse=True)
        next_frames = np.zeros(uniq_p.size, dtype=np.int64)
        continues = np.zeros(uniq_p.size, dtype=bool)
        addr_list = addr.tolist()
        first_list = first.tolist()
        for j, p in enumerate(uniq_p.tolist()):
            node = nodes.get((level, p))
            if node is None:
                pte = read(addr_list[first_list[j]])
                if not pte & PTE_PRESENT:
                    node = _DEAD
                elif pte & PTE_HUGE:
                    node = _LEAF
                else:
                    node = pte_frame(pte)
                nodes[(level, p)] = node
            if node is not _DEAD and node is not _LEAF:
                continues[j] = True
                next_frames[j] = node
        cont_rows = continues[inverse]
        frame_rows = next_frames[inverse]
        if depth < n_offsets:
            fkey_mat[active, depth] = np.where(cont_rows, prefix, -1)
            fval_mat[active, depth] = np.where(
                cont_rows, frame_rows << PAGE_SHIFT, 0)
        active = active[cont_rows]
        frames = frame_rows[cont_rows]
        if active.size == 0:
            break

    lengths_list = lengths.tolist()
    slots = {vpn: (row * top_level, lengths_list[row])
             for row, vpn in enumerate(uniq_vpns)}
    flattened: dict = {}

    def flatten(mat):
        out = flattened.get(id(mat))
        if out is None:
            out = mat.ravel().tolist()
            flattened[id(mat)] = out
        return out

    columns = tuple(flatten(mat)
                    for pair in zip(line_mats, idx_mats) for mat in pair)
    prefetch = None
    if pf_levels:
        prefetch = {vpn: tuple(addr for addr in row if addr >= 0)
                    for vpn, row in zip(uniq_vpns, pf_mat.tolist())}
    return slots, columns + (fkey_mat.ravel().tolist(),
                             fval_mat.ravel().tolist()), prefetch


def _host_chains(vm) -> Callable[[int], tuple]:
    """The host-chain memo of the nested planners: ``resolve(gfn) ->
    (hfn, pte addrs, levels)``, the guest frame's host frame and the
    EPT walk that finds it, computed once per guest frame.

    The memo resolves ``vm.gpa_to_hpa`` before ``ept.walk_steps`` in
    first-touch order, which reproduces the scalar loop's lazy EPT
    backfill / shadow-table extension sequence exactly (allocation
    order determines addresses).
    """
    ept = vm.ept
    gpa_to_hpa = vm.gpa_to_hpa
    host = {}

    def resolve(gfn: int):
        entry = host.get(gfn)
        if entry is None:
            hpa = gpa_to_hpa(gfn << PAGE_SHIFT)   # lazy backing first-touch
            steps = ept.walk_steps(gfn << PAGE_SHIFT)
            entry = (hpa >> PAGE_SHIFT,
                     tuple(step.pte_addr for step in steps),
                     tuple(step.level for step in steps))
            host[gfn] = entry
        return entry

    return resolve


def _data_resolution(resolve, dgfn: int, collect: bool) -> tuple:
    """``(dgfn, dhfn, dsteps, dtags)``: the data page's host resolution."""
    dhfn, dsteps, dlevels = resolve(dgfn)
    dtags = tuple(f"hdL{sl}" for sl in dlevels) if collect else None
    return dgfn, dhfn, dsteps, dtags


def _build_radix_nested_plans(guest_pt, vm, top_level: int, n_offsets: int,
                              uniq_vpns: List[int], collect: bool):
    """Per-VPN 2D walk chains: guest dimension + memoized host chains.

    A plan is ``(entries, data)``. Each guest-level entry is
    ``(gfn, hfn, hsteps, gpte_hpa, fill, gtag, htags)``: the guest-PTE
    page's guest frame (the nested-PWC key), its host frame (the fill
    value), the host-dimension fetch chain replayed on a nested-PWC
    miss, the guest-PTE's host address, and the guest-PWC fill. ``data``
    is the leaf page's host resolution, or ``None`` for a dead chain.
    Host chains come from :func:`_host_chains`.
    """
    gread = guest_pt.memory.read_word
    root_gpa = guest_pt.root_frame << PAGE_SHIFT
    resolve = _host_chains(vm)
    nodes = {}
    plans = {}
    for vpn in uniq_vpns:
        entries = []
        data = None
        table_gpa = root_gpa
        level = top_level
        while True:
            index = (vpn >> (TABLE_INDEX_BITS * (level - 1))) & _IDX_MASK
            gpte_gpa = table_gpa + index * PTE_SIZE
            gfn = gpte_gpa >> PAGE_SHIFT
            hfn, hsteps, hlevels = resolve(gfn)
            gpte_hpa = (hfn << PAGE_SHIFT) | (gpte_gpa & _OFFSET_MASK)
            if collect:
                htags = tuple(f"hg{level}L{sl}" for sl in hlevels)
                gtag = f"gL{level}"
            else:
                htags = gtag = None

            prefix = vpn >> (TABLE_INDEX_BITS * (level - 1))
            cached = nodes.get((level, prefix))
            if cached is None:
                gpte = gread(gpte_gpa)
                if not gpte & PTE_PRESENT:
                    cached = (_DEAD, 0)
                elif level == 1 or gpte & PTE_HUGE:
                    cached = (_LEAF, (pte_frame(gpte), level))
                else:
                    cached = (_NEXT, pte_frame(gpte) << PAGE_SHIFT)
                nodes[(level, prefix)] = cached
            kind, payload = cached

            if kind is _NEXT:
                offset = top_level - level
                fill = (offset, prefix, payload) \
                    if 0 <= offset < n_offsets else None
                entries.append((gfn, hfn, hsteps, gpte_hpa, fill,
                                gtag, htags))
                table_gpa = payload
                level -= 1
                continue
            entries.append((gfn, hfn, hsteps, gpte_hpa, None, gtag, htags))
            if kind is _LEAF:
                leaf_frame, leaf_level = payload
                data_gpa = (leaf_frame << PAGE_SHIFT) \
                    + ((vpn << PAGE_SHIFT) & (_LEAF_BYTES[leaf_level] - 1))
                data = _data_resolution(resolve, data_gpa >> PAGE_SHIFT,
                                        collect)
            break
        plans[vpn] = (tuple(entries), data)
    return plans


def _build_dmt_plans(spec: BatchSpec, uniq_vpns: List[int], collect: bool):
    """Per-VPN DMT attempt plans, captured from the real fetcher.

    Pass 1 of the DMT planner: run the fetcher's attempt for each unique
    VPN with a *recording* fetch callback (reads only — the register
    file, gTEA tables, and page tables are static during a replay), then
    compress the captured references into parallel groups. The fetcher's
    ``hits``/``fallbacks`` counters are snapshot per attempt into the
    plan as deltas and restored afterwards; the runtime applies the
    deltas once per replayed miss, matching the scalar loop's counts.

    A plan is ``(fallback, groups, d_hits, d_fallbacks)`` where each
    group is ``(addrs, tags)``. Returns the plans plus the VPNs whose
    attempt fell back, in first-occurrence order — the order the scalar
    loop would first hand them to the radix fallback walker (pass 2
    plans those lazily so lazy page-table side effects stay in scalar
    order and non-fallback VPNs trigger none at all).
    """
    fetcher = spec.fetcher
    attempt = spec.attempt
    hits0, fallbacks0 = fetcher.hits, fetcher.fallbacks
    events = []

    def record(addr: int, tag: str, group: int) -> None:
        events.append((addr, tag, group))

    plans = {}
    fallback_vpns = []
    for vpn in uniq_vpns:
        del events[:]
        hits_before, fb_before = fetcher.hits, fetcher.fallbacks
        result = attempt(vpn << PAGE_SHIFT, record)
        d_hits = fetcher.hits - hits_before
        d_fallbacks = fetcher.fallbacks - fb_before
        groups = []
        open_id = None
        for addr, tag, group in events:
            if group != open_id:
                groups.append(([], [] if collect else None))
                open_id = group
            groups[-1][0].append(addr)
            if collect:
                groups[-1][1].append(tag)
        fell_back = bool(result.fallback)
        plans[vpn] = (
            fell_back,
            tuple((tuple(addrs), tuple(tags) if tags is not None else None)
                  for addrs, tags in groups),
            d_hits,
            d_fallbacks,
        )
        if fell_back:
            fallback_vpns.append(vpn)
    fetcher.hits, fetcher.fallbacks = hits0, fallbacks0
    return plans, fallback_vpns


class _ProbeFold:
    """Folds an ECPT/FPT plan build's probes that can only miss into counts.

    A background probe (``CacheHierarchy.probe``) installs nothing, so
    the only lines a replay can find resident are those some level holds
    when it starts and those its own accesses install. A probe of a line
    outside both sets misses every level whatever the replay history
    did: all it does is add 1 to the L1, L2 and LLC miss counters and to
    ``memory_accesses``, and it touches no LRU order. The planners
    append every address an access op can fetch to :attr:`fetched` and
    create their probe ops through :meth:`probes` and :meth:`step`; after
    the last VPN, :meth:`fold` drops each op's dead addresses and stores
    how many it dropped. That runs once per op object, and the memoised
    per-page ops are shared by every plan that probes the page.
    """

    def __init__(self, caches):
        self._caches = caches
        #: Addresses an access op of this build can fetch (and install).
        self.fetched: List[int] = []
        self._ops: List[list] = []

    def probes(self, addrs) -> list:
        """A probe-run op ``[2, addrs, dead]`` for :meth:`fold` to fold."""
        op = [2, tuple(addrs), 0]
        self._ops.append(op)
        return op

    def step(self, has_hit: bool, ckey, hit_way, hit_addr, hit_tag,
             cand_addrs, cand_tags, crit: int) -> list:
        """An opcode-4 op ``[4, ..., cands, dead]``; :meth:`fold` turns
        its live candidates into ``(addr, tag, is crit)`` tuples."""
        op = [4, has_hit, ckey, hit_way, hit_addr, hit_tag,
              (cand_addrs, cand_tags, crit), 0]
        self._ops.append(op)
        return op

    def fold(self) -> None:
        """Keep each op's live probes in order; count the dead ones.

        Every op keeps its probed items at ``op[-2]`` and the dead count
        at ``op[-1]``. The live set is kept per line size, because cache
        levels may differ in line size.
        """
        live: Dict[int, set] = {}
        for level in self._caches.levels:
            view = level.batch_view()
            lines = live.get(view.line_shift)
            if lines is None:
                shift = view.line_shift
                lines = live[shift] = {addr >> shift
                                       for addr in self.fetched}
            for ways in view.sets.values():
                lines.update(ways)
        (shift, lines), *others = live.items()

        def live_of(addrs) -> List[int]:
            """Indices of the live addresses (one call per op)."""
            return [index for index, addr in enumerate(addrs)
                    if addr >> shift in lines
                    or others and any(addr >> other in other_lines
                                      for other, other_lines in others)]

        for op in self._ops:
            if op[0] == 2:
                addrs = op[1]
                kept = tuple(addrs[index] for index in live_of(addrs))
            else:
                addrs, tags, crit = op[6]
                kept = tuple((addrs[index], tags[index], index == crit)
                             for index in live_of(addrs))
            op[-2] = kept
            op[-1] = len(addrs) - len(kept)


def _cand_tags(ecpt, tag: str, collect: bool) -> tuple:
    """Step tags of :meth:`candidate_array`'s columns (None unless
    collecting)."""
    sizes = ecpt.probe_sizes()
    if not collect:
        return (None,) * len(sizes)
    return tuple(f"{tag}-{size.name}" for size in sizes)


# dmtlint-domain: va=any -- plans probes for guest (gVA) and host (gPA) ECPTs
def _plan_ecpt_probe_step(ecpt, va: int, cand_addrs, cand_tags, tag: str,
                          collect: bool, fold: _ProbeFold) -> list:
    """One ECPT probe step compiled to a CWC-probe op (opcode 4).

    The static part — which (size, way) hits, the candidate addresses
    (``cand_addrs``, a :meth:`candidate_array` row for ``va``), and
    which candidate shares the hitting line — is resolved at plan time
    with pure reads (``lookup_way`` touches only ``PhysicalMemory``).
    The Cuckoo Walk Cache prediction is *dynamic* (it depends on replay
    history), so the op carries the CWC key and the true way and the
    interpreter replays ``CuckooWalkCache.get`` / ``put`` against the
    live entry dict at run time. ``fold`` learns the addresses the op
    can fetch — the hit, the critical candidate (the first one on the
    hit's line), or on a full miss the first candidate — and later
    folds its losing candidates.
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
    crit = -1
    if hit_addr is not None:
        has_hit = True
        ckey = (int(hit_size), (va >> int(hit_size)) >> 3)
        hit_tag = f"{tag}-{hit_size.name}" if collect else None
        fold.fetched.append(hit_addr)
        hit_line = hit_addr >> 6
        for index, addr in enumerate(cand_addrs):
            if addr >> 6 == hit_line:
                crit = index
                fold.fetched.append(addr)
                break
    else:
        has_hit = False
        ckey = hit_tag = None
        fold.fetched.append(cand_addrs[0])
    return fold.step(has_hit, ckey, hit_way, hit_addr, hit_tag, cand_addrs,
                     cand_tags, crit)


def _build_ecpt_native_plans(spec: BatchSpec, memsys: MemorySubsystem,
                             uniq_vpns: List[int], collect: bool):
    """Native ECPT: hash charge + one probe step per walk."""
    from repro.translation.ecpt import HASH_CYCLES

    ecpt = spec.ecpt
    fold = _ProbeFold(memsys.caches)
    cand_rows = ecpt.candidate_array(
        np.asarray(uniq_vpns, dtype=np.int64) << PAGE_SHIFT).tolist()
    cand_tags = _cand_tags(ecpt, "ecpt", collect)
    plans = {vpn: (HASH_CYCLES,
                   (_plan_ecpt_probe_step(ecpt, vpn << PAGE_SHIFT, row,
                                          cand_tags, "ecpt", collect,
                                          fold),))
             for vpn, row in zip(uniq_vpns, cand_rows)}
    fold.fold()
    return plans


def _build_ecpt_nested_plans(spec: BatchSpec, memsys: MemorySubsystem,
                             uniq_vpns: List[int], collect: bool):
    """Nested ECPT: the three sequential steps compiled to one op list.

    Step 1 host-resolves every guest candidate (a full probe step when
    the candidate shares the guest hit's line, a probe run otherwise),
    step 2 fetches the resolved guest candidates, step 3 host-resolves
    the data page after a fresh hash charge — all determined statically
    except the host CWC predictions, which ride in the opcode-4 entries.
    Only the *host* CWC is consulted (the scalar walker never touches
    the guest one).

    A host probe depends only on the probed gPA's page, and the mirrors
    are read-only, so each page's probe-step op, probe run and host
    translation are planned once per call and shared by every walk that
    probes it. The guest candidates of every VPN, and the host
    candidates of every probed gPA page, are hashed up front as arrays.
    """
    from repro.translation.ecpt import HASH_CYCLES

    guest = spec.ecpt
    host = spec.host_ecpt
    fold = _ProbeFold(memsys.caches)
    fetched = fold.fetched
    guest_tables = [(int(size), size.bytes - 1, table)
                    for size, table in guest.tables.items()]
    offset_mask = PAGE_SIZE - 1
    critical_ops: Dict[int, list] = {}     # gPA page -> "h-ecpt" op 4
    data_ops: Dict[int, list] = {}         # gPA page -> "hd-ecpt" op 4
    background_ops: Dict[int, list] = {}   # gPA page -> probe run
    # The guest hits come first: their data pages are probed gPA pages.
    hits = []
    data_pages = []
    for vpn in uniq_vpns:
        gva = vpn << PAGE_SHIFT
        hit = None
        for shift, mask, table in guest_tables:
            found = table.lookup_way(gva >> shift)
            if found is not None:
                gpa = (pte_frame(found[1]) << PAGE_SHIFT) + (gva & mask)
                hit = (found[0] >> 6, gpa)
                data_pages.append(gpa >> PAGE_SHIFT)
                break
        hits.append(hit)
    guest_cands = guest.candidate_array(
        np.asarray(uniq_vpns, dtype=np.int64) << PAGE_SHIFT)
    pages = np.unique(np.concatenate((
        guest_cands.ravel() >> PAGE_SHIFT,
        np.asarray(data_pages, dtype=np.int64))))
    host_rows = host.candidate_array(pages << PAGE_SHIFT)
    host_pages: Dict[int, Optional[int]] = {}  # gPA page -> hPA of page
    for page in pages.tolist():
        found = host.translate(page << PAGE_SHIFT)
        host_pages[page] = found[0] if found is not None else None

    def host_cands(page: int) -> List[int]:
        # read once per memoised op, so the rows stay one array
        return host_rows[np.searchsorted(pages, page)].tolist()

    h_tags = _cand_tags(host, "h-ecpt", collect)
    hd_tags = _cand_tags(host, "hd-ecpt", collect)
    g_tag = "g-ecpt" if collect else None

    plans = {}
    for vpn, g_cands, hit in zip(uniq_vpns, guest_cands, hits):
        ops = []
        g_hit_line = hit[0] if hit is not None else None
        resolved = []
        for g_addr in g_cands.tolist():
            page = g_addr >> PAGE_SHIFT
            if g_addr >> 6 == g_hit_line:
                op = critical_ops.get(page)
                if op is None:
                    op = critical_ops[page] = _plan_ecpt_probe_step(
                        host, g_addr, host_cands(page), h_tags, "h-ecpt",
                        collect, fold)
            else:
                op = background_ops.get(page)
                if op is None:
                    op = background_ops[page] = fold.probes(
                        host_cands(page))
            ops.append(op)
            base = host_pages[page]
            if base is not None:
                resolved.append((g_addr, base + (g_addr & offset_mask)))
        if hit is None:
            plans[vpn] = (2 * HASH_CYCLES, tuple(ops))
            continue
        run = []
        for g_addr, h_addr in resolved:
            if g_addr >> 6 == g_hit_line:
                if run:
                    ops.append(fold.probes(run))
                    run = []
                ops.append((1, h_addr, g_tag))
                fetched.append(h_addr)
            else:
                run.append(h_addr)
        if run:
            ops.append(fold.probes(run))
        ops.append((0, HASH_CYCLES))
        gpa = hit[1]
        page = gpa >> PAGE_SHIFT
        op = data_ops.get(page)
        if op is None:
            op = data_ops[page] = _plan_ecpt_probe_step(
                host, gpa, host_cands(page), hd_tags, "hd-ecpt", collect,
                fold)
        ops.append(op)
        plans[vpn] = (2 * HASH_CYCLES, tuple(ops))
    fold.fold()
    return plans


def _build_fpt_native_plans(spec: BatchSpec, memsys: MemorySubsystem,
                            uniq_vpns: List[int], collect: bool):
    """Native FPT: fully static two-reference plans (root + leaf slots).

    The winning leaf slot is identified at plan time exactly like the
    scalar ``_leaf_probe`` (last matching probe wins); the winner — or,
    with no winner, every slot — becomes a grouped fetch, the losers
    probe runs (folded like ECPT's, :class:`_ProbeFold`).
    """
    fpt = spec.fpt
    fold = _ProbeFold(memsys.caches)
    fetched = fold.fetched
    read = fpt.memory.read_word
    probe_huge = spec.probe_huge
    plans = {}
    for vpn in uniq_vpns:
        va = vpn << PAGE_SHIFT
        root = fpt.root_entry_addr(va)
        ops = [(1, root, "F-root" if collect else None)]
        fetched.append(root)
        leaf = fpt._leaves.get(fpt.upper_index(va))
        if leaf is not None:
            probes = [(fpt.leaf_entry_addr(leaf, va), PageSize.SIZE_4K)]
            if probe_huge:
                huge = fpt._huge_for(va, create=False)
                if huge is not None:
                    probes.append((fpt.huge_entry_addr(huge, va),
                                   PageSize.SIZE_2M))
            hit_addr = None
            for addr, size in probes:
                pte = read(addr)
                if pte & PTE_PRESENT and \
                        bool(pte & PTE_HUGE) == (size != PageSize.SIZE_4K):
                    hit_addr = addr
            for addr, size in probes:
                if hit_addr is None or addr == hit_addr:
                    ops.append((3, 1, addr,
                                f"F-leaf-{size.name}" if collect else None))
                    fetched.append(addr)
                else:
                    ops.append(fold.probes((addr,)))
        plans[vpn] = (0, tuple(ops))
    fold.fold()
    return plans


def _build_fpt_nested_plans(spec: BatchSpec, memsys: MemorySubsystem,
                            uniq_vpns: List[int], collect: bool):
    """Virtualized FPT: eight-reference plans, both dimensions flattened.

    Each host resolution gets a fresh per-walk group id (2, 3, ...);
    group 1 is reserved for the guest-leaf fetches, mirroring the scalar
    walker's distinct-group bookkeeping (absolute ids differ from the
    scalar ``_group_seq`` values, but group ids only need to be distinct
    within a walk — they never leave the recorder).

    A host resolution depends only on the resolved gPA's page and its
    dimension (which names its step tags), and the mirrors are
    read-only, so each (page, dimension) is planned once per call
    without group ids: its root fetch, leaf fetches, shared probe runs
    and translated page base. A walk stamps its group id on the leaf
    fetches at use.
    """
    guest = spec.fpt
    host = spec.host_fpt
    probe_huge = spec.probe_huge
    gread = guest.memory.read_word
    hread = host.memory.read_word
    fold = _ProbeFold(memsys.caches)
    fetched = fold.fetched
    offset_mask = PAGE_SIZE - 1
    resolutions: Dict[Tuple[int, str], tuple] = {}

    def plan_host_resolve(page: int, dim: str) -> tuple:
        """``(root op, steps, hPA of the page)``: steps are None without
        a host leaf, else each probed leaf entry as a group-free
        ``(addr, tag)`` fetch or a probe-run op."""
        gpa = page << PAGE_SHIFT
        root = host.root_entry_addr(gpa)
        fetched.append(root)
        root_op = (1, root, f"h{dim}-root" if collect else None)
        leaf = host._leaves.get(host.upper_index(gpa))
        if leaf is None:
            return root_op, None, None
        probes = [(host.leaf_entry_addr(leaf, gpa), PageSize.SIZE_4K)]
        if probe_huge:
            huge = host._huge_for(gpa, create=False)
            if huge is not None:
                probes.append((host.huge_entry_addr(huge, gpa),
                               PageSize.SIZE_2M))
        base = None
        hit_addr = None
        for addr, size in probes:
            pte = hread(addr)
            if pte & PTE_PRESENT and \
                    bool(pte & PTE_HUGE) == (size != PageSize.SIZE_4K):
                base = (pte_frame(pte) << PAGE_SHIFT) + (gpa & (size.bytes - 1))
                hit_addr = addr
        tag = f"h{dim}-leaf" if collect else None
        steps = []
        for addr, _size in probes:
            if hit_addr is None or addr == hit_addr:
                steps.append((addr, tag))
                fetched.append(addr)
            else:
                steps.append(fold.probes((addr,)))
        return root_op, tuple(steps), base

    def host_resolve(gpa, dim, ops, gid_box):
        key = (gpa >> PAGE_SHIFT, dim)
        plan = resolutions.get(key)
        if plan is None:
            plan = resolutions[key] = plan_host_resolve(*key)
        root_op, steps, base = plan
        ops.append(root_op)
        if steps is None:
            return None
        gid_box[0] += 1
        gid = gid_box[0]
        ops += [(3, gid) + step if type(step) is tuple else step
                for step in steps]
        return None if base is None else base + (gpa & offset_mask)

    plans = {}
    for vpn in uniq_vpns:
        gva = vpn << PAGE_SHIFT
        ops = []
        gid_box = [1]
        root_hpa = host_resolve(guest.root_entry_addr(gva), "g1", ops,
                                gid_box)
        if root_hpa is None:
            plans[vpn] = (0, tuple(ops))
            continue
        ops.append((1, root_hpa, "gF-root" if collect else None))
        fetched.append(root_hpa)
        leaf = guest._leaves.get(guest.upper_index(gva))
        if leaf is None:
            plans[vpn] = (0, tuple(ops))
            continue
        candidates = [(PageSize.SIZE_4K, guest.leaf_entry_addr(leaf, gva))]
        if probe_huge:
            huge = guest._huge_for(gva, create=False)
            if huge is not None:
                candidates.append((PageSize.SIZE_2M,
                                   guest.huge_entry_addr(huge, gva)))
        slots = []
        for probe_size, entry_gpa in candidates:
            pte = gread(entry_gpa)
            valid = pte & PTE_PRESENT and \
                bool(pte & PTE_HUGE) == (probe_size != PageSize.SIZE_4K)
            slots.append((probe_size, entry_gpa, pte, valid))
        any_valid = any(valid for *_, valid in slots)
        gpa = None
        for probe_size, entry_gpa, pte, valid in slots:
            if any_valid and not valid:
                continue
            entry_hpa = host_resolve(entry_gpa, "g2", ops, gid_box)
            if entry_hpa is None:
                continue
            ops.append((3, 1, entry_hpa,
                        f"gF-leaf-{probe_size.name}" if collect else None))
            fetched.append(entry_hpa)
            if valid:
                gpa = (pte_frame(pte) << PAGE_SHIFT) \
                    + (gva & (probe_size.bytes - 1))
        if gpa is None:
            plans[vpn] = (0, tuple(ops))
            continue
        host_resolve(gpa, "d", ops, gid_box)
        plans[vpn] = (0, tuple(ops))
    fold.fold()
    return plans


def _build_agile_plans(spec: BatchSpec, memsys: MemorySubsystem,
                       uniq_vpns: List[int], collect: bool):
    """Agile Paging plans: shadow chain + guest leaf + data resolution.

    ``plans[vpn] = (chain, leaf, data)``. The chain rows replay phase 1
    including the scalar quirk that a dead or huge shadow PTE does *not*
    stop the descent (the level decrements while the table frame stays
    put). ``leaf`` is the guest leaf PTE's host address (``None`` when
    the guest mapping is absent — the walk ends after the chain) and
    ``data`` the memoized host resolution of the data page. Per-VPN
    plan order (leaf ``gpa_to_hpa`` before the data resolve) preserves
    the scalar walker's lazy first-touch sequence.
    """
    guest_pt = spec.guest_pt
    spt = spec.spt
    sread = spt.memory.read_word
    gpa_to_hpa = spec.vm.gpa_to_hpa
    top_level, n_offsets = _pwc_shape(memsys.pwc)
    chain_top = min(top_level, guest_pt.levels)
    resolve = _host_chains(spec.vm)

    plans = {}
    for vpn in uniq_vpns:
        gva = vpn << PAGE_SHIFT
        gsteps = guest_pt.walk_steps(gva)
        leaf_step = gsteps[-1]
        leaf_level = leaf_step.level
        chain = []
        table_frame = spt.root_frame
        for level in range(chain_top, leaf_level, -1):
            addr = (table_frame << PAGE_SHIFT) + level_index(gva, level) * 8
            pte = sread(addr)
            fill = None
            if pte & PTE_PRESENT and not pte & PTE_HUGE:
                table_frame = pte_frame(pte)
                offset = top_level - level
                if 0 <= offset < n_offsets:
                    fill = (offset,
                            vpn >> (TABLE_INDEX_BITS * (level - 1)),
                            table_frame << PAGE_SHIFT)
            chain.append((addr, f"sL{level}" if collect else None, fill))
        if not leaf_step.pte_value & PTE_PRESENT:
            plans[vpn] = (tuple(chain), None, None)
            continue
        leaf_addr = gpa_to_hpa(leaf_step.pte_addr)
        leaf = (leaf_addr, f"gL{leaf_level}" if collect else None)
        data_gpa = (pte_frame(leaf_step.pte_value) << PAGE_SHIFT) \
            + (gva & (_LEAF_BYTES[leaf_level] - 1))
        plans[vpn] = (tuple(chain), leaf, _data_resolution(
            resolve, data_gpa >> PAGE_SHIFT, collect))
    return plans


def _plan_radix_native(spec: BatchSpec, memsys: MemorySubsystem,
                       uniq_vpns: List[int], collect: bool,
                       prefetch_levels: Tuple[int, ...] = ()):
    """Radix-native columns (:func:`_build_radix_native_columns`)."""
    views = [level.batch_view() for level in memsys.caches.levels]
    return _build_radix_native_columns(
        spec.page_table, *_pwc_shape(memsys.pwc), uniq_vpns, views,
        prefetch_levels)


def _plan_radix_nested(spec: BatchSpec, memsys: MemorySubsystem,
                       uniq_vpns: List[int], collect: bool):
    """Radix-nested chains (:func:`_build_radix_nested_plans`)."""
    return _build_radix_nested_plans(
        spec.guest_pt, spec.vm, *_pwc_shape(memsys.guest_pwc), uniq_vpns,
        collect)


def _plan_dmt(spec: BatchSpec, memsys: MemorySubsystem,
              uniq_vpns: List[int], collect: bool):
    """``(plans, fallback_vpns, fallback_spec, fallback_plan)``: pass 1
    (:func:`_build_dmt_plans`), then pass 2, the radix fallback walker's
    plan for only the VPNs whose attempt fell back."""
    plans, fallback_vpns = _build_dmt_plans(spec, uniq_vpns, collect)
    fallback_spec = spec.fallback.batch_spec()
    fallback_plan = _PLANNERS[fallback_spec.kind](
        fallback_spec, memsys, fallback_vpns, collect)
    return plans, fallback_vpns, fallback_spec, fallback_plan


def _plan_asap(spec: BatchSpec, memsys: MemorySubsystem,
               uniq_vpns: List[int], collect: bool):
    """Plan an ASAP replay: ``(inner_spec, plan, prefetch)``, the inner
    radix walker's spec and walk plan, and each unique VPN's prefetch
    addresses, read off that plan.

    Native ASAP prefetches the walk's L2/L1 PTE addresses: the rows of
    :func:`_build_radix_native_columns` at :data:`PREFETCH_LEVELS`.
    Nested ASAP prefetches each guest L2/L1 entry's host address
    (``gpte_hpa``) followed by the L2/L1 steps of that entry's memoised
    host chain — what the scalar walker's ``gpa_to_hpa`` and EPT
    ``walk_steps`` give on a fully backed VM (:func:`unsupported_reason`
    refuses any other; machine builds back the whole guest-physical
    space before any walker exists).
    """
    inner_spec = spec.inner.batch_spec()
    if spec.kind == "asap-native":
        slots, columns, prefetch = _plan_radix_native(
            inner_spec, memsys, uniq_vpns, collect, PREFETCH_LEVELS)
        return inner_spec, (slots, columns), prefetch
    top_level = memsys.guest_pwc.top_level
    plans = _plan_radix_nested(inner_spec, memsys, uniq_vpns, collect)
    host_levels = inner_spec.vm.ept.levels
    guest_depths = [depth for depth in range(top_level)
                    if top_level - depth in PREFETCH_LEVELS]
    host_depths = [depth for depth in range(host_levels)
                   if host_levels - depth in PREFETCH_LEVELS]
    host_prefetch: Dict[int, Tuple[int, ...]] = {}   # per guest frame
    prefetch = {}
    for vpn in uniq_vpns:
        entries = plans[vpn][0]
        addrs: List[int] = []
        for depth in guest_depths:
            if depth >= len(entries):
                break
            gfn, _hfn, hsteps, gpte_hpa = entries[depth][:4]
            steps = host_prefetch.get(gfn)
            if steps is None:
                steps = host_prefetch[gfn] = tuple(
                    hsteps[k] for k in host_depths if k < len(hsteps))
            addrs.append(gpte_hpa)
            addrs += steps
        prefetch[vpn] = tuple(addrs)
    return inner_spec, plans, prefetch

#: ``spec.kind`` -> planner ``(spec, memsys, uniq_vpns, collect) ->
#: plan``: the one planning step of both batched backends. The plan goes
#: to the vec runner builders or to the kernels' flatteners unchanged.
_PLANNERS: Dict[str, Callable] = {
    "radix-native": _plan_radix_native,
    "radix-nested": _plan_radix_nested,
    "dmt": _plan_dmt,
    "ecpt-native": _build_ecpt_native_plans,
    "ecpt-nested": _build_ecpt_nested_plans,
    "fpt-native": _build_fpt_native_plans,
    "fpt-nested": _build_fpt_nested_plans,
    "agile": _build_agile_plans,
    "asap-native": _plan_asap,
    "asap-nested": _plan_asap,
}


# --------------------------------------------------------------------- #
# Runners
# --------------------------------------------------------------------- #

def _make_host_resolver(memsys: MemorySubsystem,
                        access: Callable[[int], int],
                        finalizers: List[Callable[[], None]]):
    """Inlined ``_host_resolve`` of the nested walkers: the nested-PWC
    consult (LRU touch and credit thinning as ``NestedPWC.get``; a rate
    of 1.0 accepts every hit), on a miss the memoized host chain's
    replay, then ``NestedPWC.fill``.

    ``resolve_host(gfn, hfn, hsteps, htags, steps, cycles, nrefs)``
    returns the updated ``(cycles, nrefs)``; the hit/miss counts and the
    thinning credit are flushed to the nested PWC by a finalizer.
    """
    nview = memsys.nested_pwc.batch_view()
    ntable = nview.table
    ncapacity = nview.capacity
    naccept = nview.accept
    # hits, misses; thinning credit (float) written back at finalize
    ncounters = [0, 0]
    ncredit = [nview.owner.credit]

    def resolve_host(gfn, hfn, hsteps, htags, steps, cycles, nrefs):
        hit = False
        if gfn in ntable:
            cached = ntable.pop(gfn)   # LRU touch, even when thinned
            ntable[gfn] = cached
            credit = ncredit[0] + naccept
            if credit >= 1.0:
                ncredit[0] = credit - 1.0
                hit = True
            else:
                ncredit[0] = credit
        if hit:
            ncounters[0] += 1
            return cycles, nrefs
        ncounters[1] += 1
        if steps is None:
            for addr in hsteps:
                cycles += access(addr)
                nrefs += 1
        else:
            for addr, tag in zip(hsteps, htags):
                latency = access(addr)
                cycles += latency
                nrefs += 1
                steps.append((tag, latency))
        # NestedPWC.fill after the chain (scalar _host_resolve order)
        if gfn in ntable:
            del ntable[gfn]
        elif len(ntable) >= ncapacity:
            del ntable[next(iter(ntable))]
        ntable[gfn] = hfn
        return cycles, nrefs

    def nested_fin() -> None:
        nview.stats.hits += ncounters[0]
        nview.stats.misses += ncounters[1]
        nview.owner.credit = ncredit[0]

    finalizers.append(nested_fin)
    return resolve_host


def _make_radix_runner(spec: BatchSpec, memsys: MemorySubsystem, plan,
                       access: Callable[[int], int], access_ctx,
                       finalizers: List[Callable[[], None]],
                       credit_walkers: Tuple = ()):
    """The per-miss radix walk function for ``spec`` over its ``plan``.

    Returns ``(run, run_many)``. ``run(vpn, steps)`` executes one walk:
    PWC probe (with LRU touch and credit thinning), the remaining chain
    fetches, and the PWC fills — all against live flat state — and
    returns ``(cycles, nrefs, False)``. ``steps`` collects Figure 16
    ``(tag, latency)`` pairs when not None. For radix-native over the
    Table 3 shape — a single-set L1 PTE cache and a three-level PWC —
    ``run_many(vpn_list) -> (cycles, nrefs)`` additionally replays a
    whole chunk with the probe and the cache hierarchy fully inlined
    over ``access_ctx`` (the shared counters behind ``access``), every
    line/set index precomputed, and all counters held in locals that
    flush once per chunk. Every other shape, and the nested path,
    replays walk by walk through ``run`` (``run_many`` is None); the
    nested path goes through ``access``.

    ``credit_walkers`` names walkers whose walks/cycles counters must
    mirror these walks (the DMT fallback path: the scalar loop records
    each fallback walk on the fallback walker before the DMT walker).
    """
    pwc = memsys.guest_pwc if spec.kind == "radix-nested" else memsys.pwc
    view = pwc.batch_view()
    probe, probe_fin, probe_ctx = _make_pwc_probe(view)
    finalizers.append(probe_fin)
    tables = view.tables
    capacities = view.capacities
    pwc_latency = memsys.pwc_latency
    run_many = None

    if spec.kind == "radix-native":
        (v1, v2, v3), mem_latency, counters = access_ctx
        top_level = view.top_level
        slots, columns = plan[:2]
        line1, idx1, line2, idx2, line3, idx3, fkeys, fvals = columns
        tag_by_step = tuple(
            f"L{top_level - depth}" for depth in range(top_level))
        s1, a1, lat1 = v1.sets, v1.assoc, v1.latency
        s2, a2, lat2 = v2.sets, v2.assoc, v2.latency
        s3, a3, lat3 = v3.sets, v3.assoc, v3.latency
        porder, paccept, pcredit, pcounters = probe_ctx

        def run(vpn: int, steps) -> Tuple[int, int, bool]:
            base, chain_len = slots[vpn]
            cycles = pwc_latency
            start = probe(vpn)
            j = base + start
            end = base + chain_len
            while j < end:
                # Inlined CacheHierarchy.access: L1 -> L2 -> LLC -> MEM,
                # LRU touch on hit, install into every missed level.
                l1 = line1[j]
                i1 = idx1[j]
                w1 = s1.get(i1)
                if w1 is not None and l1 in w1:
                    del w1[l1]
                    w1[l1] = None
                    counters[0] += 1
                    latency = lat1
                else:
                    counters[3] += 1
                    l2 = line2[j]
                    i2 = idx2[j]
                    w2 = s2.get(i2)
                    if w2 is not None and l2 in w2:
                        del w2[l2]
                        w2[l2] = None
                        counters[1] += 1
                        latency = lat2
                    else:
                        counters[4] += 1
                        l3 = line3[j]
                        i3 = idx3[j]
                        w3 = s3.get(i3)
                        if w3 is not None and l3 in w3:
                            del w3[l3]
                            w3[l3] = None
                            counters[2] += 1
                            latency = lat3
                        else:
                            counters[5] += 1
                            counters[6] += 1
                            latency = mem_latency
                            if w3 is None:
                                s3[i3] = {l3: None}
                            else:
                                if len(w3) >= a3:
                                    del w3[next(iter(w3))]
                                w3[l3] = None
                        if w2 is None:
                            s2[i2] = {l2: None}
                        else:
                            if len(w2) >= a2:
                                del w2[next(iter(w2))]
                            w2[l2] = None
                    if w1 is None:
                        s1[i1] = {l1: None}
                    else:
                        if len(w1) >= a1:
                            del w1[next(iter(w1))]
                        w1[l1] = None
                cycles += latency
                if steps is not None:
                    steps.append((tag_by_step[j - base], latency))
                key = fkeys[j]
                if key >= 0:
                    offset = j - base
                    table = tables[offset]
                    if key in table:
                        del table[key]
                    elif len(table) >= capacities[offset]:
                        del table[next(iter(table))]
                    table[key] = fvals[j]
                j += 1
            return cycles, chain_len - start, False

        if v1.num_sets == 1 and len(porder) == 3:
            # The Table 3 shape: the PTE-share-thinned L1 collapses to a
            # single set at evaluation scale (its one ways dict is
            # hoisted out of the loop — no set-index column load, no
            # s1.get per access) and the 3-offset thinned PWC probe is
            # unrolled deepest-first with its tables/shifts in locals.
            (pt2, psh2, _o2), (pt1, psh1, _o1), (pt0, psh0, _o0) = porder
            pac0, pac1, pac2 = paccept[0], paccept[1], paccept[2]

            def run_many(vpn_list) -> Tuple[int, int]:
                h1 = h2 = h3 = miss1 = miss2 = miss3 = mem = 0
                phits = pmisses = 0
                total_cycles = 0
                refs = 0
                w1 = s1.get(0)
                for vpn in vpn_list:
                    base, chain_len = slots[vpn]
                    start = 0
                    key = vpn >> psh2
                    if key in pt2:
                        pt2[key] = pt2.pop(key)   # LRU touch
                        credit = pcredit[2] + pac2
                        if credit >= 1.0:
                            pcredit[2] = credit - 1.0
                            start = 3
                        else:
                            pcredit[2] = credit
                    if start == 0:
                        key = vpn >> psh1
                        if key in pt1:
                            pt1[key] = pt1.pop(key)
                            credit = pcredit[1] + pac1
                            if credit >= 1.0:
                                pcredit[1] = credit - 1.0
                                start = 2
                            else:
                                pcredit[1] = credit
                        if start == 0:
                            key = vpn >> psh0
                            if key in pt0:
                                pt0[key] = pt0.pop(key)
                                credit = pcredit[0] + pac0
                                if credit >= 1.0:
                                    pcredit[0] = credit - 1.0
                                    start = 1
                                else:
                                    pcredit[0] = credit
                    if start:
                        phits += 1
                    else:
                        pmisses += 1
                    cycles = pwc_latency
                    j = base + start
                    end = base + chain_len
                    while j < end:
                        l1 = line1[j]
                        if w1 is not None and l1 in w1:
                            del w1[l1]
                            w1[l1] = None
                            h1 += 1
                            cycles += lat1
                        else:
                            miss1 += 1
                            l2 = line2[j]
                            i2 = idx2[j]
                            w2 = s2.get(i2)
                            if w2 is not None and l2 in w2:
                                del w2[l2]
                                w2[l2] = None
                                h2 += 1
                                cycles += lat2
                            else:
                                miss2 += 1
                                l3 = line3[j]
                                i3 = idx3[j]
                                w3 = s3.get(i3)
                                if w3 is not None and l3 in w3:
                                    del w3[l3]
                                    w3[l3] = None
                                    h3 += 1
                                    cycles += lat3
                                else:
                                    miss3 += 1
                                    mem += 1
                                    cycles += mem_latency
                                    if w3 is None:
                                        s3[i3] = {l3: None}
                                    else:
                                        if len(w3) >= a3:
                                            del w3[next(iter(w3))]
                                        w3[l3] = None
                                if w2 is None:
                                    s2[i2] = {l2: None}
                                else:
                                    if len(w2) >= a2:
                                        del w2[next(iter(w2))]
                                    w2[l2] = None
                            if w1 is None:
                                w1 = s1[0] = {l1: None}
                            else:
                                if len(w1) >= a1:
                                    del w1[next(iter(w1))]
                                w1[l1] = None
                        key = fkeys[j]
                        if key >= 0:
                            offset = j - base
                            table = tables[offset]
                            if key in table:
                                del table[key]
                            elif len(table) >= capacities[offset]:
                                del table[next(iter(table))]
                            table[key] = fvals[j]
                        j += 1
                    total_cycles += cycles
                    refs += chain_len - start
                counters[0] += h1
                counters[1] += h2
                counters[2] += h3
                counters[3] += miss1
                counters[4] += miss2
                counters[5] += miss3
                counters[6] += mem
                pcounters[0] += phits
                pcounters[1] += pmisses
                return total_cycles, refs

    else:  # radix-nested
        resolve_host = _make_host_resolver(memsys, access, finalizers)

        def run(vpn: int, steps) -> Tuple[int, int, bool]:
            entries, data = plan[vpn]
            cycles = pwc_latency
            nrefs = 0
            i = probe(vpn)
            n = len(entries)
            while i < n:
                gfn, hfn, hsteps, gpte_hpa, fill, gtag, htags = entries[i]
                cycles, nrefs = resolve_host(
                    gfn, hfn, hsteps, htags, steps, cycles, nrefs)
                latency = access(gpte_hpa)
                cycles += latency
                nrefs += 1
                if steps is not None:
                    steps.append((gtag, latency))
                if fill is not None:
                    offset, key, value = fill
                    table = tables[offset]
                    if key in table:
                        del table[key]
                    elif len(table) >= capacities[offset]:
                        del table[next(iter(table))]
                    table[key] = value
                i += 1
            if data is not None:
                cycles, nrefs = resolve_host(*data, steps, cycles, nrefs)
            return cycles, nrefs, False

    if not credit_walkers:
        return run, run_many
    # DMT fallback duty: mirror each fallback walk onto the fallback
    # walker's own counters (the scalar loop records through it first).
    acc = [0, 0]

    def tracked(vpn: int, steps) -> Tuple[int, int, bool]:
        cycles, nrefs, _ = run(vpn, steps)
        acc[0] += 1
        acc[1] += cycles
        return cycles, nrefs, False

    def credit_fin() -> None:
        for target in credit_walkers:
            target.walks += acc[0]
            target.total_cycles += acc[1]

    finalizers.append(credit_fin)
    return tracked, None


def _make_dmt_runner(spec: BatchSpec, memsys: MemorySubsystem, plan,
                     access: Callable[[int], int], access_ctx,
                     finalizers: List[Callable[[], None]]):
    """The per-miss DMT run function (register hit or fallback) over
    :func:`_plan_dmt`'s two-pass plan.

    A register hit charges each group's slowest member sequentially
    (``WalkRecorder.fetch_grouped`` semantics); a register miss applies
    the attempt's cache traffic with its latency discarded — exactly the
    scalar ``_run``, which drops the recorder on fallback but keeps the
    cache/PWC mutations — then runs the radix fallback walk, whose
    cycles and refs are the walk's result.
    """
    plans, _fallback_vpns, fallback_spec, fallback_plan = plan
    fallback_run, _ = _make_radix_runner(
        fallback_spec, memsys, fallback_plan, access, access_ctx, finalizers,
        credit_walkers=(spec.fallback,) + tuple(fallback_spec.extra_walkers))
    fetcher = spec.fetcher
    acc = [0, 0]  # fetcher hits / fallbacks deltas, applied at finalize

    def run(vpn: int, steps) -> Tuple[int, int, bool]:
        fell_back, groups, d_hits, d_fallbacks = plans[vpn]
        acc[0] += d_hits
        acc[1] += d_fallbacks
        if fell_back:
            for addrs, _tags in groups:
                for addr in addrs:
                    access(addr)   # mutates caches; cycles discarded
            cycles, nrefs, _ = fallback_run(vpn, steps)
            return cycles, nrefs, True
        cycles = 0
        nrefs = 0
        for addrs, tags in groups:
            group_max = 0
            first = -1
            for addr in addrs:
                latency = access(addr)
                if latency > group_max:
                    group_max = latency
                if first < 0:
                    first = latency
            cycles += group_max
            nrefs += len(addrs)
            if steps is not None:
                steps.append((tags[0], first))
        return cycles, nrefs, False

    def fetcher_fin() -> None:
        fetcher.hits += acc[0]
        fetcher.fallbacks += acc[1]

    finalizers.append(fetcher_fin)
    return run


def _make_ops_runner(plans, access: Callable[[int], int], access_ctx, cwc,
                     finalizers: List[Callable[[], None]]):
    """The op-program interpreter shared by the ECPT and FPT runners.

    ``plans[vpn] = (base_cycles, ops)``. Opcodes (first element):

    - ``(0, c)``     — ``WalkRecorder.charge``: close the open group,
      add ``c`` cycles (mid-walk hash charges; the *leading* charge is
      folded into ``base_cycles`` — safe only there, because a charge
      closes an open group episode).
    - ``(1, addr, tag)`` — sequential ``fetch``.
    - ``[2, addrs, dead]`` — a probe run: background
      ``CacheHierarchy.probe`` of each live address in order, plus
      ``dead`` probes that can only miss (:class:`_ProbeFold`).
    - ``(3, gid, addr, tag)`` — ``fetch_grouped``: parallel group
      member, the episode costs its slowest member.
    - ``[4, ..., cands, dead]`` — an ECPT probe step (see
      :func:`_plan_ecpt_probe_step`): replay the CWC prediction against
      the live entry dict, then either the single predicted fetch, the
      mispredict fan-out (critical fetch + live losing probes, plus the
      CWC update), or the full-miss fan-out whose completion is a
      grouped fetch of the first candidate (group id 0 — the scalar
      walker's ``id(rec) & 0xFFFF`` symbol, constant within a walk).
      Both fan-outs also issue the ``dead`` folded probes.

    Probes go through :func:`_make_probe` over ``access_ctx``, and a
    walk's dead probes are added to the L1, L2 and LLC miss counters
    and to the memory-access counter of ``access_ctx`` — exactly what
    probing each of them would have counted, since it misses every
    level and touches nothing.

    Group episodes replicate ``WalkRecorder`` exactly: a grouped fetch
    with a new gid closes the previous episode (adding its max), fetches
    and charges close any open episode, probes touch nothing, and the
    walk's final episode closes at op-list end. Step collection mirrors
    the scalar collapsing — one entry per *first* ref of each gid per
    walk, sequential fetches always recorded.
    """
    probe = _make_probe(access_ctx)
    counters = access_ctx[2]
    if cwc is not None:
        centries = cwc._entries
        ccap = cwc.capacity
        ccounters = [0, 0]  # hits, misses

        def cwc_fin() -> None:
            cwc.hits += ccounters[0]
            cwc.misses += ccounters[1]

        finalizers.append(cwc_fin)
    else:
        centries = None
        ccap = 0
        ccounters = None

    def run(vpn: int, steps) -> Tuple[int, int, bool]:
        base, ops = plans[vpn]
        cycles = base
        nrefs = 0
        dead = 0
        open_gid = -1
        gmax = 0
        seen = set() if steps is not None else None
        for op in ops:
            code = op[0]
            if code == 1:
                if open_gid >= 0:
                    cycles += gmax
                    open_gid = -1
                    gmax = 0
                latency = access(op[1])
                cycles += latency
                nrefs += 1
                if steps is not None:
                    steps.append((op[2], latency))
            elif code == 2:
                for addr in op[1]:
                    probe(addr)
                dead += op[2]
            elif code == 3:
                gid = op[1]
                if gid != open_gid:
                    if open_gid >= 0:
                        cycles += gmax
                    open_gid = gid
                    gmax = 0
                latency = access(op[2])
                if latency > gmax:
                    gmax = latency
                nrefs += 1
                if steps is not None and gid not in seen:
                    seen.add(gid)
                    steps.append((op[3], latency))
            elif code == 4:
                _c, has_hit, ckey, hit_way, hit_addr, hit_tag, cands, \
                    dead_cands = op
                if has_hit:
                    predicted = centries.pop(ckey, None)
                    if predicted is None:
                        ccounters[1] += 1
                    else:
                        centries[ckey] = predicted   # LRU touch
                        ccounters[0] += 1
                    if predicted == hit_way:
                        # CWC hit: single targeted probe
                        if open_gid >= 0:
                            cycles += gmax
                            open_gid = -1
                            gmax = 0
                        latency = access(hit_addr)
                        cycles += latency
                        nrefs += 1
                        if steps is not None:
                            steps.append((hit_tag, latency))
                        continue
                    # mispredict: install the true way (CuckooWalkCache.put)
                    if ckey in centries:
                        centries.pop(ckey)
                    elif len(centries) >= ccap:
                        centries.pop(next(iter(centries)))
                    centries[ckey] = hit_way
                    for addr, tag, crit in cands:
                        if crit:
                            if open_gid >= 0:
                                cycles += gmax
                                open_gid = -1
                                gmax = 0
                            latency = access(addr)
                            cycles += latency
                            nrefs += 1
                            if steps is not None:
                                steps.append((tag, latency))
                        else:
                            probe(addr)
                else:
                    # full miss: probe every candidate, completion waits
                    # for the slowest (the grouped first-candidate fetch,
                    # always live, so still first)
                    for addr, _tag, _crit in cands:
                        probe(addr)
                    addr, tag, _crit = cands[0]
                    if open_gid != 0:
                        if open_gid >= 0:
                            cycles += gmax
                        open_gid = 0
                        gmax = 0
                    latency = access(addr)
                    if latency > gmax:
                        gmax = latency
                    nrefs += 1
                    if steps is not None and 0 not in seen:
                        seen.add(0)
                        steps.append((tag, latency))
                dead += dead_cands
            else:  # code == 0: charge
                if open_gid >= 0:
                    cycles += gmax
                    open_gid = -1
                    gmax = 0
                cycles += op[1]
        if open_gid >= 0:
            cycles += gmax
        if dead:
            counters[3] += dead
            counters[4] += dead
            counters[5] += dead
            counters[6] += dead
        return cycles, nrefs, False

    return run


def _make_agile_runner(spec: BatchSpec, memsys: MemorySubsystem, plans,
                       access: Callable[[int], int],
                       finalizers: List[Callable[[], None]]):
    """Agile Paging: PWC-probed shadow chain + nested data resolution.

    Phase 1 replays like a native radix walk against the *host* PWC
    (including the scalar walker's dead-PTE descent quirk, baked into
    the chain rows); phase 2 is one precomputed guest-leaf fetch; phase
    3 is the nested-PWC consult + memoized host chain, through the
    radix-nested runner's :func:`_make_host_resolver`.
    """
    view = memsys.pwc.batch_view()
    probe, probe_fin, _probe_ctx = _make_pwc_probe(view)
    finalizers.append(probe_fin)
    tables = view.tables
    capacities = view.capacities
    pwc_latency = memsys.pwc_latency
    top_level = view.top_level
    chain_top = min(top_level, spec.guest_pt.levels)
    resolve_host = _make_host_resolver(memsys, access, finalizers)

    def run(vpn: int, steps) -> Tuple[int, int, bool]:
        chain, leaf, data = plans[vpn]
        cycles = pwc_latency
        nrefs = 0
        # probe() returns a top_level-relative chain index; clamp to the
        # shadow chain's top (the scalar min(start_level, levels)).
        start = probe(vpn)
        lvl = top_level - start
        if lvl > chain_top:
            lvl = chain_top
        for addr, tag, fill in chain[chain_top - lvl:]:
            latency = access(addr)
            cycles += latency
            nrefs += 1
            if steps is not None:
                steps.append((tag, latency))
            if fill is not None:
                offset, key, value = fill
                table = tables[offset]
                if key in table:
                    del table[key]
                elif len(table) >= capacities[offset]:
                    del table[next(iter(table))]
                table[key] = value
        if leaf is None:
            return cycles, nrefs, False
        leaf_addr, leaf_tag = leaf
        latency = access(leaf_addr)
        cycles += latency
        nrefs += 1
        if steps is not None:
            steps.append((leaf_tag, latency))
        # Phase 3: nested-PWC consult + host chain (scalar _host_resolve)
        cycles, nrefs = resolve_host(*data, steps, cycles, nrefs)
        return cycles, nrefs, False

    return run


def _make_asap_runner(walker: Walker, spec: BatchSpec,
                      memsys: MemorySubsystem, plan,
                      access: Callable[[int], int], access_ctx,
                      finalizers: List[Callable[[], None]]):
    """ASAP (native or nested): prefetch cost model over the radix plan.

    The prefetch addresses are static per VPN and come with the inner
    radix plan from :func:`_plan_asap`. At run time the prefetch
    accesses go through the shared hierarchy (installing lines) before
    the inner walk replays; the walk costs ``max(prefetch completion,
    inner)`` while refs and step tags come from the inner walk alone,
    and the inner walker's own walks/cycles counters mirror the inner
    replays.
    """
    inner_spec, inner_plan, pf_plans = plan
    chain_hop = walker.CHAIN_HOP_CYCLES if spec.kind == "asap-nested" else 0
    inner_run, _ = _make_radix_runner(
        inner_spec, memsys, inner_plan, access, access_ctx, finalizers)

    inner = spec.inner
    acc = [0, 0, 0]  # inner walks, inner cycles, prefetches issued

    def run(vpn: int, steps) -> Tuple[int, int, bool]:
        pf = pf_plans[vpn]
        worst = 0
        for addr in pf:
            latency = access(addr)
            if latency > worst:
                worst = latency
        acc[2] += len(pf)
        if worst and chain_hop:
            worst += chain_hop
        cycles, nrefs, _ = inner_run(vpn, steps)
        acc[0] += 1
        acc[1] += cycles
        return (worst if worst > cycles else cycles), nrefs, False

    def asap_fin() -> None:
        inner.walks += acc[0]
        inner.total_cycles += acc[1]
        walker.prefetches += acc[2]

    finalizers.append(asap_fin)
    return run


# --------------------------------------------------------------------- #
# Entry point: the one batched replay frame
# --------------------------------------------------------------------- #

# ``gc.disable`` is process-global, so concurrent cell replays refcount
# it: the first replay in pauses collection, the last one out restores
# whatever the outermost caller had.
_GC_LOCK = threading.Lock()
_GC_DEPTH = 0
_GC_REENABLE = False


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for a block; refcounted across threads."""
    global _GC_DEPTH, _GC_REENABLE
    with _GC_LOCK:
        if _GC_DEPTH == 0:
            _GC_REENABLE = gc.isenabled()
            if _GC_REENABLE:
                gc.disable()
        _GC_DEPTH += 1
    try:
        yield
    finally:
        with _GC_LOCK:
            _GC_DEPTH -= 1
            if _GC_DEPTH == 0 and _GC_REENABLE:
                gc.enable()


def _vec_replayer(walker: Walker, spec: BatchSpec, memsys: MemorySubsystem,
                  plan, vpns: np.ndarray, collect: bool, chunk: int,
                  finalizers: List[Callable[[], None]]):
    """The vec backend of :func:`replay_batched`: the runner for
    ``spec.kind`` over ``plan``, driven chunk by chunk.

    Returns ``replay(lo, hi, step_cycles) -> (cycles, refs, fallbacks)``
    for the walks of ``vpns[lo:hi]``; ``step_cycles`` (a
    ``WalkStats.step_cycles`` dict) collects the steps when not None.
    """
    access, access_fin, access_ctx = _make_access(memsys.caches)
    finalizers.append(access_fin)
    kind = spec.kind
    run_many = None
    if kind in ("radix-native", "radix-nested"):
        run, run_many = _make_radix_runner(spec, memsys, plan, access,
                                           access_ctx, finalizers)
    elif kind == "dmt":
        run = _make_dmt_runner(spec, memsys, plan, access, access_ctx,
                               finalizers)
    elif kind == "agile":
        run = _make_agile_runner(spec, memsys, plan, access, finalizers)
    elif kind in ("asap-native", "asap-nested"):
        run = _make_asap_runner(walker, spec, memsys, plan, access,
                                access_ctx, finalizers)
    else:  # the ECPT and FPT op programs
        run = _make_ops_runner(plan, access, access_ctx, spec.cwc,
                               finalizers)
    if collect:
        run_many = None

    def replay(lo: int, hi: int, step_cycles) -> Tuple[int, int, int]:
        cycles = refs = fallbacks = 0
        # Chunks reach the runners as memoryviews of the ndarray slices
        # — zero-copy (no Python-list materialization), yet iteration
        # yields native ints, so the runners' dict lookups and shifts
        # skip np.int64 scalar overhead (~25% on the radix fast path).
        for start in range(lo, hi, chunk):
            chunk_vpns = memoryview(vpns[start:min(start + chunk, hi)])
            if run_many is not None:
                chunk_cycles, nrefs = run_many(chunk_vpns)
                cycles += chunk_cycles
                refs += nrefs
            elif step_cycles is None:
                for vpn in chunk_vpns:
                    walk_cycles, nrefs, fell_back = run(vpn, None)
                    cycles += walk_cycles
                    refs += nrefs
                    if fell_back:
                        fallbacks += 1
            else:
                for vpn in chunk_vpns:
                    steps = []
                    walk_cycles, nrefs, fell_back = run(vpn, steps)
                    cycles += walk_cycles
                    refs += nrefs
                    if fell_back:
                        fallbacks += 1
                    position = 0
                    for tag, latency in steps:
                        position += 1
                        bucket = step_cycles.setdefault(
                            "%02d:%s" % (position, tag), [0.0, 0])
                        bucket[0] += latency
                        bucket[1] += 1
        return cycles, refs, fallbacks

    return replay


def replay_batched(
    walker: Walker,
    miss_vas,
    warmup_fraction: float = 0.1,
    collect_steps: bool = False,
    native: Optional[bool] = None,
    chunk: int = DEFAULT_CHUNK,
):
    """Batched stage 2: replay a miss stream, bit-identical to scalar.

    Drop-in for :func:`repro.sim.simulator.replay_walks` on walkers
    :func:`unsupported_reason` accepts (the caller checks): same
    ``WalkStats`` (cycles, refs, fallbacks, step breakdown), same
    post-replay cache/PWC/CWC/walker state. The frame plans each unique
    VPN through :data:`_PLANNERS`, then replays the warm-up and the
    measured walks on one backend: the compiled kernels
    (:func:`repro.sim.kernels.replay._kernel_replayer`) when ``native``
    is true, the per-walk runners otherwise. ``native=None`` means the
    kernels when numba is installed. Step collection always runs the
    runners (the kernels carry no step tags). ``chunk`` bounds the
    runners' transient lists; the kernels take whole ranges.
    """
    from repro.sim import kernels
    from repro.sim.simulator import WalkStats

    spec = walker.batch_spec()
    memsys = walker.memsys
    collect = bool(collect_steps and memsys.record_refs)
    if native is None:
        native = kernels.HAVE_NUMBA
    native = native and not collect

    vas = np.asarray(miss_vas, dtype=np.int64)
    stats = WalkStats(design=walker.name,
                      engine="native" if native else "vec")
    total = int(vas.size)
    if total == 0:
        return stats
    vpns = vas >> PAGE_SHIFT

    # Unique VPNs in first-occurrence order: planning must touch lazily
    # populated structures in the same order the scalar loop would. The
    # kernels also index plan rows per miss (``inverse``).
    uniq, first_index, *inverse = np.unique(
        vpns, return_index=True, return_inverse=native)
    order = np.argsort(first_index, kind="stable")
    uniq_ordered = uniq[order].tolist()

    finalizers: List[Callable[[], None]] = []
    # Planning + replay allocate at a small bounded rate; pausing the
    # cyclic collector for the duration costs nothing semantically.
    with _gc_paused():
        plan = _PLANNERS[spec.kind](spec, memsys, uniq_ordered, collect)
        if native:
            from repro.sim.kernels.replay import _kernel_replayer
            replay = _kernel_replayer(walker, spec, memsys, plan,
                                      uniq_ordered, vpns, order, inverse[0],
                                      finalizers)
        else:
            replay = _vec_replayer(walker, spec, memsys, plan, vpns,
                                   collect, chunk, finalizers)
        del plan   # the runners keep what they need
        warmup = int(total * warmup_fraction)
        warm_cycles, _refs, warm_fallbacks = replay(0, warmup, None)
        cycles, refs, fallbacks = replay(
            warmup, total, stats.step_cycles if collect else None)

    stats.walks = total - warmup
    stats.total_cycles = cycles
    stats.ref_count = refs if memsys.record_refs else 0
    stats.fallbacks = fallbacks
    for finalize in finalizers:
        finalize()
    for target in (walker,) + tuple(spec.extra_walkers):
        target.walks += total
        target.total_cycles += warm_cycles + cycles
        target.fallbacks += warm_fallbacks + fallbacks
    return stats


def replay_walks_vec(walker: Walker, miss_vas, warmup_fraction: float = 0.1,
                     collect_steps: bool = False,
                     chunk: int = DEFAULT_CHUNK):
    """:func:`replay_batched` on the per-walk runners, numba or not."""
    return replay_batched(walker, miss_vas, warmup_fraction, collect_steps,
                          native=False, chunk=chunk)
