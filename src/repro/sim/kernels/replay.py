"""The native kernel engine's entry point and plan/state flattening.

``replay_walks_native`` is the third stage-2 engine, beside the scalar
oracle and the batched (vec) engine. It reuses the vec engine's
planners verbatim — same unique-VPN first-occurrence order, same lazy
first-touch side effects — then flattens the plans into int64 arrays
and replays the history-dependent state (cache LRU sets, PWC tables,
credit counters, the ECPT cuckoo-walk cache) inside the compiled chunk
kernels of :mod:`repro.sim.kernels.radix` /
:mod:`repro.sim.kernels.designs` over ``array_view()`` snapshots.

Bit-identity contract: identical ``WalkStats`` and identical
post-replay cache/PWC/CWC/walker state versus the scalar oracle, on
both backends (``tests/test_walk_vec.py`` parametrizes the parity
suite over the vec and native engines; the no-numba CI leg pins the
pure-Python backend).

Step collection (``collect_steps`` with ``record_refs``) delegates to
the interpreted vec runners — the kernels carry no tag strings — and
records :data:`STEP_COLLECTION_REASON` so profiling runs are visibly
not kernel-timed.

**Thread safety.** A replay writes only to the walker it is given and
that walker's private memory subsystem. The planners read the machine
state the cells share (page tables, EPT, mirrors, register files),
which the simulation builds once before its first walker
(``_prepare_shared`` in :mod:`repro.sim.machine`), and the kernels run
over ``array_view()`` copies of this walker's caches. So replays of
different walkers of one machine may run on concurrent threads; with
the compiled backend the ``nogil`` kernels then overlap. The miss
stream is read-only and memmap-shared.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import List

import numpy as np

from repro.arch import PAGE_SHIFT
from repro.sim import walk_vec
from repro.sim.kernels.designs import (
    agile_chunk,
    asap_native_chunk,
    asap_nested_chunk,
    dmt_native_chunk,
    dmt_nested_chunk,
    ops_chunk,
)
from repro.sim.kernels.radix import radix_native_chunk, radix_nested_chunk
from repro.translation.base import MemorySubsystem, Walker

#: Recorded as ``WalkStats.fallback_reason`` when ``engine="native"``
#: is asked to collect per-step latency tags.
STEP_COLLECTION_REASON = (
    "step collection runs on the interpreted vec runners "
    "(native kernels carry no step tags)"
)


def _ia(seq) -> np.ndarray:
    return np.asarray(seq, dtype=np.int64)


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


# --------------------------------------------------------------------- #
# array_view() state bundles + writeback/flush closures
# --------------------------------------------------------------------- #

def _cache_state(caches):
    """Hierarchy state bundle ``cs`` + views + flush/writeback closure."""
    views = [level.array_view() for level in caches.levels]
    v1, v2, v3 = views
    cp = np.array([v1.line_shift, v1.num_sets, v1.assoc, v1.latency,
                   v2.line_shift, v2.num_sets, v2.assoc, v2.latency,
                   v3.line_shift, v3.num_sets, v3.assoc, v3.latency,
                   caches.memory_latency], dtype=np.int64)
    cc = np.zeros(7, dtype=np.int64)
    cs = (v1.tags, v1.nvalid, v2.tags, v2.nvalid, v3.tags, v3.nvalid,
          cp, cc)

    def finish(_w, _m):
        for view, hit_i, miss_i in ((v1, 0, 3), (v2, 1, 4), (v3, 2, 5)):
            view.stats.hits += int(cc[hit_i])
            view.stats.misses += int(cc[miss_i])
        caches.memory_accesses += int(cc[6])
        for view in views:
            view.writeback()

    return cs, views, finish


def _pwc_state(pwc):
    """PWC state bundle ``ps`` + flush/writeback closure."""
    view = pwc.array_view()
    pcnt = np.zeros(2, dtype=np.int64)
    pshift = view.key_shifts - PAGE_SHIFT
    ps = (view.keys, view.vals, view.sizes, view.capacities, pshift,
          pcnt, view.accept, view.credit)

    def finish(_w, _m):
        view.stats.hits += int(pcnt[0])
        view.stats.misses += int(pcnt[1])
        view.writeback()

    return ps, finish


def _npwc_state(npwc):
    """Nested-PWC state bundle ``ns`` + flush/writeback closure."""
    view = npwc.array_view()
    ncnt = np.zeros(2, dtype=np.int64)
    nflt = np.array([view.accept, view.credit[0]], dtype=np.float64)
    ns = (view.keys, view.vals, view.meta, ncnt, nflt)

    def finish(_w, _m):
        view.stats.hits += int(ncnt[0])
        view.stats.misses += int(ncnt[1])
        view.credit[0] = nflt[1]
        view.writeback()

    return ns, finish


def _cwc_state(cwc):
    """CWC state bundle ``ws`` + closure; empty dummy when ``cwc=None``."""
    if cwc is None:
        ws = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
              np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))
        return ws, None
    view = cwc.array_view()
    ccnt = np.zeros(2, dtype=np.int64)
    ws = (view.keys, view.ways, view.meta, ccnt)

    def finish(_w, _m):
        cwc.hits += int(ccnt[0])
        cwc.misses += int(ccnt[1])
        view.writeback()

    return ws, finish


# --------------------------------------------------------------------- #
# Plan flattening (vec planners -> int64 arrays)
# --------------------------------------------------------------------- #

def _flatten_radix_native(plan, uniq_ordered):
    """Flatten a :func:`walk_vec._build_radix_native_columns` plan."""
    slots, columns = plan[:2]
    n = len(uniq_ordered)
    row_base = np.empty(n, dtype=np.int64)
    chain_len = np.empty(n, dtype=np.int64)
    for p, vpn in enumerate(uniq_ordered):
        base, clen = slots[vpn]
        row_base[p] = base
        chain_len[p] = clen
    cols = tuple(_ia(col) for col in columns)
    return row_base, chain_len, cols


def _flatten_radix_nested(plans, uniq_ordered):
    e_start: List[int] = []
    e_count: List[int] = []
    e_gfn: List[int] = []
    e_hfn: List[int] = []
    e_gpte: List[int] = []
    e_fo: List[int] = []
    e_fk: List[int] = []
    e_fv: List[int] = []
    e_rs: List[int] = []
    e_rc: List[int] = []
    d_idx: List[int] = []
    d_gfn: List[int] = []
    d_hfn: List[int] = []
    d_rs: List[int] = []
    d_rc: List[int] = []
    haddrs: List[int] = []
    chain_pos: dict = {}

    def chain(hsteps):
        pos = chain_pos.get(hsteps)
        if pos is None:
            pos = len(haddrs)
            haddrs.extend(hsteps)
            chain_pos[hsteps] = pos
        return pos

    for vpn in uniq_ordered:
        entries, data = plans[vpn]
        e_start.append(len(e_gfn))
        e_count.append(len(entries))
        for gfn, hfn, hsteps, gpte_hpa, fill, _gtag, _htags in entries:
            e_gfn.append(gfn)
            e_hfn.append(hfn)
            e_gpte.append(gpte_hpa)
            if fill is None:
                e_fo.append(-1)
                e_fk.append(0)
                e_fv.append(0)
            else:
                offset, key, value = fill
                e_fo.append(offset)
                e_fk.append(key)
                e_fv.append(value)
            e_rs.append(chain(hsteps))
            e_rc.append(len(hsteps))
        if data is None:
            d_idx.append(-1)
        else:
            dgfn, dhfn, dsteps, _dtags = data
            d_idx.append(len(d_gfn))
            d_gfn.append(dgfn)
            d_hfn.append(dhfn)
            d_rs.append(chain(dsteps))
            d_rc.append(len(dsteps))
    plan = tuple(_ia(x) for x in (
        e_start, e_count, e_gfn, e_hfn, e_gpte, e_fo, e_fk, e_fv, e_rs,
        e_rc, d_idx, d_gfn, d_hfn, d_rs, d_rc))
    return plan, _ia(haddrs)


def _flatten_dmt(plans, uniq_ordered, fallback_vpns):
    fb_rows = {vpn: row for row, vpn in enumerate(fallback_vpns)}
    fell: List[int] = []
    dh: List[int] = []
    dfb: List[int] = []
    g_start: List[int] = []
    g_count: List[int] = []
    ga_start: List[int] = []
    ga_count: List[int] = []
    gaddrs: List[int] = []
    fb_pidx: List[int] = []
    for vpn in uniq_ordered:
        fell_back, groups, d_hits, d_fallbacks = plans[vpn]
        fell.append(1 if fell_back else 0)
        dh.append(d_hits)
        dfb.append(d_fallbacks)
        g_start.append(len(ga_start))
        g_count.append(len(groups))
        for addrs, _tags in groups:
            ga_start.append(len(gaddrs))
            ga_count.append(len(addrs))
            gaddrs.extend(addrs)
        fb_pidx.append(fb_rows.get(vpn, -1))
    dplan = tuple(_ia(x) for x in (
        fell, dh, dfb, g_start, g_count, ga_start, ga_count, fb_pidx))
    return dplan, _ia(gaddrs)


def _flatten_ops(plans, uniq_ordered):
    base_cycles: List[int] = []
    op_start: List[int] = []
    op_count: List[int] = []
    rows: List[tuple] = []
    cand_addr: List[int] = []
    cand_crit: List[int] = []
    for vpn in uniq_ordered:
        base, ops = plans[vpn]
        base_cycles.append(base)
        op_start.append(len(rows))
        op_count.append(len(ops))
        for op in ops:
            code = op[0]
            if code == 2:
                _c, addrs, dead = op
                rows.append((2, 0, 0, 0, 0, len(cand_addr), len(addrs),
                             dead))
                cand_addr.extend(addrs)
                cand_crit.extend([0] * len(addrs))
            elif code == 3:
                rows.append((3, op[1], op[2], 0, 0, 0, 0, 0))
            elif code == 4:
                _c, has_hit, ckey, hit_way, hit_addr, _tag, cands, dead = op
                cstart = len(cand_addr)
                for addr, _t, crit in cands:
                    cand_addr.append(addr)
                    cand_crit.append(1 if crit else 0)
                if has_hit:
                    enc = (ckey[1] << 6) | ckey[0]
                    rows.append((4, 1, enc, hit_way, hit_addr, cstart,
                                 len(cands), dead))
                else:
                    rows.append((4, 0, 0, -1, 0, cstart, len(cands), dead))
            else:  # 0 charge / 1 fetch: one operand
                rows.append((code, op[1], 0, 0, 0, 0, 0, 0))
    ops_arr = _ia(rows).reshape(-1, 8)
    return (_ia(base_cycles), _ia(op_start), _ia(op_count), ops_arr,
            _ia(cand_addr), _ia(cand_crit))


def _flatten_agile(plans, uniq_ordered):
    ch_start: List[int] = []
    ch_count: List[int] = []
    c_addr: List[int] = []
    c_fo: List[int] = []
    c_fk: List[int] = []
    c_fv: List[int] = []
    leaf_addr: List[int] = []
    d_idx: List[int] = []
    d_gfn: List[int] = []
    d_hfn: List[int] = []
    d_rs: List[int] = []
    d_rc: List[int] = []
    haddrs: List[int] = []
    chain_pos: dict = {}
    for vpn in uniq_ordered:
        chain_rows, leaf, data = plans[vpn]
        ch_start.append(len(c_addr))
        ch_count.append(len(chain_rows))
        for addr, _tag, fill in chain_rows:
            c_addr.append(addr)
            if fill is None:
                c_fo.append(-1)
                c_fk.append(0)
                c_fv.append(0)
            else:
                offset, key, value = fill
                c_fo.append(offset)
                c_fk.append(key)
                c_fv.append(value)
        if leaf is None:
            leaf_addr.append(-1)
            d_idx.append(-1)
        else:
            leaf_addr.append(leaf[0])
            dgfn, dhfn, dsteps, _dtags = data
            pos = chain_pos.get(dsteps)
            if pos is None:
                pos = len(haddrs)
                haddrs.extend(dsteps)
                chain_pos[dsteps] = pos
            d_idx.append(len(d_gfn))
            d_gfn.append(dgfn)
            d_hfn.append(dhfn)
            d_rs.append(pos)
            d_rc.append(len(dsteps))
    plan = tuple(_ia(x) for x in (
        ch_start, ch_count, c_addr, c_fo, c_fk, c_fv, leaf_addr,
        d_idx, d_gfn, d_hfn, d_rs, d_rc))
    return plan, _ia(haddrs)


def _flatten_prefetch(pf_plans, uniq_ordered):
    pf_start: List[int] = []
    pf_count: List[int] = []
    pf_addr: List[int] = []
    for vpn in uniq_ordered:
        addrs = pf_plans[vpn]
        pf_start.append(len(pf_addr))
        pf_count.append(len(addrs))
        pf_addr.extend(addrs)
    return _ia(pf_start), _ia(pf_count), _ia(pf_addr)


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def replay_walks_native(
    walker: Walker,
    miss_vas,
    warmup_fraction: float = 0.1,
    collect_steps: bool = False,
    chunk: int = walk_vec.DEFAULT_CHUNK,
):
    """Native-kernel stage 2: replay a miss stream, bit-identical to scalar.

    Oracle: :func:`repro.sim.simulator.replay_walks` with
    ``engine="scalar"`` — same ``WalkStats`` (cycles, refs, fallbacks),
    same post-replay cache/PWC/CWC/walker state; the vec engine's
    planners supply the address streams, the compiled kernels replay
    the state machine. ``chunk`` is accepted for signature parity with
    :func:`~repro.sim.walk_vec.replay_walks_vec`; kernels process whole
    warmup/measured ranges (their counters live in arrays, nothing
    needs a per-chunk flush). Raises ``ValueError`` for unsupported
    walkers, exactly like the vec engine.
    """
    from repro.sim.simulator import WalkStats

    reason = walk_vec.unsupported_reason(walker)
    if reason is not None:
        raise ValueError(
            f"walker {walker.name!r} has no batched replay path: {reason} "
            "(use the scalar engine)")
    memsys: MemorySubsystem = walker.memsys
    if collect_steps and memsys.record_refs:
        stats = walk_vec.replay_walks_vec(
            walker, miss_vas, warmup_fraction=warmup_fraction,
            collect_steps=True, chunk=chunk)
        stats.engine = "native"
        stats.fallback_reason = STEP_COLLECTION_REASON
        return stats

    spec = walker.batch_spec()
    vas = np.asarray(miss_vas, dtype=np.int64)
    stats = WalkStats(design=walker.name, engine="native")
    total = int(vas.size)
    if total == 0:
        return stats
    vpns = vas >> PAGE_SHIFT

    # Unique VPNs in first-occurrence order (planning must touch lazily
    # populated structures in the scalar loop's order) + the per-miss
    # plan-row index.
    uniq, first_index, inverse = np.unique(
        vpns, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    uniq_ordered = uniq[order].tolist()
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size, dtype=np.int64)
    pidx = np.ascontiguousarray(rank[inverse.reshape(-1)], dtype=np.int64)

    with _gc_paused():
        cs, cache_views, cache_fin = _cache_state(memsys.caches)
        finishers = [cache_fin]
        pwc_latency = memsys.pwc_latency
        kind = spec.kind
        out_len = 3

        if kind in ("radix-native", "radix-nested"):
            if kind == "radix-native":
                pwc = memsys.pwc
                ps, ps_fin = _pwc_state(pwc)
                finishers.append(ps_fin)
                row_base, chain_len, cols = _flatten_radix_native(
                    walk_vec._build_radix_native_columns(
                        spec.page_table, pwc.top_level, int(ps[2].shape[0]),
                        uniq_ordered, cache_views), uniq_ordered)

                def run_range(lo, hi, out):
                    radix_native_chunk(vpns, pidx, lo, hi, row_base,
                                       chain_len, cols, ps, cs,
                                       pwc_latency, out)
            else:
                pwc = memsys.guest_pwc
                ps, ps_fin = _pwc_state(pwc)
                ns, ns_fin = _npwc_state(memsys.nested_pwc)
                finishers.extend((ps_fin, ns_fin))
                plans = walk_vec._build_radix_nested_plans(
                    spec.guest_pt, spec.vm, pwc.top_level,
                    int(ps[2].shape[0]), uniq_ordered, False)
                plan, haddrs = _flatten_radix_nested(plans, uniq_ordered)

                def run_range(lo, hi, out):
                    radix_nested_chunk(vpns, pidx, lo, hi, plan, haddrs,
                                       ps, ns, cs, pwc_latency, out)

        elif kind == "dmt":
            plans, fallback_vpns = walk_vec._build_dmt_plans(
                spec, uniq_ordered, False)
            dplan, gaddrs = _flatten_dmt(plans, uniq_ordered,
                                         fallback_vpns)
            fb_spec = spec.fallback.batch_spec()
            if fb_spec.kind == "radix-native":
                pwc = memsys.pwc
                ps, ps_fin = _pwc_state(pwc)
                finishers.append(ps_fin)
                fb_row_base, fb_chain_len, fb_cols = _flatten_radix_native(
                    walk_vec._build_radix_native_columns(
                        fb_spec.page_table, pwc.top_level,
                        int(ps[2].shape[0]), fallback_vpns, cache_views),
                    fallback_vpns)

                def run_range(lo, hi, out):
                    dmt_native_chunk(vpns, pidx, lo, hi, dplan, gaddrs,
                                     fb_row_base, fb_chain_len, fb_cols,
                                     ps, cs, pwc_latency, out)
            else:
                pwc = memsys.guest_pwc
                ps, ps_fin = _pwc_state(pwc)
                ns, ns_fin = _npwc_state(memsys.nested_pwc)
                finishers.extend((ps_fin, ns_fin))
                fb_plans = walk_vec._build_radix_nested_plans(
                    fb_spec.guest_pt, fb_spec.vm, pwc.top_level,
                    int(ps[2].shape[0]), fallback_vpns, False)
                fb_plan, fb_haddrs = _flatten_radix_nested(
                    fb_plans, fallback_vpns)

                def run_range(lo, hi, out):
                    dmt_nested_chunk(vpns, pidx, lo, hi, dplan, gaddrs,
                                     fb_plan, fb_haddrs, ps, ns, cs,
                                     pwc_latency, out)

            fetcher = spec.fetcher
            credit_targets = (spec.fallback,) + tuple(
                fb_spec.extra_walkers)

            def dmt_fin(w, m):
                fetcher.hits += int(w[3] + m[3])
                fetcher.fallbacks += int(w[4] + m[4])
                for target in credit_targets:
                    target.walks += int(w[5] + m[5])
                    target.total_cycles += int(w[6] + m[6])

            finishers.append(dmt_fin)
            out_len = 7

        elif kind in ("ecpt-native", "ecpt-nested", "fpt-native",
                      "fpt-nested"):
            planner = {
                "ecpt-native": walk_vec._build_ecpt_native_plans,
                "ecpt-nested": walk_vec._build_ecpt_nested_plans,
                "fpt-native": walk_vec._build_fpt_native_plans,
                "fpt-nested": walk_vec._build_fpt_nested_plans,
            }[kind]
            plans = planner(spec, uniq_ordered, False, memsys.caches)
            (base_cycles, op_start, op_count, ops_arr, cand_addr,
             cand_crit) = _flatten_ops(plans, uniq_ordered)
            ws, ws_fin = _cwc_state(spec.cwc)
            if ws_fin is not None:
                finishers.append(ws_fin)

            def run_range(lo, hi, out):
                ops_chunk(vpns, pidx, lo, hi, base_cycles, op_start,
                          op_count, ops_arr, cand_addr, cand_crit, ws,
                          cs, out)

        elif kind == "agile":
            pwc = memsys.pwc
            ps, ps_fin = _pwc_state(pwc)
            ns, ns_fin = _npwc_state(memsys.nested_pwc)
            finishers.extend((ps_fin, ns_fin))
            top_level = pwc.top_level
            chain_top = min(top_level, spec.guest_pt.levels)
            plans = walk_vec._build_agile_plans(
                spec, top_level, int(ps[2].shape[0]), uniq_ordered, False)
            plan, haddrs = _flatten_agile(plans, uniq_ordered)

            def run_range(lo, hi, out):
                agile_chunk(vpns, pidx, lo, hi, plan, haddrs, ps, ns, cs,
                            pwc_latency, chain_top, top_level, out)

        elif kind in ("asap-native", "asap-nested"):
            inner_spec, plan, pf_plans = walk_vec._plan_asap(
                spec, memsys, uniq_ordered, cache_views, False)
            pf_start, pf_count, pf_addr = _flatten_prefetch(
                pf_plans, uniq_ordered)
            if kind == "asap-native":
                chain_hop = 0
                ps, ps_fin = _pwc_state(memsys.pwc)
                finishers.append(ps_fin)
                row_base, chain_len, cols = _flatten_radix_native(
                    plan, uniq_ordered)

                def run_range(lo, hi, out):
                    asap_native_chunk(vpns, pidx, lo, hi, pf_start,
                                      pf_count, pf_addr, row_base,
                                      chain_len, cols, ps, cs,
                                      pwc_latency, chain_hop, out)
            else:
                chain_hop = walker.CHAIN_HOP_CYCLES
                ps, ps_fin = _pwc_state(memsys.guest_pwc)
                ns, ns_fin = _npwc_state(memsys.nested_pwc)
                finishers.extend((ps_fin, ns_fin))
                nested_plan, haddrs = _flatten_radix_nested(plan,
                                                            uniq_ordered)

                def run_range(lo, hi, out):
                    asap_nested_chunk(vpns, pidx, lo, hi, pf_start,
                                      pf_count, pf_addr, nested_plan,
                                      haddrs, ps, ns, cs, pwc_latency,
                                      chain_hop, out)
            del plan, pf_plans   # flattened: only the arrays live on

            inner = spec.inner

            def asap_fin(w, m):
                inner.walks += int(w[3] + m[3])
                inner.total_cycles += int(w[4] + m[4])
                walker.prefetches += int(w[5] + m[5])

            finishers.append(asap_fin)
            out_len = 6

        else:  # pragma: no cover - guarded by unsupported_reason
            raise ValueError(f"unknown batch-spec kind {kind!r}")

        warmup = int(total * warmup_fraction)
        out_warm = np.zeros(out_len, dtype=np.int64)
        out_meas = np.zeros(out_len, dtype=np.int64)
        if warmup > 0:
            run_range(0, warmup, out_warm)
        if warmup < total:
            run_range(warmup, total, out_meas)
    stats.walks = total - warmup
    stats.total_cycles = int(out_meas[0])
    stats.ref_count = int(out_meas[1]) if memsys.record_refs else 0
    stats.fallbacks = int(out_meas[2])
    for finish in finishers:
        finish(out_warm, out_meas)
    all_cycles = int(out_warm[0] + out_meas[0])
    all_fallbacks = int(out_warm[2] + out_meas[2])
    for target in (walker,) + tuple(spec.extra_walkers):
        target.walks += total
        target.total_cycles += all_cycles
        target.fallbacks += all_fallbacks
    return stats
