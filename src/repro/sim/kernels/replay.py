"""The native kernel backend of the batched replay: plan/state flattening.

:func:`_kernel_replayer` is the kernels' half of
:func:`repro.sim.walk_vec.replay_batched`. That frame plans each unique
VPN through the vec planners (same first-occurrence order, same lazy
first-touch side effects); this module flattens the plan into int64
arrays and replays the history-dependent state (cache LRU sets, PWC
tables, credit counters, the ECPT cuckoo-walk cache) inside the compiled
chunk kernels of :mod:`repro.sim.kernels.radix` /
:mod:`repro.sim.kernels.designs` over ``array_view()`` snapshots.

Bit-identity contract: identical ``WalkStats`` and identical
post-replay cache/PWC/CWC/walker state versus the scalar oracle, on
both backends (``tests/test_walk_vec.py`` parametrizes the parity
suite over the vec and native backends; the no-numba CI leg pins the
pure-Python kernels). The kernels carry no step tags, so a
step-collecting replay runs on the vec runners.

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

from typing import Callable, List

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
from repro.translation.base import BatchSpec, MemorySubsystem, Walker


def _ia(seq) -> np.ndarray:
    return np.asarray(seq, dtype=np.int64)


# --------------------------------------------------------------------- #
# array_view() state bundles + writeback/flush closures
# --------------------------------------------------------------------- #

def _cache_state(caches):
    """Hierarchy state bundle ``cs`` + flush/writeback closure."""
    views = [level.array_view() for level in caches.levels]
    v1, v2, v3 = views
    cp = np.array([v1.line_shift, v1.num_sets, v1.assoc, v1.latency,
                   v2.line_shift, v2.num_sets, v2.assoc, v2.latency,
                   v3.line_shift, v3.num_sets, v3.assoc, v3.latency,
                   caches.memory_latency], dtype=np.int64)
    cc = np.zeros(7, dtype=np.int64)
    cs = (v1.tags, v1.nvalid, v2.tags, v2.nvalid, v3.tags, v3.nvalid,
          cp, cc)

    def finish():
        for view, hit_i, miss_i in ((v1, 0, 3), (v2, 1, 4), (v3, 2, 5)):
            view.stats.hits += int(cc[hit_i])
            view.stats.misses += int(cc[miss_i])
        caches.memory_accesses += int(cc[6])
        for view in views:
            view.writeback()

    return cs, finish


def _pwc_state(pwc):
    """PWC state bundle ``ps`` + flush/writeback closure."""
    view = pwc.array_view()
    pcnt = np.zeros(2, dtype=np.int64)
    pshift = view.key_shifts - PAGE_SHIFT
    ps = (view.keys, view.vals, view.sizes, view.capacities, pshift,
          pcnt, view.accept, view.credit)

    def finish():
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

    def finish():
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

    def finish():
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
# Entry points
# --------------------------------------------------------------------- #

def _kernel_replayer(walker: Walker, spec: BatchSpec,
                     memsys: MemorySubsystem, plan, uniq_ordered: List[int],
                     vpns: np.ndarray, order: np.ndarray,
                     inverse: np.ndarray,
                     finalizers: List[Callable[[], None]]):
    """The kernel backend of :func:`~repro.sim.walk_vec.replay_batched`.

    Flattens ``plan`` (the frame's planner output for ``spec.kind``),
    checks out this walker's state as ``array_view()`` bundles and
    appends their writebacks to ``finalizers``. ``order`` sorts the
    unique VPNs into first-occurrence order and ``inverse`` maps each
    miss to its unique VPN, so each miss gets its plan row. Returns
    ``replay(lo, hi, _step_cycles) -> (cycles, refs, fallbacks)``; a
    kernel runs each range whole (its counters live in arrays, nothing
    needs a per-chunk flush).
    """
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    pidx = np.ascontiguousarray(rank[inverse.reshape(-1)], dtype=np.int64)
    cs, cache_fin = _cache_state(memsys.caches)
    finalizers.append(cache_fin)
    pwc_latency = memsys.pwc_latency
    kind = spec.kind
    out_len = 3   # cycles, refs, fallbacks; then the design's counters

    if kind == "radix-native":
        ps, ps_fin = _pwc_state(memsys.pwc)
        finalizers.append(ps_fin)
        row_base, chain_len, cols = _flatten_radix_native(plan,
                                                          uniq_ordered)

        def run_range(lo, hi, out):
            radix_native_chunk(vpns, pidx, lo, hi, row_base, chain_len,
                               cols, ps, cs, pwc_latency, out)

    elif kind == "radix-nested":
        ps, ps_fin = _pwc_state(memsys.guest_pwc)
        ns, ns_fin = _npwc_state(memsys.nested_pwc)
        finalizers.extend((ps_fin, ns_fin))
        nested_plan, haddrs = _flatten_radix_nested(plan, uniq_ordered)

        def run_range(lo, hi, out):
            radix_nested_chunk(vpns, pidx, lo, hi, nested_plan, haddrs, ps,
                               ns, cs, pwc_latency, out)

    elif kind == "dmt":
        plans, fallback_vpns, fb_spec, fb_plan = plan
        dplan, gaddrs = _flatten_dmt(plans, uniq_ordered, fallback_vpns)
        if fb_spec.kind == "radix-native":
            ps, ps_fin = _pwc_state(memsys.pwc)
            finalizers.append(ps_fin)
            fb_row_base, fb_chain_len, fb_cols = _flatten_radix_native(
                fb_plan, fallback_vpns)

            def run_range(lo, hi, out):
                dmt_native_chunk(vpns, pidx, lo, hi, dplan, gaddrs,
                                 fb_row_base, fb_chain_len, fb_cols,
                                 ps, cs, pwc_latency, out)
        else:
            ps, ps_fin = _pwc_state(memsys.guest_pwc)
            ns, ns_fin = _npwc_state(memsys.nested_pwc)
            finalizers.extend((ps_fin, ns_fin))
            fb_nested_plan, fb_haddrs = _flatten_radix_nested(
                fb_plan, fallback_vpns)

            def run_range(lo, hi, out):
                dmt_nested_chunk(vpns, pidx, lo, hi, dplan, gaddrs,
                                 fb_nested_plan, fb_haddrs, ps, ns, cs,
                                 pwc_latency, out)

        fetcher = spec.fetcher
        credit_targets = (spec.fallback,) + tuple(fb_spec.extra_walkers)

        def dmt_fin():
            fetcher.hits += int(acc[3])
            fetcher.fallbacks += int(acc[4])
            for target in credit_targets:
                target.walks += int(acc[5])
                target.total_cycles += int(acc[6])

        finalizers.append(dmt_fin)
        out_len = 7

    elif kind == "agile":
        ps, ps_fin = _pwc_state(memsys.pwc)
        ns, ns_fin = _npwc_state(memsys.nested_pwc)
        finalizers.extend((ps_fin, ns_fin))
        top_level = memsys.pwc.top_level
        chain_top = min(top_level, spec.guest_pt.levels)
        agile_plan, haddrs = _flatten_agile(plan, uniq_ordered)

        def run_range(lo, hi, out):
            agile_chunk(vpns, pidx, lo, hi, agile_plan, haddrs, ps, ns, cs,
                        pwc_latency, chain_top, top_level, out)

    elif kind in ("asap-native", "asap-nested"):
        _inner_spec, inner_plan, pf_plans = plan
        pf_start, pf_count, pf_addr = _flatten_prefetch(pf_plans,
                                                        uniq_ordered)
        if kind == "asap-native":
            ps, ps_fin = _pwc_state(memsys.pwc)
            finalizers.append(ps_fin)
            row_base, chain_len, cols = _flatten_radix_native(
                inner_plan, uniq_ordered)

            def run_range(lo, hi, out):
                asap_native_chunk(vpns, pidx, lo, hi, pf_start, pf_count,
                                  pf_addr, row_base, chain_len, cols, ps,
                                  cs, pwc_latency, 0, out)
        else:
            chain_hop = walker.CHAIN_HOP_CYCLES
            ps, ps_fin = _pwc_state(memsys.guest_pwc)
            ns, ns_fin = _npwc_state(memsys.nested_pwc)
            finalizers.extend((ps_fin, ns_fin))
            nested_plan, haddrs = _flatten_radix_nested(inner_plan,
                                                        uniq_ordered)

            def run_range(lo, hi, out):
                asap_nested_chunk(vpns, pidx, lo, hi, pf_start, pf_count,
                                  pf_addr, nested_plan, haddrs, ps, ns, cs,
                                  pwc_latency, chain_hop, out)

        inner = spec.inner

        def asap_fin():
            inner.walks += int(acc[3])
            inner.total_cycles += int(acc[4])
            walker.prefetches += int(acc[5])

        finalizers.append(asap_fin)
        out_len = 6

    else:  # the ECPT and FPT op programs
        (base_cycles, op_start, op_count, ops_arr, cand_addr,
         cand_crit) = _flatten_ops(plan, uniq_ordered)
        ws, ws_fin = _cwc_state(spec.cwc)
        if ws_fin is not None:
            finalizers.append(ws_fin)

        def run_range(lo, hi, out):
            ops_chunk(vpns, pidx, lo, hi, base_cycles, op_start, op_count,
                      ops_arr, cand_addr, cand_crit, ws, cs, out)

    acc = np.zeros(out_len, dtype=np.int64)   # every range's ``out``

    def replay(lo: int, hi: int, _step_cycles):
        out = np.zeros(out_len, dtype=np.int64)
        if lo < hi:
            run_range(lo, hi, out)
        acc[:] += out
        return int(out[0]), int(out[1]), int(out[2])

    return replay


def replay_walks_native(walker: Walker, miss_vas,
                        warmup_fraction: float = 0.1,
                        collect_steps: bool = False,
                        chunk: int = walk_vec.DEFAULT_CHUNK):
    """:func:`~repro.sim.walk_vec.replay_batched` on the kernels, numba
    or not (uncompiled they run the same source, DESIGN.md §11).

    Oracle: :func:`repro.sim.simulator.replay_walks` with
    ``engine="scalar"`` — same ``WalkStats``, same post-replay
    cache/PWC/CWC/walker state.
    """
    return walk_vec.replay_batched(walker, miss_vas, warmup_fraction,
                                   collect_steps, native=True, chunk=chunk)
