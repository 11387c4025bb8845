"""Design-specific chunk kernels: DMT/pvDMT, ECPT/FPT ops, Agile, ASAP.

Output accumulator layouts (``out``):

- DMT:   ``[cycles, refs, fallbacks, fetcher_hits, fetcher_fallbacks,
  fb_walks, fb_cycles]`` — the last two mirror onto the fallback
  walker's own counters (the scalar loop records through it first).
- ops (ECPT/FPT): ``[cycles, refs, fallbacks]``.
- Agile: ``[cycles, refs, fallbacks]``.
- ASAP:  ``[cycles, refs, fallbacks, inner_walks, inner_cycles,
  prefetches]``.
"""

from __future__ import annotations

from repro.sim.kernels.backend import jit
from repro.sim.kernels.primitives import (
    cache_access,
    cache_probe,
    cwc_get,
    cwc_put,
    npwc_resolve,
    pwc_fill,
    pwc_probe,
)
from repro.sim.kernels.radix import _radix_native_walk, _radix_nested_walk


@jit
def dmt_native_chunk(vpns, pidx, lo, hi, dplan, gaddrs, fb_row_base,
                     fb_chain_len, fb_cols, ps, cs, pwc_latency, out):
    """Replay misses ``[lo, hi)`` of DMT with a radix-*native* fallback.

    Oracle: the scalar ``DMTWalker._run`` — register hit: each captured
    fetch group charges its slowest member sequentially; register miss:
    the attempt's cache traffic applies with cycles discarded, then the
    radix fallback walk supplies the result (as replayed by
    ``walk_vec._make_dmt_runner``).
    """
    fell, dh, dfb, g_start, g_count, ga_start, ga_count, fb_pidx = dplan
    for i in range(lo, hi):
        vpn = vpns[i]
        p = pidx[i]
        out[3] += dh[p]
        out[4] += dfb[p]
        gs = g_start[p]
        ge = gs + g_count[p]
        if fell[p] != 0:
            for g in range(gs, ge):
                for t in range(ga_start[g], ga_start[g] + ga_count[g]):
                    cache_access(cs, gaddrs[t])  # cycles discarded
            c, r = _radix_native_walk(vpn, fb_pidx[p], fb_row_base,
                                      fb_chain_len, fb_cols, ps, cs,
                                      pwc_latency)
            out[0] += c
            out[1] += r
            out[2] += 1
            out[5] += 1
            out[6] += c
        else:
            cycles = 0
            nrefs = 0
            for g in range(gs, ge):
                gmax = 0
                for t in range(ga_start[g], ga_start[g] + ga_count[g]):
                    latency = cache_access(cs, gaddrs[t])
                    if latency > gmax:
                        gmax = latency
                cycles += gmax
                nrefs += ga_count[g]
            out[0] += cycles
            out[1] += nrefs


@jit
def dmt_nested_chunk(vpns, pidx, lo, hi, dplan, gaddrs, fb_plan, fb_haddrs,
                     ps, ns, cs, pwc_latency, out):
    """Replay misses ``[lo, hi)`` of DMT with a radix-*nested* fallback.

    Oracle: the scalar ``DMTWalker._run`` with a 2D fallback walk, as
    replayed by ``walk_vec._make_dmt_runner`` over a nested fallback
    spec.
    """
    fell, dh, dfb, g_start, g_count, ga_start, ga_count, fb_pidx = dplan
    for i in range(lo, hi):
        vpn = vpns[i]
        p = pidx[i]
        out[3] += dh[p]
        out[4] += dfb[p]
        gs = g_start[p]
        ge = gs + g_count[p]
        if fell[p] != 0:
            for g in range(gs, ge):
                for t in range(ga_start[g], ga_start[g] + ga_count[g]):
                    cache_access(cs, gaddrs[t])  # cycles discarded
            c, r = _radix_nested_walk(vpn, fb_pidx[p], fb_plan, fb_haddrs,
                                      ps, ns, cs, pwc_latency)
            out[0] += c
            out[1] += r
            out[2] += 1
            out[5] += 1
            out[6] += c
        else:
            cycles = 0
            nrefs = 0
            for g in range(gs, ge):
                gmax = 0
                for t in range(ga_start[g], ga_start[g] + ga_count[g]):
                    latency = cache_access(cs, gaddrs[t])
                    if latency > gmax:
                        gmax = latency
                cycles += gmax
                nrefs += ga_count[g]
            out[0] += cycles
            out[1] += nrefs


@jit
def ops_chunk(vpns, pidx, lo, hi, base_cycles, op_start, op_count, ops,
              cand_addr, cand_crit, ws, cs, out):
    """Replay misses ``[lo, hi)`` of an op-program design (ECPT / FPT).

    Oracle: ``walk_vec._make_ops_runner``'s interpreter over the scalar
    ``WalkRecorder`` episode semantics — opcode 0 charge (closes the
    open group), 1 sequential fetch, 2 probe run, 3 grouped fetch
    (episode costs its slowest member), 4 ECPT probe step with the live
    cuckoo-walk-cache prediction replayed via
    :func:`~repro.sim.kernels.primitives.cwc_get`/``cwc_put``. The
    folded probes that can only miss (opcodes 2 and 4's ``g``) add to
    the L1/L2/LLC miss and memory-access counters once per range.

    Op rows are ``[code, a, b, c, d, e, f, g]``: fetch ``a`` = addr;
    grouped ``a`` = gid, ``b`` = addr; charge ``a`` = cycles; probe
    step ``a`` = has_hit, ``b`` = packed CWC key, ``c`` = true way,
    ``d`` = hit addr; probe runs and probe steps ``e``/``f`` = live
    candidate start/count into ``cand_addr``/``cand_crit`` and ``g`` =
    dead probe count.
    """
    dead = 0
    for i in range(lo, hi):
        p = pidx[i]
        cycles = base_cycles[p]
        nrefs = 0
        open_gid = -1
        gmax = 0
        for o in range(op_start[p], op_start[p] + op_count[p]):
            code = ops[o, 0]
            if code == 1:
                if open_gid >= 0:
                    cycles += gmax
                    open_gid = -1
                    gmax = 0
                cycles += cache_access(cs, ops[o, 1])
                nrefs += 1
            elif code == 2:
                for t in range(ops[o, 5], ops[o, 5] + ops[o, 6]):
                    cache_probe(cs, cand_addr[t])
                dead += ops[o, 7]
            elif code == 3:
                gid = ops[o, 1]
                if gid != open_gid:
                    if open_gid >= 0:
                        cycles += gmax
                    open_gid = gid
                    gmax = 0
                latency = cache_access(cs, ops[o, 2])
                if latency > gmax:
                    gmax = latency
                nrefs += 1
            elif code == 4:
                if ops[o, 1] != 0:
                    predicted = cwc_get(ws, ops[o, 2])
                    if predicted == ops[o, 3]:
                        # CWC hit: single targeted probe
                        if open_gid >= 0:
                            cycles += gmax
                            open_gid = -1
                            gmax = 0
                        cycles += cache_access(cs, ops[o, 4])
                        nrefs += 1
                        continue
                    # mispredict: install the true way, fan out
                    cwc_put(ws, ops[o, 2], ops[o, 3])
                    for t in range(ops[o, 5], ops[o, 5] + ops[o, 6]):
                        if cand_crit[t] != 0:
                            if open_gid >= 0:
                                cycles += gmax
                                open_gid = -1
                                gmax = 0
                            cycles += cache_access(cs, cand_addr[t])
                            nrefs += 1
                        else:
                            cache_probe(cs, cand_addr[t])
                else:
                    # full miss: probe every candidate, completion waits
                    # for the slowest (grouped first-candidate fetch)
                    for t in range(ops[o, 5], ops[o, 5] + ops[o, 6]):
                        cache_probe(cs, cand_addr[t])
                    if open_gid != 0:
                        if open_gid >= 0:
                            cycles += gmax
                        open_gid = 0
                        gmax = 0
                    latency = cache_access(cs, cand_addr[ops[o, 5]])
                    if latency > gmax:
                        gmax = latency
                    nrefs += 1
                dead += ops[o, 7]
            else:  # code == 0: charge
                if open_gid >= 0:
                    cycles += gmax
                    open_gid = -1
                    gmax = 0
                cycles += ops[o, 1]
        if open_gid >= 0:
            cycles += gmax
        out[0] += cycles
        out[1] += nrefs
    cc = cs[7]
    cc[3] += dead
    cc[4] += dead
    cc[5] += dead
    cc[6] += dead


@jit
def agile_chunk(vpns, pidx, lo, hi, plan, haddrs, ps, ns, cs, pwc_latency,
                chain_top, top_level, out):
    """Replay misses ``[lo, hi)`` of Agile Paging.

    Oracle: the scalar ``AgileWalker.translate`` — host-PWC-probed
    shadow chain (with the dead-PTE descent quirk baked into the plan
    rows), one guest-leaf fetch, then the nested-PWC consult + host
    chain for the data page, as replayed by
    ``walk_vec._make_agile_runner``.
    """
    (ch_start, ch_count, c_addr, c_fo, c_fk, c_fv, leaf_addr,
     d_idx, d_gfn, d_hfn, d_rs, d_rc) = plan
    for i in range(lo, hi):
        vpn = vpns[i]
        p = pidx[i]
        cycles = pwc_latency
        nrefs = 0
        start = pwc_probe(ps, vpn)
        lvl = top_level - start
        if lvl > chain_top:
            lvl = chain_top
        j = ch_start[p] + (chain_top - lvl)
        end = ch_start[p] + ch_count[p]
        while j < end:
            cycles += cache_access(cs, c_addr[j])
            nrefs += 1
            if c_fo[j] >= 0:
                pwc_fill(ps, c_fo[j], c_fk[j], c_fv[j])
            j += 1
        if leaf_addr[p] >= 0:
            cycles += cache_access(cs, leaf_addr[p])
            nrefs += 1
            d = d_idx[p]
            dc, dr = npwc_resolve(ns, cs, d_gfn[d], d_hfn[d], d_rs[d],
                                  d_rc[d], haddrs)
            cycles += dc
            nrefs += dr
        out[0] += cycles
        out[1] += nrefs


@jit
def asap_native_chunk(vpns, pidx, lo, hi, pf_start, pf_count, pf_addr,
                      row_base, chain_len, cols, ps, cs, pwc_latency,
                      chain_hop, out):
    """Replay misses ``[lo, hi)`` of ASAP over a native radix walk.

    Oracle: the scalar ``ASAPWalker.translate`` — charge the prefetch
    accesses through the shared hierarchy (refs not counted), then the
    inner radix walk; the walk costs ``max(prefetch completion,
    inner)``, as replayed by ``walk_vec._make_asap_runner``.
    """
    for i in range(lo, hi):
        vpn = vpns[i]
        p = pidx[i]
        worst = 0
        for t in range(pf_start[p], pf_start[p] + pf_count[p]):
            latency = cache_access(cs, pf_addr[t])
            if latency > worst:
                worst = latency
        out[5] += pf_count[p]
        if worst > 0 and chain_hop > 0:
            worst += chain_hop
        c, r = _radix_native_walk(vpn, p, row_base, chain_len, cols, ps,
                                  cs, pwc_latency)
        out[3] += 1
        out[4] += c
        if worst > c:
            c = worst
        out[0] += c
        out[1] += r


@jit
def asap_nested_chunk(vpns, pidx, lo, hi, pf_start, pf_count, pf_addr,
                      plan, haddrs, ps, ns, cs, pwc_latency, chain_hop,
                      out):
    """Replay misses ``[lo, hi)`` of ASAP over a nested radix walk.

    Oracle: the scalar nested ``ASAPWalker.translate`` — prefetch
    charging plus ``CHAIN_HOP_CYCLES`` when any prefetch issued, around
    the inner 2D walk, as replayed by ``walk_vec._make_asap_runner``.
    """
    for i in range(lo, hi):
        vpn = vpns[i]
        p = pidx[i]
        worst = 0
        for t in range(pf_start[p], pf_start[p] + pf_count[p]):
            latency = cache_access(cs, pf_addr[t])
            if latency > worst:
                worst = latency
        out[5] += pf_count[p]
        if worst > 0 and chain_hop > 0:
            worst += chain_hop
        c, r = _radix_nested_walk(vpn, p, plan, haddrs, ps, ns, cs,
                                  pwc_latency)
        out[3] += 1
        out[4] += c
        if worst > c:
            c = worst
        out[0] += c
        out[1] += r
