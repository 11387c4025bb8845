"""Jitted flat-array primitives shared by the per-design chunk kernels.

Each primitive replays one scalar structure operation over the flat
ndarray state produced by ``array_view()`` — LRU order is positional
(oldest at the segment start, MRU at the end), so a hit shifts the
entry to the back and an eviction drops index 0, exactly mirroring the
insertion-ordered dicts of the scalar/vec paths.

State bundles (tuples of ndarrays, statically indexed so Numba
specializes them):

- ``cs``  — cache hierarchy: ``(t1, n1, t2, n2, t3, n3, cp, cc)``.
  ``tN``/``nN`` are level N's tags (``int64[num_sets * assoc]``) and
  per-set live counts; ``cp`` packs the 13 int64 parameters
  ``[ls1, ns1, a1, lat1, ls2, ns2, a2, lat2, ls3, ns3, a3, lat3,
  mem_lat]``; ``cc`` holds the 7 counters
  ``[h1, h2, h3, m1, m2, m3, mem]`` flushed to stats afterwards.
- ``ps``  — page-walk cache:
  ``(keys2d, vals2d, sizes, caps, shifts, counters, accept, credit)``
  with ``shifts`` already VPN-relative; every hit runs the credit
  thinning (an unthinned level has rate 1.0).
- ``ns``  — nested PWC: ``(keys, vals, meta, counters, flt)`` with
  ``meta = [size, capacity]`` and ``flt = [accept_rate, credit]``.
- ``ws``  — cuckoo-walk cache: ``(keys, ways, meta, counters)`` with
  ``(size, group)`` keys packed as ``(group << 6) | size``.
"""

from __future__ import annotations

from repro.sim.kernels.backend import jit


@jit
def _seg_lookup(tags, nvalid, set_idx, assoc, line):
    """LRU lookup-and-touch inside one set's tag segment (hit -> True)."""
    base = set_idx * assoc
    n = nvalid[set_idx]
    for k in range(n):
        if tags[base + k] == line:
            for m in range(k, n - 1):
                tags[base + m] = tags[base + m + 1]
            tags[base + n - 1] = line
            return True
    return False


@jit
def _seg_install(tags, nvalid, set_idx, assoc, line):
    """LRU insert into one set's segment (refresh / evict-oldest)."""
    base = set_idx * assoc
    n = nvalid[set_idx]
    for k in range(n):
        if tags[base + k] == line:
            for m in range(k, n - 1):
                tags[base + m] = tags[base + m + 1]
            tags[base + n - 1] = line
            return
    if n >= assoc:
        for m in range(n - 1):
            tags[base + m] = tags[base + m + 1]
        tags[base + n - 1] = line
    else:
        tags[base + n] = line
        nvalid[set_idx] = n + 1


@jit
def cache_access(cs, addr):
    """One allocating hierarchy access; returns the round-trip latency.

    Oracle: ``CacheHierarchy.access`` (probe L1 -> L2 -> LLC -> MEM,
    LRU-touch the satisfying level, install into every missed level).
    """
    t1, n1, t2, n2, t3, n3, cp, cc = cs
    line1 = addr >> cp[0]
    idx1 = line1 % cp[1]
    if _seg_lookup(t1, n1, idx1, cp[2], line1):
        cc[0] += 1
        return cp[3]
    cc[3] += 1
    line2 = addr >> cp[4]
    idx2 = line2 % cp[5]
    if _seg_lookup(t2, n2, idx2, cp[6], line2):
        cc[1] += 1
        latency = cp[7]
    else:
        cc[4] += 1
        line3 = addr >> cp[8]
        idx3 = line3 % cp[9]
        if _seg_lookup(t3, n3, idx3, cp[10], line3):
            cc[2] += 1
            latency = cp[11]
        else:
            cc[5] += 1
            cc[6] += 1
            latency = cp[12]
            _seg_install(t3, n3, idx3, cp[10], line3)
        _seg_install(t2, n2, idx2, cp[6], line2)
    _seg_install(t1, n1, idx1, cp[2], line1)
    return latency


@jit
def cache_access_cols(cs, l1, i1, l2, i2, l3, i3):
    """Hierarchy access with precomputed per-level line/set indices.

    Oracle: ``CacheHierarchy.access``, identical to :func:`cache_access`
    but fed from the radix planner's precomputed columns.
    """
    t1, n1, t2, n2, t3, n3, cp, cc = cs
    if _seg_lookup(t1, n1, i1, cp[2], l1):
        cc[0] += 1
        return cp[3]
    cc[3] += 1
    if _seg_lookup(t2, n2, i2, cp[6], l2):
        cc[1] += 1
        latency = cp[7]
    else:
        cc[4] += 1
        if _seg_lookup(t3, n3, i3, cp[10], l3):
            cc[2] += 1
            latency = cp[11]
        else:
            cc[5] += 1
            cc[6] += 1
            latency = cp[12]
            _seg_install(t3, n3, i3, cp[10], l3)
        _seg_install(t2, n2, i2, cp[6], l2)
    _seg_install(t1, n1, i1, cp[2], l1)
    return latency


@jit
def cache_probe(cs, addr):
    """One non-allocating background probe (losing parallel accesses).

    Oracle: ``CacheHierarchy.probe`` — LRU-touch and count per level,
    install nothing on a full miss.
    """
    t1, n1, t2, n2, t3, n3, cp, cc = cs
    line1 = addr >> cp[0]
    if _seg_lookup(t1, n1, line1 % cp[1], cp[2], line1):
        cc[0] += 1
        return
    cc[3] += 1
    line2 = addr >> cp[4]
    if _seg_lookup(t2, n2, line2 % cp[5], cp[6], line2):
        cc[1] += 1
        return
    cc[4] += 1
    line3 = addr >> cp[8]
    if _seg_lookup(t3, n3, line3 % cp[9], cp[10], line3):
        cc[2] += 1
        return
    cc[5] += 1
    cc[6] += 1


@jit
def pwc_probe(ps, vpn):
    """Deepest-first PWC probe; returns the chain start index (0 = root).

    Oracle: ``PageWalkCache.best_entry`` — LRU-touch even when the
    credit counter thins the hit away, in which case the probe continues
    to shallower offsets; counters[0]/[1] mirror the hit/miss stats.
    """
    pk, pv, psz, pcap, pshift, pcnt, pacc, pcred = ps
    nlev = psz.shape[0]
    for off in range(nlev - 1, -1, -1):
        key = vpn >> pshift[off]
        n = psz[off]
        pos = -1
        for k in range(n):
            if pk[off, k] == key:
                pos = k
                break
        if pos >= 0:
            val = pv[off, pos]
            for m in range(pos, n - 1):
                pk[off, m] = pk[off, m + 1]
                pv[off, m] = pv[off, m + 1]
            pk[off, n - 1] = key
            pv[off, n - 1] = val
            credit = pcred[off] + pacc[off]
            if credit >= 1.0:
                pcred[off] = credit - 1.0
                pcnt[0] += 1
                return off + 1
            pcred[off] = credit
    pcnt[1] += 1
    return 0


@jit
def pwc_fill(ps, off, key, val):
    """Install a partial-walk entry at PWC offset ``off``.

    Oracle: ``PageWalkCache.fill`` / ``_LRUTable.put`` — refresh an
    existing key to MRU with the new value, else evict the oldest entry
    when the level is full.
    """
    pk, pv, psz, pcap, pshift, pcnt, pacc, pcred = ps
    n = psz[off]
    pos = -1
    for k in range(n):
        if pk[off, k] == key:
            pos = k
            break
    if pos >= 0:
        for m in range(pos, n - 1):
            pk[off, m] = pk[off, m + 1]
            pv[off, m] = pv[off, m + 1]
        pk[off, n - 1] = key
        pv[off, n - 1] = val
        return
    if n >= pcap[off]:
        for m in range(n - 1):
            pk[off, m] = pk[off, m + 1]
            pv[off, m] = pv[off, m + 1]
        pk[off, n - 1] = key
        pv[off, n - 1] = val
    else:
        pk[off, n] = key
        pv[off, n] = val
        psz[off] = n + 1


@jit
def npwc_resolve(ns, cs, gfn, hfn, rs, rc, haddrs):
    """Nested-PWC consult + host-chain replay; returns (cycles, refs).

    Oracle: the scalar ``_host_resolve`` (``NestedPWC.get`` with
    LRU-touch-even-when-thinned, then the EPT fetch chain
    ``haddrs[rs:rs+rc]`` through the hierarchy on a miss, and
    ``NestedPWC.fill`` *after* the chain).
    """
    nk, nv, nmeta, ncnt, nflt = ns
    n = nmeta[0]
    pos = -1
    for k in range(n):
        if nk[k] == gfn:
            pos = k
            break
    hit = False
    if pos >= 0:
        val = nv[pos]
        for m in range(pos, n - 1):
            nk[m] = nk[m + 1]
            nv[m] = nv[m + 1]
        nk[n - 1] = gfn
        nv[n - 1] = val
        credit = nflt[1] + nflt[0]
        if credit >= 1.0:
            nflt[1] = credit - 1.0
            hit = True
        else:
            nflt[1] = credit
    if hit:
        ncnt[0] += 1
        return 0, 0
    ncnt[1] += 1
    cycles = 0
    for i in range(rs, rs + rc):
        cycles += cache_access(cs, haddrs[i])
    # NestedPWC.fill after the chain (scalar _host_resolve order)
    n = nmeta[0]
    pos = -1
    for k in range(n):
        if nk[k] == gfn:
            pos = k
            break
    if pos >= 0:
        for m in range(pos, n - 1):
            nk[m] = nk[m + 1]
            nv[m] = nv[m + 1]
        nk[n - 1] = gfn
        nv[n - 1] = hfn
    elif n >= nmeta[1]:
        for m in range(n - 1):
            nk[m] = nk[m + 1]
            nv[m] = nv[m + 1]
        nk[n - 1] = gfn
        nv[n - 1] = hfn
    else:
        nk[n] = gfn
        nv[n] = hfn
        nmeta[0] = n + 1
    return cycles, rc


@jit
def cwc_get(ws, key):
    """Cuckoo-walk-cache prediction lookup; returns the way or -1.

    Oracle: ``CuckooWalkCache.get`` — LRU-touch and count a hit when
    present, count a miss otherwise.
    """
    ck, cw, cmeta, ccnt = ws
    n = cmeta[0]
    for k in range(n):
        if ck[k] == key:
            way = cw[k]
            for m in range(k, n - 1):
                ck[m] = ck[m + 1]
                cw[m] = cw[m + 1]
            ck[n - 1] = key
            cw[n - 1] = way
            ccnt[0] += 1
            return way
    ccnt[1] += 1
    return -1


@jit
def cwc_put(ws, key, way):
    """Install/refresh a cuckoo-walk-cache prediction.

    Oracle: ``CuckooWalkCache.put`` — remove an existing key (or evict
    the oldest entry when full), then append at MRU.
    """
    ck, cw, cmeta, ccnt = ws
    n = cmeta[0]
    pos = -1
    for k in range(n):
        if ck[k] == key:
            pos = k
            break
    if pos >= 0:
        for m in range(pos, n - 1):
            ck[m] = ck[m + 1]
            cw[m] = cw[m + 1]
        ck[n - 1] = key
        cw[n - 1] = way
    elif n >= cmeta[1]:
        for m in range(n - 1):
            ck[m] = ck[m + 1]
            cw[m] = cw[m + 1]
        ck[n - 1] = key
        cw[n - 1] = way
    else:
        ck[n] = key
        cw[n] = way
        cmeta[0] = n + 1
