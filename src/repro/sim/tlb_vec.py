"""Vectorized stage-1 TLB filter (the batched simulation engine).

The scalar :class:`~repro.hw.tlb.TLBHierarchy` walks the trace one
reference at a time through dict-backed set-associative TLBs — correct,
but every reference pays for a size-lookup call, tuple-key hashing and
several method dispatches. This module is the batched replacement:

1. **Vectorized precompute** (NumPy, per inner chunk): page-size
   classification via one lookup per unique 2 MB unit, per-page-size VPN
   arrays (an elementwise shift by the per-reference page-size shift),
   L1/STLB set indices, and packed integer tags that stand in for the
   scalar model's ``(asid, page_size, vpn)`` tuple keys.
2. **Chunked state machine**: the set/way state is a flat array of
   per-set way lists (MRU last), updated by a tight loop over the
   precomputed arrays, chunk by chunk. LRU touch/install/evict and the
   deterministic credit-counter thinning replicate the scalar model's
   operations exactly — including the order of floating-point credit
   updates — so the emitted miss stream is **bit-identical** to the
   scalar oracle on any trace.

The state machine is packaged as :class:`TLBFilterStream`: TLB way
lists and thinning credits live on the instance and persist across
``feed`` calls, so the trace can arrive as a sequence of chunks (the
streaming stage-0→1 pipeline, DESIGN.md §13) and the emitted miss
segments concatenate to exactly the monolithic result.

The loop is sequential by necessity: LRU state and thinning credits at
reference *i* depend on every hit/miss decision before it. The speedup
comes from hoisting everything else out of the loop; ``benchmarks/
bench_engine.py`` measures the result (>= 3x on the GUPS stage-1 run).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.arch import PageSize
from repro.hw.config import MachineConfig

#: References processed per inner-loop chunk; bounds the transient
#: NumPy arrays and Python lists to a few MB regardless of trace length.
DEFAULT_CHUNK = 1 << 16

#: Compact code for each page-size shift: 4 KB -> 0, 2 MB -> 1, 1 GB -> 2.
#: Matches ``PageSize.sz_field()`` and is bijective with the shift, so a
#: packed ``(asid, code, vpn)`` tag equals the scalar tuple key.
_SHIFT_TO_CODE = {12: 0, 21: 1, 30: 2}
_CODE_TO_SIZE = (PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G)

#: Bit layout of a packed tag: | asid | vpn | code |. A 4 KB VPN of a
#: 48-bit VA needs 36 bits; 2 bits of code below, ASIDs above bit 48.
_CODE_BITS = 2
_ASID_SHIFT = 48

#: 2 MB-unit shift: page size is uniform per 2 MB region (see
#: ``SizeClassifier``), so classification batches per unique unit.
_UNIT_SHIFT = int(PageSize.SIZE_2M)


def classify_trace(trace: np.ndarray, size_lookup) -> np.ndarray:
    """Per-reference page-size shifts with one lookup per 2 MB unit.

    Page size is uniform within a 2 MB unit in this simulator (huge pages
    are naturally aligned), so classifying the unique units and scattering
    back through ``np.unique``'s inverse index reproduces the scalar
    path's memoized per-reference calls. ``size_lookup`` may be any
    :data:`~repro.sim.simulator.SizeLookup`; a classifier exposing
    ``batch_units`` (see :class:`~repro.sim.simulator.SizeClassifier`)
    shares its memo dict with the scalar path.
    """
    units = trace >> _UNIT_SHIFT
    uniq, inverse = np.unique(units, return_inverse=True)
    if hasattr(size_lookup, "batch_units"):
        shifts = size_lookup.batch_units(uniq)
    else:
        shifts = np.fromiter(
            (int(size_lookup(int(unit) << _UNIT_SHIFT)) for unit in uniq.tolist()),
            dtype=np.int64, count=len(uniq),
        )
    return shifts[inverse.reshape(-1)]


def _accept_rate_table(accept_rates: Optional[Dict[PageSize, float]]):
    """Per-code acceptance rates.

    Mirrors ``TLBHierarchy.__init__``: sizes missing from the dict (or
    no dict at all) default to rate 1.0, which accepts every hit.
    """
    accept_rates = accept_rates or {}
    return [float(accept_rates.get(size, 1.0)) for size in _CODE_TO_SIZE]


class TLBFilterStream:
    """Stage-1 TLB filter with state carried across trace chunks.

    Feed consecutive trace chunks; each call returns that chunk's
    TLB-miss VAs. Way lists (LRU order) and thinning credits persist on
    the instance between calls, so chunk boundaries are invisible to
    the model: the concatenated miss segments are bit-identical to
    filtering the concatenated trace in one call, for any chunking.
    """

    def __init__(
        self,
        machine: MachineConfig,
        size_lookup,
        asid: int = 1,
        accept_rates: Optional[Dict[PageSize, float]] = None,
        chunk: int = DEFAULT_CHUNK,
    ):
        self._size_lookup = size_lookup
        self._asid = asid
        self._chunk = chunk
        self._l1_num_sets = machine.l1d_tlb.num_sets
        self._stlb_num_sets = machine.l2_stlb.num_sets
        self._l1_assoc = machine.l1d_tlb.assoc
        self._stlb_assoc = machine.l2_stlb.assoc
        # One way list per set, MRU last — the list order mirrors the
        # scalar model's insertion-ordered dicts (evict = drop index 0).
        self.l1_state = [[] for _ in range(self._l1_num_sets)]
        self.stlb_state = [[] for _ in range(self._stlb_num_sets)]
        self.rates = _accept_rate_table(accept_rates)
        self.credit = [0.0, 0.0, 0.0]
        self.total_refs = 0
        self.total_misses = 0

    def end_state(self):
        """TLB/credit end state, for streaming-vs-monolithic identity tests."""
        return (self.l1_state, self.stlb_state, self.credit)

    def feed(self, trace: np.ndarray) -> np.ndarray:
        """Filter one trace chunk; returns its miss-stream segment.

        The chunk is filtered ``chunk`` references at a time, so the
        NumPy temporaries and the Python miss list of one step stay that
        size however long the fed chunk is; each step's misses land in
        one int64 buffer with a slot per reference.
        """
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        misses = np.empty(trace.size, dtype=np.int64)
        count = 0
        for start in range(0, trace.size, self._chunk):
            step = self._filter(trace[start:start + self._chunk])
            misses[count:count + step.size] = step
            count += step.size
        self.total_refs += int(trace.size)
        self.total_misses += count
        return misses[:count].copy()

    def _filter(self, trace: np.ndarray) -> np.ndarray:
        """Run the state machine over one inner chunk of references."""
        # ---- vectorized precompute (this inner chunk) --------------- #
        shifts = classify_trace(trace, self._size_lookup)
        vpn = trace >> shifts                       # per-page-size VPNs
        codes = (shifts - 12) // 9                  # 12/21/30 -> 0/1/2
        tags = (vpn << _CODE_BITS) | codes | (self._asid << _ASID_SHIFT)
        l1_idx = vpn % self._l1_num_sets
        stlb_idx = vpn % self._stlb_num_sets

        l1_state = self.l1_state
        stlb_state = self.stlb_state
        l1_assoc = self._l1_assoc
        stlb_assoc = self._stlb_assoc
        rates = self.rates
        credit = self.credit

        misses = []
        append_miss = misses.append
        rows = zip(trace.tolist(), tags.tolist(), l1_idx.tolist(),
                   stlb_idx.tolist(), codes.tolist())
        for va, tag, s1, s2, code in rows:
            ways = l1_state[s1]
            if tag in ways:
                # L1 hit: touch, then run the credit counter. A rejected
                # hit counts as a miss and refills the STLB (the fill's
                # L1 install is an order no-op: the tag is already MRU).
                if ways[-1] != tag:
                    ways.remove(tag)
                    ways.append(tag)
                rate = rates[code]
                if rate >= 1.0:
                    continue
                acc = credit[code] + rate
                if acc >= 1.0:
                    credit[code] = acc - 1.0
                    continue
                credit[code] = acc
                append_miss(va)
                sways = stlb_state[s2]
                if tag in sways:
                    if sways[-1] != tag:
                        sways.remove(tag)
                        sways.append(tag)
                else:
                    if len(sways) >= stlb_assoc:
                        del sways[0]
                    sways.append(tag)
                continue
            sways = stlb_state[s2]
            if tag in sways:
                # STLB hit: touch STLB, refill L1, then thin. On a rejected
                # hit the fill re-installs both levels, but the tag is
                # already MRU in each — no state change.
                if sways[-1] != tag:
                    sways.remove(tag)
                    sways.append(tag)
                if len(ways) >= l1_assoc:
                    del ways[0]
                ways.append(tag)
                rate = rates[code]
                if rate >= 1.0:
                    continue
                acc = credit[code] + rate
                if acc >= 1.0:
                    credit[code] = acc - 1.0
                    continue
                credit[code] = acc
                append_miss(va)
                continue
            append_miss(va)
            if len(sways) >= stlb_assoc:
                del sways[0]
            sways.append(tag)
            if len(ways) >= l1_assoc:
                del ways[0]
            ways.append(tag)
        return np.asarray(misses, dtype=np.int64)
