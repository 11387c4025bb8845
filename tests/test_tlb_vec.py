"""Equivalence of the vectorized TLB-filter engine with the scalar oracle.

The vectorized stage-1 engine must emit a **bit-identical** miss stream
to the dict-backed :class:`~repro.hw.tlb.TLBHierarchy` path: all seven
workloads, both page-size modes, accept-rate thinning on and off.
"""

import numpy as np
import pytest

from repro.arch import PageSize
from repro.hw.config import xeon_gold_6138
from repro.kernel.kernel import Kernel
from repro.sim.simulator import (
    SizeClassifier,
    make_size_lookup,
    tlb_accept_rates,
    tlb_filter_scalar,
)
from repro.sim.sweep import ALL_WORKLOADS
from repro.sim.tlb_vec import TLBFilterStream, classify_trace
from repro.workloads import generators

SCALE = 4096
NREFS = 2500
_MB = 1 << 20

_setups = {}


def setup_for(workload_name: str, thp: bool):
    """Kernel + installed workload + trace, cached per (workload, thp)."""
    key = (workload_name, thp)
    if key not in _setups:
        workload = generators.get(workload_name, SCALE)
        ws = workload.working_set_bytes()
        kernel = Kernel(memory_bytes=ws * 2 + 256 * _MB, thp_enabled=thp)
        process = kernel.create_process(workload.name)
        layout = workload.install(process)
        trace = workload.generate_trace(layout, NREFS, seed=1)
        paper_ws = int(workload.paper_working_set_gb * (1 << 30))
        _setups[key] = (process.page_table, trace, ws, paper_ws)
    return _setups[key]


@pytest.mark.parametrize("thp", [False, True], ids=["4KB", "THP"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_miss_stream_bit_identical(workload, thp):
    machine = xeon_gold_6138()
    page_table, trace, ws, paper_ws = setup_for(workload, thp)
    thinning = tlb_accept_rates(machine, ws, paper_ws)
    for accept in (None, thinning):
        scalar = tlb_filter_scalar(trace, machine,
                                   make_size_lookup(page_table),
                                   accept_rates=accept)
        stream = TLBFilterStream(machine, make_size_lookup(page_table),
                                 accept_rates=accept)
        vec = stream.feed(trace)
        label = (workload, thp, "thinned" if accept else "raw")
        assert vec.dtype == np.int64
        assert stream.total_refs == scalar.total_refs == NREFS
        assert np.array_equal(vec, scalar.miss_vas), label


class TestEngineUnits:
    def test_empty_trace(self):
        machine = xeon_gold_6138()
        stream = TLBFilterStream(machine, lambda va: PageSize.SIZE_4K)
        misses = stream.feed(np.empty(0, dtype=np.int64))
        assert misses.size == 0 and stream.total_refs == 0

    def test_asid_keys_distinguish_processes(self):
        """Two ASIDs touching the same VPNs must not alias in the TLB."""
        machine = xeon_gold_6138()
        trace = np.arange(64, dtype=np.int64) << 12

        def size_4k(va):
            return PageSize.SIZE_4K

        for asid in (1, 7):
            scalar = tlb_filter_scalar(trace, machine, size_4k, asid=asid)
            vec = TLBFilterStream(machine, size_4k, asid=asid).feed(trace)
            assert np.array_equal(vec, scalar.miss_vas)

    def test_plain_callable_size_lookup(self):
        """The vec engine accepts any SizeLookup, not just SizeClassifier."""
        machine = xeon_gold_6138()
        trace = np.array([0x1000, 0x200000, 0x1000, 0x400000],
                         dtype=np.int64)
        misses = TLBFilterStream(machine,
                                 lambda va: PageSize.SIZE_4K).feed(trace)
        assert misses.tolist() == [0x1000, 0x200000, 0x400000]

    def test_classifier_batch_matches_scalar_calls(self):
        page_table, trace, _, _ = setup_for("Redis", True)
        batch = SizeClassifier(page_table).batch(trace)
        scalar_lookup = SizeClassifier(page_table)
        expected = [int(scalar_lookup(int(va))) for va in trace.tolist()]
        assert batch.tolist() == expected

    def test_classify_trace_one_lookup_per_unit(self):
        calls = []

        def counting_lookup(va):
            calls.append(va)
            return PageSize.SIZE_2M

        trace = np.array([0x200000, 0x200abc, 0x3fffff, 0x400000],
                         dtype=np.int64)
        shifts = classify_trace(trace, counting_lookup)
        assert shifts.tolist() == [21, 21, 21, 21]
        assert len(calls) == 2  # two distinct 2 MB units

    def test_chunk_boundaries_preserve_state(self):
        """State carries across chunks: tiny chunks == one big chunk."""
        machine = xeon_gold_6138()
        page_table, trace, ws, paper_ws = setup_for("GUPS", False)
        accept = tlb_accept_rates(machine, ws, paper_ws)
        whole = TLBFilterStream(machine, make_size_lookup(page_table),
                                accept_rates=accept).feed(trace)
        chunked = TLBFilterStream(machine, make_size_lookup(page_table),
                                  accept_rates=accept, chunk=17).feed(trace)
        assert np.array_equal(whole, chunked)
