"""The streaming stage-0→1 pipeline: bit-identity and constant memory.

Contract under test (DESIGN.md §13): for every workload, seed, and
chunk size — dividing or not — the concatenated chunk stream equals the
monolithic trace draw for draw; the streamed TLB filter emits the same
miss stream and reaches the same TLB/credit end state as one feed of
the whole trace; and the machine's stage 0→1 pass — the only one — is
byte-identical to both one-shot oracles, the scalar reference
``tlb_filter_scalar(generate_trace())`` and one ``TLBFilterStream.feed``
of ``generate_trace()``, cold or warm, with or without an artifact
cache, at a chunk size that divides no trace length.
"""

import dataclasses
import glob
import json
import os

import numpy as np
import pytest

from repro.arch import PageSize
from repro.hw.config import TLBConfig, xeon_gold_6138
from repro.kernel.kernel import Kernel
from repro.sim import tlb_vec
from repro.sim.artifacts import ArtifactCache
from repro.sim.machine import (DEFAULT_STREAM_CHUNK, NativeSimulation,
                                SimConfig)
from repro.sim.simulator import (Stage1Cache, TLBFilterResult,
                                  make_size_lookup, tlb_filter_scalar)
from repro.workloads import catalogue, get

MB = 1 << 20
WORKLOADS = sorted(catalogue(4096))
SEEDS = (1, 7)
#: 977 is prime (never divides nrefs); 512 and 4096 exercise small and
#: page-sized chunks. nrefs=5000 is not a multiple of any of them.
CHUNKS = (512, 977, 4096)
NREFS = 5000


def _layout(name, scale=4096):
    kernel = Kernel(memory_bytes=512 * MB)
    proc = kernel.create_process()
    wl = get(name, scale)
    return wl, wl.install(proc, populate=False), proc


# --------------------------------------------------------------------- #
# Satellite 3: generator chunk parity, all workloads x seeds x chunks
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_trace_is_bit_identical(name, seed, chunk):
    wl, layout, _ = _layout(name)
    mono = wl.generate_trace(layout, NREFS, seed=seed)
    pieces = list(wl.generate_trace_chunks(layout, NREFS, seed=seed,
                                           chunk=chunk))
    assert all(p.dtype == np.int64 for p in pieces)
    # every chunk but the last is exactly chunk-sized
    assert all(len(p) == chunk for p in pieces[:-1])
    assert np.array_equal(np.concatenate(pieces), mono), name


@pytest.mark.parametrize("name", WORKLOADS)
def test_chunked_trace_tiny_nrefs_edges(name):
    wl, layout, _ = _layout(name)
    for nrefs in (0, 1, 2, 3, 5):
        mono = wl.generate_trace(layout, nrefs, seed=3)
        pieces = list(wl.generate_trace_chunks(layout, nrefs, seed=3,
                                               chunk=2))
        got = (np.concatenate(pieces) if pieces
               else np.empty(0, dtype=np.int64))
        assert np.array_equal(got, mono), (name, nrefs)


def test_chunk_must_be_positive():
    wl, layout, _ = _layout("GUPS")
    with pytest.raises(ValueError):
        list(wl.generate_trace_chunks(layout, 100, seed=0, chunk=0))


# --------------------------------------------------------------------- #
# TLBFilterStream: state carried across chunk boundaries
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("accept", [None,
                                    {PageSize.SIZE_4K: 0.37,
                                     PageSize.SIZE_2M: 0.81}])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_stream_filter_matches_one_shot(accept, chunk):
    wl, layout, proc = _layout("Redis")
    trace = wl.generate_trace(layout, NREFS, seed=1)
    machine = xeon_gold_6138()
    lookup = make_size_lookup(proc.page_table)

    oracle = tlb_vec.TLBFilterStream(machine, lookup, accept_rates=accept)
    mono = oracle.feed(trace)

    stream = tlb_vec.TLBFilterStream(machine, lookup, accept_rates=accept)
    segments = [stream.feed(trace[i:i + chunk])
                for i in range(0, len(trace), chunk)]
    got = np.concatenate([s for s in segments if s.size]) \
        if any(s.size for s in segments) else np.empty(0, dtype=np.int64)

    assert np.array_equal(got, mono)
    assert stream.total_refs == oracle.total_refs == len(trace)
    assert stream.total_misses == len(mono)
    # identical TLB way lists and thinning credits after the last chunk
    assert stream.end_state() == oracle.end_state()


def test_stream_filter_empty_chunk_is_noop():
    wl, layout, proc = _layout("GUPS")
    stream = tlb_vec.TLBFilterStream(xeon_gold_6138(),
                                     make_size_lookup(proc.page_table))
    out = stream.feed(np.empty(0, dtype=np.int64))
    assert out.size == 0 and stream.total_refs == 0


# --------------------------------------------------------------------- #
# Machine level: the streamed pipeline == the one-shot oracle
# --------------------------------------------------------------------- #

BASE = SimConfig(scale=2048, nrefs=40_000, seed=3)


def _vec_one_shot(trace, machine, size_lookup, accept_rates=None):
    """One feed of a fresh vectorised stream over the whole trace."""
    stream = tlb_vec.TLBFilterStream(machine, size_lookup,
                                     accept_rates=accept_rates)
    return TLBFilterResult(stream.feed(trace), len(trace))


ORACLES = {"scalar": tlb_filter_scalar, "vec": _vec_one_shot}


@pytest.fixture
def chunk_7001(monkeypatch):
    """Stage 0→1 chunks of 7001 refs, a size that divides no trace
    length here: chunks straddle every layout."""
    monkeypatch.setattr("repro.sim.machine.DEFAULT_STREAM_CHUNK", 7001)


def _one_shot(sim, oracle):
    """A one-shot oracle on the simulation's own built machine: the scalar
    reference filter, or the vectorised filter fed the whole trace at once."""
    cfg = sim.config
    trace = sim.workload.generate_trace(sim.layout, cfg.nrefs, cfg.seed)
    return ORACLES[oracle](trace, cfg.machine,
                           make_size_lookup(sim.process.page_table),
                           accept_rates=sim._accept_rates())


@pytest.mark.parametrize("oracle", ["vec", "scalar"])
@pytest.mark.parametrize("name", ["GUPS", "Redis", "BTree"])
def test_machine_streaming_matches_one_shot(name, oracle, chunk_7001):
    sim = NativeSimulation(name, BASE)
    expected = _one_shot(sim, oracle)
    assert sim.tlb.total_refs == expected.total_refs
    assert np.array_equal(np.asarray(sim.tlb.miss_vas),
                          expected.miss_vas), (name, oracle)


@pytest.mark.parametrize("oracle", ["vec", "scalar"])
def test_machine_streaming_matches_one_shot_1m_gups(oracle, chunk_7001):
    """10^6 references in 143 chunks, against the one-shot oracle."""
    cfg = SimConfig(scale=1024, nrefs=1_000_000, seed=0)
    sim = NativeSimulation("GUPS", cfg)
    expected = _one_shot(sim, oracle)
    assert np.array_equal(np.asarray(sim.tlb.miss_vas), expected.miss_vas)
    assert sim.tlb.total_refs == expected.total_refs == 1_000_000


def _manifests(root):
    """The stage of every entry manifest in a cache directory."""
    stages = []
    for path in sorted(glob.glob(os.path.join(root, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            stages.append(json.load(handle)["stage"])
    return stages


def test_streaming_persists_segmented_artifacts(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.sim.machine.DEFAULT_STREAM_CHUNK", 9000)
    cold = NativeSimulation(
        "Redis", BASE, stage1=Stage1Cache(artifacts=ArtifactCache(
            str(tmp_path))))
    assert cold.stage1_source == "computed"
    [manifest] = glob.glob(os.path.join(str(tmp_path), "*.json"))
    with open(manifest, encoding="utf-8") as handle:
        assert len(json.load(handle)["segments"]) > 1

    # warm run: the segmented stage-1 entry is served from disk
    warm_cache = ArtifactCache(str(tmp_path))
    warm = NativeSimulation("Redis", BASE,
                            stage1=Stage1Cache(artifacts=warm_cache))
    assert warm.stage1_source == "disk"
    assert warm_cache.hits == 1
    assert np.array_equal(np.asarray(warm.tlb.miss_vas),
                          np.asarray(cold.tlb.miss_vas))


def test_stage1_entry_is_keyed_on_the_tlb_geometry(tmp_path):
    """A config with another STLB filters to another miss stream, so it
    must not be served the stored one (from disk, or from the memo of a
    shared Stage1Cache)."""
    cfg = SimConfig(scale=1024, nrefs=8000, seed=0)
    small = dataclasses.replace(cfg, machine=dataclasses.replace(
        xeon_gold_6138(), l2_stlb=TLBConfig("L2 STLB", 64, 4)))
    NativeSimulation("BTree", cfg, stage1=Stage1Cache(
        artifacts=ArtifactCache(str(tmp_path))))
    fresh = NativeSimulation("BTree", small)
    served = NativeSimulation("BTree", small, stage1=Stage1Cache(
        artifacts=ArtifactCache(str(tmp_path))))
    assert served.stage1_source == "computed"
    assert np.array_equal(np.asarray(served.tlb.miss_vas),
                          np.asarray(fresh.tlb.miss_vas))
    memo = Stage1Cache()
    default = NativeSimulation("BTree", cfg, stage1=memo)
    other = NativeSimulation("BTree", small, stage1=memo)
    assert other.stage1_source == "computed"
    assert default.tlb.miss_count != other.tlb.miss_count


def test_cold_run_stores_the_miss_stream_alone(tmp_path, monkeypatch):
    """Stage 0→1 stores one artifact, the miss stream: a cold run
    leaves one array manifest (``stage1``) and no trace entry, and a run
    without a cache writes no spill directory."""
    NativeSimulation("GUPS", BASE, stage1=Stage1Cache(
        artifacts=ArtifactCache(str(tmp_path))))
    assert _manifests(str(tmp_path)) == ["stage1"]

    def no_spill(*args, **kwargs):
        raise AssertionError("stage 1 spilled to a temporary directory")

    monkeypatch.setattr("tempfile.TemporaryDirectory", no_spill)
    monkeypatch.setattr("tempfile.mkdtemp", no_spill)
    sim = NativeSimulation("GUPS", BASE)
    assert sim.tlb.total_refs == sim.workload.trace_length(BASE.nrefs)


def test_stream_bench_budget_gate(tmp_path):
    """benchmarks/bench_stage1_stream.py is CI's RSS tripwire: it must
    write its document and exit 0 under a generous budget, and exit 1
    when the budget is impossibly tight."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "benchmarks", "bench_stage1_stream.py")
    out = str(tmp_path / "bench.json")
    base = [sys.executable, script, "--workload", "GUPS", "--scale",
            "1024", "--nrefs", "200000"]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    ok = subprocess.run(base + ["--rss-budget-mb", "4096", "--out", out],
                        env=env, capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    record = document["stream"]
    assert document["meta"]["bench"] == "stage1_stream"
    assert record["total_refs"] == 200000
    assert record["chunk"] == DEFAULT_STREAM_CHUNK
    assert record["refs_per_sec"] > 0 and record["peak_rss_kb"] > 0

    tight = subprocess.run(base + ["--rss-budget-mb", "10", "--out", "-"],
                           env=env, capture_output=True, text=True)
    assert tight.returncode == 1
    assert "exceeds" in tight.stderr
