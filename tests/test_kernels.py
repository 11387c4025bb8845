"""Unit tests for the native kernel package.

The deep bit-identity guarantees live in ``tests/test_walk_vec.py``
(the parity suite runs every supported pair through the native engine
against the scalar oracle, on whichever backend imported). This module
covers the pieces under that: backend selection, the ``array_view()``
writeback contract on every structure the kernels mutate, the
structure primitives against their live oracles, and the zero-copy
memmap transfer of cached artifacts across worker processes.
"""

import hashlib
import subprocess
import sys

import numpy as np

from repro.arch import PAGE_SHIFT
from repro.hw.cache import CacheHierarchy
from repro.hw.config import xeon_gold_6138
from repro.sim.artifacts import ArtifactCache
from repro.sim.kernels import (
    BACKEND,
    HAVE_NUMBA,
    jit,
)
from repro.sim.kernels import designs, primitives, radix
from repro.sim.kernels.replay import _cache_state, _cwc_state, _pwc_state
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.translation.ecpt import CuckooWalkCache


def _hierarchy():
    return CacheHierarchy.from_machine(xeon_gold_6138())


def _sets_state(caches):
    return [(cache.stats,
             {idx: tuple(ways) for idx, ways in cache._sets.items()})
            for cache in caches.levels]


def test_backend_selection():
    assert BACKEND == ("numba" if HAVE_NUMBA else "python")
    decorated = jit(lambda: 0)
    assert callable(decorated)


def test_kernel_catalog_is_decorated():
    """Every public kernel went through ``jit`` — a numba dispatcher
    when compiled (exposing ``py_func``), the plain function otherwise."""
    kernels = [
        primitives.cache_access, primitives.cache_access_cols,
        primitives.cache_probe, primitives.pwc_probe, primitives.pwc_fill,
        primitives.npwc_resolve, primitives.cwc_get, primitives.cwc_put,
        radix.radix_native_chunk, radix.radix_nested_chunk,
        designs.dmt_native_chunk, designs.dmt_nested_chunk,
        designs.ops_chunk, designs.agile_chunk,
        designs.asap_native_chunk, designs.asap_nested_chunk,
    ]
    for kernel in kernels:
        assert callable(kernel)
        assert hasattr(kernel, "py_func") == HAVE_NUMBA


def test_cache_array_view_writeback_roundtrip():
    """view + immediate writeback reproduces sets AND their LRU order."""
    caches = _hierarchy()
    rng = np.random.default_rng(7)
    for addr in rng.integers(0, 1 << 30, 4000).tolist():
        caches.access(addr)
    before = _sets_state(caches)
    for level in caches.levels:
        level.array_view().writeback()
    assert _sets_state(caches) == before


def test_cache_access_primitive_matches_hierarchy():
    oracle, subject = _hierarchy(), _hierarchy()
    cs, finish = _cache_state(subject)
    rng = np.random.default_rng(11)
    addrs = rng.integers(0, 1 << 28, 3000).tolist()
    for i, addr in enumerate(addrs):
        if i % 5 == 4:
            expected = oracle.probe(addr).latency
            primitives.cache_probe(cs, addr)
        else:
            expected = oracle.access(addr).latency
            assert primitives.cache_access(cs, addr) == expected
    finish()
    assert _sets_state(subject) == _sets_state(oracle)
    assert subject.memory_accesses == oracle.memory_accesses


def test_cache_access_cols_matches_plain_access():
    plain, cols = _hierarchy(), _hierarchy()
    cs_a, fin_a = _cache_state(plain)
    cs_b, fin_b = _cache_state(cols)
    shifts = [level.array_view() for level in plain.levels]
    rng = np.random.default_rng(13)
    for addr in rng.integers(0, 1 << 28, 2000).tolist():
        lines = []
        for view in shifts:
            line = addr >> view.line_shift
            lines += [line, line % view.num_sets]
        assert (primitives.cache_access(cs_a, addr)
                == primitives.cache_access_cols(cs_b, *lines))
    fin_a()
    fin_b()
    assert _sets_state(cols) == _sets_state(plain)


def test_pwc_primitives_match_oracle():
    """pwc_probe/pwc_fill against the live ``best_entry``/``fill``."""
    config = SimConfig(scale=4096, nrefs=500, seed=2)
    sims = [ENVIRONMENTS["native"]("GUPS", config) for _ in range(2)]
    oracle, subject = sims[0].walker("vanilla").memsys.pwc, \
        sims[1].walker("vanilla").memsys.pwc
    top = oracle.top_level
    ps, finish = _pwc_state(subject)
    n_offsets = len(subject._tables)
    rng = np.random.default_rng(17)
    vas = rng.integers(0, 1 << 40, 2000).tolist()
    for i, va in enumerate(vas):
        if i % 3 == 0:
            offset = i % n_offsets
            level = top - 1 - offset
            oracle.fill(va, level, i)
            primitives.pwc_fill(ps, offset,
                                (va >> PAGE_SHIFT) >> int(ps[4][offset]),
                                i)
        else:
            level, _addr = oracle.best_entry(va)
            start = primitives.pwc_probe(ps, va >> PAGE_SHIFT)
            # scalar hit at level L resumes there; the kernel returns
            # how many chain steps are skipped — the same quantity
            assert start == top - level
    finish()
    assert [tuple(t._entries.items()) for t in subject._tables] == \
        [tuple(t._entries.items()) for t in oracle._tables]
    assert subject._credit == oracle._credit
    assert subject.stats == oracle.stats


def test_cwc_primitives_match_oracle():
    oracle, subject = CuckooWalkCache(64), CuckooWalkCache(64)
    ws, finish = _cwc_state(subject)
    rng = np.random.default_rng(19)
    for i in range(3000):
        size = int(rng.integers(0, 3)) * 9 + 12
        group = int(rng.integers(0, 100))
        if i % 2 == 0:
            way = oracle.get(size, group)
            got = primitives.cwc_get(ws, (group << 6) | size)
            assert got == (-1 if way is None else way)
        else:
            way = int(rng.integers(0, 8))
            oracle.put(size, group, way)
            primitives.cwc_put(ws, (group << 6) | size, way)
    finish()
    assert tuple(subject._entries.items()) == tuple(oracle._entries.items())
    assert (subject.hits, subject.misses) == (oracle.hits, oracle.misses)


_WORKER = """
import hashlib, sys
import numpy as np
from repro.sim.artifacts import ArtifactCache

cache = ArtifactCache(sys.argv[1])
loaded = cache.load_array("stage1", ["memmap-test"], mmap=True)
array, _meta = loaded
assert isinstance(array, np.memmap), type(array)
assert not array.flags.writeable
print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_memmap_miss_stream_identical_across_workers(tmp_path):
    """Sweep-worker transfer: the same artifact mapped in independent
    processes is byte-identical to the stored miss stream."""
    root = str(tmp_path / "artifacts")
    cache = ArtifactCache(root)
    rng = np.random.default_rng(23)
    miss_vas = rng.integers(0, 1 << 47, 20000).astype(np.int64)
    writer = cache.segment_writer("stage1", ["memmap-test"])
    writer.append(miss_vas)
    writer.commit()
    expected = hashlib.sha256(miss_vas.tobytes()).hexdigest()

    digests = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "-c", _WORKER, root],
            capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests == [expected, expected]

    # and in-process: mmap load is a read-only view of the same bytes
    array, _meta = cache.load_array("stage1", ["memmap-test"], mmap=True)
    assert isinstance(array, np.memmap)
    assert hashlib.sha256(array.tobytes()).hexdigest() == expected
