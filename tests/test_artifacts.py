"""The cross-run artifact cache: digests, durability, concurrency.

The contract of :mod:`repro.sim.artifacts`: content addresses are
stable across interpreter invocations (no salted ``hash()`` anywhere in
the key path), a corrupt or mismatched entry is evicted and reported as
a plain miss, concurrent writers of the same key never expose a torn
artifact, and :class:`~repro.sim.simulator.Stage1Cache` transparently
extends its memo through the cache to disk.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.sim.artifacts import ArtifactCache, digest
from repro.sim.simulator import Stage1Cache, TLBFilterResult

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KEY = ["GUPS", 4096, 3000, 0, False, 4]


def _store(cache, stage, key, array, meta=None):
    """Store ``array`` as a one-segment entry; returns its digest."""
    writer = cache.segment_writer(stage, key, meta=meta)
    writer.append(array)
    return writer.commit()


def test_digest_is_deterministic_and_key_sensitive():
    assert digest("stage1", KEY) == digest("stage1", list(KEY))
    assert digest("stage1", KEY) != digest("trace", KEY)
    assert digest("stage1", KEY) != digest("stage1", KEY[:-1] + [5])
    # tuples canonicalize like lists (JSON has no tuple type)
    assert digest("stage1", tuple(KEY)) == digest("stage1", KEY)


def _subprocess_digest(hash_seed: str) -> str:
    code = ("from repro.sim.artifacts import digest;"
            "print(digest('stage1', ['GUPS', 4096, 3000, 0, False, 4]))")
    env = dict(os.environ,
               PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    return out.stdout.strip()


def test_digest_stable_across_interpreter_runs():
    """Fresh interpreters with different hash randomization agree —
    the property a *cross-run* cache lives or dies by."""
    digests = {_subprocess_digest(seed) for seed in ("0", "1", "12345")}
    assert digests == {digest("stage1", KEY)}


def test_store_load_round_trip(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    array = np.arange(64, dtype=np.int64) * 7
    _store(cache, "stage1", KEY, array, {"total_refs": 3000})
    loaded = cache.load_array("stage1", KEY)
    assert loaded is not None
    out, meta = loaded
    assert np.array_equal(out, array) and out.dtype == np.int64
    assert meta == {"total_refs": 3000}
    assert cache.hits == 1 and cache.misses == 0


def test_missing_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    assert cache.load_array("stage1", KEY) is None
    assert cache.misses == 1 and cache.evictions == 0


def test_corrupt_payload_evicts_then_recomputes(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    array = np.arange(32, dtype=np.int64)
    key_digest = _store(cache, "stage1", KEY, array)
    npy_path = os.path.join(str(tmp_path), key_digest + ".seg0.npy")
    with open(npy_path, "wb") as handle:
        handle.write(b"\x93NUMPY garbage")  # torn write / bit rot
    assert cache.load_array("stage1", KEY) is None
    assert cache.evictions == 1
    assert not os.path.exists(npy_path)
    # the caller's recovery path: recompute, store, load again
    _store(cache, "stage1", KEY, array)
    loaded = cache.load_array("stage1", KEY)
    assert loaded is not None and np.array_equal(loaded[0], array)


def test_truncated_sidecar_evicts(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    key_digest = _store(cache, "trace", KEY, np.arange(8, dtype=np.int64))
    meta_path = os.path.join(str(tmp_path), key_digest + ".json")
    with open(meta_path, "w", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "stage"')
    assert cache.load_array("trace", KEY) is None
    assert cache.evictions == 1


def test_mismatched_sidecar_evicts(tmp_path):
    """A sidecar that answers to the digest but not the key (digest
    scheme change, collision) must be evicted, not served."""
    cache = ArtifactCache(str(tmp_path))
    key_digest = _store(cache, "stage1", KEY, np.arange(8, dtype=np.int64))
    meta_path = os.path.join(str(tmp_path), key_digest + ".json")
    with open(meta_path, encoding="utf-8") as handle:
        sidecar = json.load(handle)
    sidecar["key"][1] = 8192
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle)
    assert cache.load_array("stage1", KEY) is None
    assert cache.evictions == 1
    assert not os.path.exists(meta_path)


def _worker_round_trips(args):
    root, worker_id, rounds = args
    cache = ArtifactCache(root)
    array = np.arange(256, dtype=np.int64)  # same key -> same content
    served = 0
    for _ in range(rounds):
        _store(cache, "stage1", KEY, array, {"total_refs": 3000})
        loaded = cache.load_array("stage1", KEY)
        if loaded is not None:
            assert np.array_equal(loaded[0], array), worker_id
            served += 1
    return served


def test_concurrent_workers_share_one_cache_dir(tmp_path):
    """Racing writers/readers of one digest never see a torn artifact
    (loads may miss mid-replace, but must never return wrong bytes)."""
    jobs = [(str(tmp_path), worker, 20) for worker in range(4)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        served = list(pool.map(_worker_round_trips, jobs))
    assert sum(served) > 0
    cache = ArtifactCache(str(tmp_path))
    loaded = cache.load_array("stage1", KEY)
    assert loaded is not None
    assert np.array_equal(loaded[0], np.arange(256, dtype=np.int64))


def _write_segments(cache, stage="stage1", key=KEY, parts=(10, 7, 5)):
    writer = cache.segment_writer(stage, key, meta={"origin": "test"})
    offset = 0
    arrays = []
    for rows in parts:
        array = (np.arange(rows, dtype=np.int64) + offset) << 12
        writer.append(array)
        arrays.append(array)
        offset += rows
    writer.commit({"total_refs": offset})
    return writer, np.concatenate(arrays)


def test_segment_writer_round_trip(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    writer, expected = _write_segments(cache)
    loaded = cache.load_array("stage1", KEY)
    assert loaded is not None
    out, meta = loaded
    assert np.array_equal(out, expected) and out.dtype == np.int64
    assert meta == {"origin": "test", "total_refs": len(expected)}
    assert cache.hits == 1 and cache.misses == 0
    with open(os.path.join(str(tmp_path), writer.key_digest + ".json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert [seg["rows"] for seg in manifest["segments"]] == [10, 7, 5]
    # mmap asks for a memmap, but only a one-segment entry can be one
    mapped, _ = cache.load_array("stage1", KEY, mmap=True)
    assert not isinstance(mapped, np.memmap)
    assert np.array_equal(mapped, expected)


def test_segment_writer_abort_removes_segments(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    writer = cache.segment_writer("stage1", KEY)
    writer.append(np.arange(4, dtype=np.int64))
    writer.abort()
    assert os.listdir(str(tmp_path)) == []
    assert cache.load_array("stage1", KEY) is None


def test_corrupt_segment_evicts_whole_entry(tmp_path):
    """One rotten segment must take down the manifest and every other
    segment: a partially-valid segmented entry is worse than a miss."""
    cache = ArtifactCache(str(tmp_path))
    writer, _ = _write_segments(cache)
    victim = os.path.join(str(tmp_path), writer.key_digest + ".seg1.npy")
    with open(victim, "wb") as handle:
        handle.write(b"\x93NUMPY garbage")
    assert cache.load_array("stage1", KEY) is None
    assert cache.evictions == 1 and cache.misses == 1
    leftovers = [name for name in os.listdir(str(tmp_path))
                 if name.startswith(writer.key_digest)]
    assert leftovers == []
    # recovery: rewrite, then load cleanly
    _write_segments(cache)
    loaded = cache.load_array("stage1", KEY)
    assert loaded is not None


def test_corrupt_last_segment_is_a_load_miss(tmp_path):
    """The bad segment is found only after the good ones were copied:
    the load still evicts the whole entry and reports a miss."""
    cache = ArtifactCache(str(tmp_path))
    writer, _ = _write_segments(cache)
    victim = os.path.join(str(tmp_path), writer.key_digest + ".seg2.npy")
    with open(victim, "wb") as handle:
        handle.write(b"nonsense")
    assert cache.load_array("stage1", KEY, mmap=True) is None
    assert (cache.hits, cache.misses, cache.evictions) == (0, 1, 1)
    assert os.listdir(str(tmp_path)) == []


def _write_legacy_entry(root, stage, key, array, meta):
    """A monolithic ``<digest>.npy`` + sidecar entry, as the cache wrote
    array entries before every array entry became segmented."""
    key_digest = digest(stage, key)
    np.save(os.path.join(root, key_digest + ".npy"), array,
            allow_pickle=False)
    sidecar = {"schema": 1, "stage": stage, "key": json.loads(
        json.dumps(key)), "meta": meta}
    with open(os.path.join(root, key_digest + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(sidecar, handle, sort_keys=True)
    return key_digest


def test_monolithic_entry_is_a_load_miss(tmp_path):
    """A pre-segmented entry left by an older run is evicted — both of
    its files — and recomputed, never served."""
    from repro.sim.machine import NativeSimulation, SimConfig

    root = str(tmp_path)
    cache = ArtifactCache(root)
    legacy = _write_legacy_entry(root, "stage1", KEY,
                                 np.arange(8, dtype=np.int64), {})
    assert cache.load_array("stage1", KEY) is None
    assert cache.misses == 1 and cache.evictions == 1
    assert not [name for name in os.listdir(root)
                if name.startswith(legacy)]

    # machine level: a stale stage-1 entry under the real key holds the
    # wrong miss stream; the run recomputes it instead of serving it
    config = SimConfig(scale=4096, nrefs=3000)
    fresh = NativeSimulation("GUPS", config)
    key = list(fresh._stage1_key())
    legacy = _write_legacy_entry(root, "stage1", key,
                                 np.arange(8, dtype=np.int64),
                                 {"total_refs": 3000})
    sim = NativeSimulation("GUPS", config,
                           stage1=Stage1Cache(artifacts=ArtifactCache(root)))
    assert sim.stage1_source == "computed"
    assert np.array_equal(np.asarray(sim.tlb.miss_vas),
                          np.asarray(fresh.tlb.miss_vas))
    assert not os.path.exists(os.path.join(root, legacy + ".npy"))
    warm = NativeSimulation("GUPS", config,
                            stage1=Stage1Cache(artifacts=ArtifactCache(root)))
    assert warm.stage1_source == "disk"
    assert np.array_equal(np.asarray(warm.tlb.miss_vas),
                          np.asarray(fresh.tlb.miss_vas))


def test_stage1_cache_round_trips_through_disk(tmp_path):
    cold = Stage1Cache(artifacts=ArtifactCache(str(tmp_path)))
    miss_vas = np.arange(100, dtype=np.int64) << 12
    built = []

    def build():
        # a build persists its own entry, as the streaming pipeline does
        built.append(1)
        _store(cold.artifacts, "stage1", list(KEY), miss_vas,
               {"total_refs": 3000, "seconds": 0.25})
        return TLBFilterResult(miss_vas, 3000)

    key = tuple(KEY)
    result = cold.fetch(key, build)
    assert built == [1] and cold.last_source == "computed"
    assert cold.fetch(key, build) is result and cold.last_source == "memo"

    # a fresh process re-opens the directory: served from disk, build
    # never runs, and the miss stream is byte-identical
    warm = Stage1Cache(artifacts=ArtifactCache(str(tmp_path)))
    def must_not_build():
        raise AssertionError("warm fetch must not recompute stage 1")
    served = warm.fetch(key, must_not_build)
    assert warm.last_source == "disk"
    assert served.total_refs == 3000
    assert np.array_equal(served.miss_vas, miss_vas)
    assert warm.last_seconds == pytest.approx(0.25)


def test_stage1_cache_without_artifacts_never_touches_disk(tmp_path):
    cache = Stage1Cache()
    assert cache.artifacts is None
    result = cache.fetch(("k",), lambda: TLBFilterResult(
        np.arange(4, dtype=np.int64), 4))
    assert cache.last_source == "computed"
    assert cache.fetch(("k",), lambda: None) is result
    assert cache.last_source == "memo"
