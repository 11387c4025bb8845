"""Content-addressed on-disk cache for cross-run simulation artifacts.

The in-process :class:`~repro.sim.simulator.Stage1Cache` already keeps a
sweep group from recomputing its trace and TLB-miss stream, but the memo
dies with the worker. This module persists those artifacts across
processes and runs: an :class:`ArtifactCache` stores int64 arrays (the
stage-0 address trace, the stage-1 miss stream) under a content address
— the SHA-256 digest of a canonical-JSON payload combining a schema
version, the artifact *stage*, and the stage's key material (workload
name, scale, nrefs, seed, THP mode, tree depth, ...). Anything that can
change the bytes of the artifact must be in the key; the digest is then
stable across interpreter invocations, ``PYTHONHASHSEED`` values, and
machines (``tests/test_artifacts.py`` pins this with a subprocess).

Every array entry is **segmented** (the one array format, DESIGN.md
§10/§13): one array spread across ``<digest>.seg<k>.npy`` chunk files
(``allow_pickle=False`` both ways) plus a JSON manifest in the
``<digest>.json`` slot, listing each segment's file, row count and
SHA-256 next to the key material echoed back and caller metadata (such
as the original compute time). Each file goes to a per-process temp
name and ``os.replace`` into place, segments before the manifest, so
concurrent sweep workers sharing one directory either see a complete
entry or none; a writer that dies mid-stream leaves only orphan segment
files that the next writer overwrites. Loads verify the manifest
against the requested stage/key/schema and each segment digest as it is
consumed; a mismatch (digest collision, stale schema), an unreadable
file (corruption, torn write) or a corrupt segment **evicts** the
*whole* entry — manifest and every segment, because a partially-valid
chunk sequence is useless — and reports a miss, so the caller simply
recomputes and re-stores. A sidecar without ``segmented`` is a
monolithic ``<digest>.npy`` entry from an older layout: it is evicted
the same way. ``open_segments`` is the constant-memory path (one
verified, memmap-backed segment at a time); ``load_array`` returns a
one-segment entry as that segment's memmap and assembles longer ones
into one preallocated array (transient footprint: result + one
segment).

**Result entries** (the stage-2 result cache, DESIGN.md §15) are pure
JSON payloads — a replayed cell's WalkStats, step breakdown, and
walker/memsys end-state counters — stored in the ``<digest>.json``
slot alone (no segments). The sidecar records a SHA-256 over the
payload's canonical JSON; ``load_result`` recomputes it on every read
and evicts on mismatch, so a torn or hand-edited payload is recomputed
rather than served. Writes are atomic exactly like array entries.

Telemetry: the cache's ``hits`` / ``misses`` / ``evictions`` counts
(all entries), the segmented-entry breakdowns ``seg_hits`` /
``seg_misses`` / ``seg_evictions``, the result-entry breakdowns
``result_hits`` / ``result_misses``, and ``artifact.load`` /
``artifact.store`` trace spans.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace

#: Bump when the digest payload or the on-disk layout changes shape;
#: entries written under another schema are evicted on load.
SCHEMA_VERSION = 1


class CorruptSegment(Exception):
    """A segment failed digest verification; the entry has been evicted."""


def digest(stage: str, key) -> str:
    """Content address of an artifact: SHA-256 over canonical JSON.

    ``key`` must be JSON-serializable (the stage-1 signature tuples of
    primitives qualify; tuples canonicalize to lists). The builtin
    ``hash()`` is banned here twice over — dmtlint L2 and the fact that
    it is salted per process, which is exactly what a cross-run cache
    cannot tolerate.
    """
    payload = json.dumps(
        {"schema": SCHEMA_VERSION, "stage": stage, "key": key},
        sort_keys=True, separators=(",", ":"), ensure_ascii=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical(key):
    """The key as it reads back from the JSON sidecar (tuples -> lists)."""
    return json.loads(json.dumps(key))


def _file_sha256(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


class SegmentReader:
    """Iterate one segmented artifact, verifying each segment digest.

    Yields one array per segment (memmap-backed when ``mmap=True``), in
    manifest order. A segment whose bytes no longer match its recorded
    SHA-256 raises :class:`CorruptSegment`, after evicting the whole
    entry — manifest plus every segment — through the owning ``cache``
    when there is one.
    """

    def __init__(self, root: str, key_digest: str, manifest: Dict,
                 mmap: bool = True,
                 cache: Optional["ArtifactCache"] = None):
        self._root = root
        self._cache = cache
        self._digest = key_digest
        self._segments: List[Dict] = manifest.get("segments", [])
        self._mmap = mmap
        self.meta: Dict = manifest.get("meta", {})
        self.total_rows = int(sum(seg["rows"] for seg in self._segments))

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def payload_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self._root, seg["file"]))
                   for seg in self._segments)

    def __iter__(self) -> Iterator[np.ndarray]:
        for seg in self._segments:
            path = os.path.join(self._root, seg["file"])
            try:
                if _file_sha256(path) != seg["sha256"]:
                    raise ValueError("segment digest mismatch")
                array = np.load(path, allow_pickle=False,
                                mmap_mode="r" if self._mmap else None)
                if len(array) != int(seg["rows"]):
                    raise ValueError("segment row count mismatch")
            except (OSError, ValueError, EOFError) as exc:
                if self._cache is not None:
                    self._cache.evict(self._digest)
                raise CorruptSegment(
                    f"segment {seg.get('file')} of {self._digest[:12]} "
                    f"is corrupt: {exc}") from exc
            yield array

    def concatenated(self) -> np.ndarray:
        """All segments assembled into one preallocated array.

        Peak transient memory is the result plus one segment (plus the
        page-cache-backed mmap of the segment being copied).
        """
        out = None
        pos = 0
        for seg in self:
            if out is None:
                out = np.empty((self.total_rows,) + seg.shape[1:],
                               dtype=seg.dtype)
            out[pos:pos + len(seg)] = seg
            pos += len(seg)
        if out is None:
            out = np.empty(0, dtype=np.int64)
        return out


class SegmentWriter:
    """Append-only writer for one segmented artifact under ``root``.

    ``append`` lands each chunk as ``<digest>.seg<k>.npy`` (temp name +
    ``os.replace``); ``commit`` writes the manifest last, atomically —
    only then does the entry exist for readers. ``abort`` removes the
    segments of an uncommitted entry. Two workers racing on the same
    digest write identical content for identical keys, so lost races
    are harmless. ``cache`` is the owning :class:`ArtifactCache`, which
    counts the bytes a commit writes; a writer without one (the
    stage-1 spill into a temporary directory) records nothing and is
    read back uncommitted.
    """

    def __init__(self, root: str, stage: str, key,
                 meta: Optional[Dict] = None,
                 cache: Optional["ArtifactCache"] = None):
        self._root = root
        self._cache = cache
        self._stage = stage
        self._key = key
        self._meta = dict(meta or {})
        self.key_digest = digest(stage, key)
        self._segments: List[Dict] = []
        self._bytes = 0
        self._committed = False

    def append(self, array: np.ndarray) -> None:
        if self._committed:
            raise RuntimeError("segment writer already committed")
        array = np.asarray(array)
        name = f"{self.key_digest}.seg{len(self._segments)}.npy"
        path = os.path.join(self._root, name)
        tmp = path + f".tmp{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                np.save(handle, array, allow_pickle=False)
            sha = _file_sha256(tmp)
            self._bytes += os.path.getsize(tmp)
            os.replace(tmp, path)
        finally:
            try:
                os.remove(tmp)
            except OSError:
                pass
        self._segments.append({"file": name, "rows": int(len(array)),
                               "sha256": sha})

    def commit(self, extra_meta: Optional[Dict] = None) -> str:
        """Write the manifest; the entry becomes visible to readers."""
        meta = dict(self._meta)
        meta.update(extra_meta or {})
        manifest = {
            "schema": SCHEMA_VERSION, "stage": self._stage,
            "key": _canonical(self._key), "segmented": True,
            "total_rows": int(sum(s["rows"] for s in self._segments)),
            "segments": self._segments, "meta": meta,
        }
        meta_path = os.path.join(self._root, self.key_digest + ".json")
        tmp = meta_path + f".tmp{os.getpid()}"
        with obs_trace.span("artifact.store", stage=self._stage,
                            digest=self.key_digest[:12]) as sp:
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(manifest, handle, sort_keys=True)
                    handle.write("\n")
                self._bytes += os.path.getsize(tmp)
                os.replace(tmp, meta_path)
            finally:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            if sp is not None:
                sp["bytes"] = self._bytes
                sp["segments"] = len(self._segments)
        self._committed = True
        return self.key_digest

    def abort(self) -> None:
        """Remove the segments written so far; a no-op once committed
        (the entry is then the readers', and eviction removes it)."""
        if self._committed:
            return
        for seg in self._segments:
            try:
                os.remove(os.path.join(self._root, seg["file"]))
            except OSError:
                pass
        self._segments = []

    def reader(self, mmap: bool = True) -> SegmentReader:
        """A reader over the segments written so far.

        Built directly from this writer's segment list rather than
        through :meth:`ArtifactCache.open_segments`, so re-reading what
        we just wrote does not inflate the cache's hit counters.
        """
        manifest = {"segments": self._segments, "meta": self._meta}
        return SegmentReader(self._root, self.key_digest, manifest,
                             mmap=mmap, cache=self._cache)


class ArtifactCache:
    """One cache directory of content-addressed simulation artifacts."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.seg_hits = 0
        self.seg_misses = 0
        self.seg_evictions = 0
        self.result_hits = 0
        self.result_misses = 0

    def _meta_path(self, key_digest: str) -> str:
        return os.path.join(self.root, key_digest + ".json")

    def evict(self, key_digest: str) -> None:
        """Drop an entry — sidecar and *all* of its segments, plus the
        ``<digest>.npy`` payload an older monolithic layout kept (missing
        files are fine — a concurrent worker may have evicted or
        replaced it first). A segmented entry with one corrupt segment
        is useless as a whole, so eviction is all-or-nothing."""
        self.evictions += 1
        paths = [self._meta_path(key_digest),
                 os.path.join(self.root, key_digest + ".npy")]
        segment_files = glob.glob(
            os.path.join(glob.escape(self.root), key_digest + ".seg*"))
        if segment_files:
            self.seg_evictions += 1
            paths += segment_files
        for path in paths:
            try:
                os.remove(path)
            except OSError:
                pass

    def _read_manifest(self, stage: str, key,
                       key_digest: str) -> Optional[Dict]:
        """The validated sidecar/manifest, or None (entry evicted on
        mismatch, left alone when simply absent)."""
        meta_path = self._meta_path(key_digest)
        try:
            with open(meta_path, encoding="utf-8") as handle:
                sidecar = json.load(handle)
        except (OSError, json.JSONDecodeError):
            if os.path.exists(meta_path):
                self.evict(key_digest)
            return None
        ok = (sidecar.get("schema") == SCHEMA_VERSION
              and sidecar.get("stage") == stage
              and sidecar.get("key") == _canonical(key))
        if not ok:
            self.evict(key_digest)
            return None
        return sidecar

    def _read_segmented(self, stage: str, key,
                        key_digest: str) -> Optional[Dict]:
        """The validated manifest of an array entry, or None. A sidecar
        that is not segmented (a monolithic entry from an older layout)
        is evicted, so the caller recomputes and re-stores it."""
        manifest = self._read_manifest(stage, key, key_digest)
        if manifest is not None and not manifest.get("segmented"):
            self.evict(key_digest)
            return None
        return manifest

    def segment_writer(self, stage: str, key,
                       meta: Optional[Dict] = None) -> SegmentWriter:
        """A writer that streams ``(stage, key)`` to disk chunk-by-chunk."""
        return SegmentWriter(self.root, stage, key, meta=meta, cache=self)

    def open_segments(self, stage: str, key,
                      mmap: bool = True) -> Optional[SegmentReader]:
        """A verified segment iterator for ``(stage, key)``, or None.

        The constant-memory read path: segments are verified and
        yielded one at a time. Iteration may raise
        :class:`CorruptSegment`, after evicting the whole entry.
        """
        key_digest = digest(stage, key)
        manifest = self._read_segmented(stage, key, key_digest)
        if manifest is None:
            self.misses += 1
            self.seg_misses += 1
            return None
        self.hits += 1
        self.seg_hits += 1
        return SegmentReader(self.root, key_digest, manifest, mmap=mmap,
                             cache=self)

    def load_array(self, stage: str, key,
                   mmap: bool = False) -> Optional[Tuple[np.ndarray, Dict]]:
        """The stored ``(array, meta)`` for ``(stage, key)``, or None.

        None covers both a plain miss and a corrupt/mismatched entry
        (which is evicted on the way out) — the caller's response is
        the same: compute and store through :meth:`segment_writer`.

        With ``mmap=True`` a one-segment entry comes back as that
        verified segment's read-only ``np.memmap`` instead of a heap
        copy: sweep workers sharing one cache directory then share the
        trace and miss-stream pages through the OS page cache
        (zero-copy transfer), and the ``artifact.load`` span's
        ``bytes`` counts the mapped extent, not bytes actually faulted
        in. An entry of several
        segments is *assembled* into one heap array either way (the
        segments are mmapped while copying); use :meth:`open_segments`
        to consume it without materializing.
        """
        key_digest = digest(stage, key)
        with obs_trace.span("artifact.load", stage=stage,
                            digest=key_digest[:12]) as sp:
            manifest = self._read_segmented(stage, key, key_digest)
            array = None
            if manifest is not None:
                reader = SegmentReader(self.root, key_digest, manifest,
                                       mmap=True, cache=self)
                try:
                    if mmap and len(reader) == 1:
                        array = next(iter(reader))
                    else:
                        array = reader.concatenated()
                    nbytes = (reader.payload_bytes
                              + os.path.getsize(self._meta_path(key_digest)))
                except CorruptSegment:
                    array = None        # the reader evicted the entry
                except OSError:
                    # a concurrent worker evicted or replaced the entry
                    self.evict(key_digest)
                    array = None
            if array is None:
                self.misses += 1
                self.seg_misses += 1
                if sp is not None:
                    sp["hit"] = False
                return None
            self.hits += 1
            self.seg_hits += 1
            if sp is not None:
                sp["hit"] = True
                sp["bytes"] = nbytes
            return array, manifest.get("meta", {})

    def load_result(self, stage: str, key) -> Optional[Dict]:
        """The stored JSON result payload for ``(stage, key)``, or None.

        Verify-on-load: the payload's canonical-JSON SHA-256 is
        recomputed and compared against the digest recorded at store
        time; a mismatch (torn write, bit rot, hand edit) evicts the
        entry and reports a miss, so the caller recomputes — exactly
        the array-entry contract, applied to JSON payloads.
        """
        key_digest = digest(stage, key)
        with obs_trace.span("artifact.load", stage=stage,
                            digest=key_digest[:12], result=True) as sp:
            sidecar = self._read_manifest(stage, key, key_digest)
            payload = sidecar.get("payload") if sidecar else None
            if payload is not None:
                body = json.dumps(payload, sort_keys=True,
                                  separators=(",", ":"), ensure_ascii=True)
                recorded = sidecar.get("payload_sha256")
                checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
                if checksum != recorded:
                    self.evict(key_digest)
                    payload = None
            elif sidecar is not None:
                # a validated sidecar with no payload is some other
                # entry kind that collided on stage/key: evict it
                self.evict(key_digest)
            if payload is None:
                self.misses += 1
                self.result_misses += 1
                if sp is not None:
                    sp["hit"] = False
                return None
            self.hits += 1
            self.result_hits += 1
            if sp is not None:
                sp["hit"] = True
            return payload

    def store_result(self, stage: str, key, payload: Dict,
                     meta: Optional[Dict] = None) -> str:
        """Persist a JSON ``payload`` under ``(stage, key)``; returns digest.

        The payload is canonicalized (tuples -> lists) so the digest
        recorded here matches what :meth:`load_result` recomputes after
        a JSON round trip. Atomic: temp name + ``os.replace``.
        """
        key_digest = digest(stage, key)
        meta_path = self._meta_path(key_digest)
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True)
        sidecar = {
            "schema": SCHEMA_VERSION, "stage": stage,
            "key": _canonical(key), "result": True,
            "payload": json.loads(body),
            "payload_sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "meta": dict(meta or {}),
        }
        with obs_trace.span("artifact.store", stage=stage,
                            digest=key_digest[:12], result=True) as sp:
            tmp = meta_path + f".tmp{os.getpid()}"
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(sidecar, handle, sort_keys=True)
                    handle.write("\n")
                nbytes = os.path.getsize(tmp)
                os.replace(tmp, meta_path)
            finally:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            if sp is not None:
                sp["bytes"] = nbytes
        return key_digest
