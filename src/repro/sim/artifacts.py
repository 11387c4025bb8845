"""Content-addressed on-disk cache for cross-run simulation artifacts.

The in-process :class:`~repro.sim.simulator.Stage1Cache` already keeps a
sweep group from recomputing its TLB-miss stream, but the memo dies
with the worker. This module persists it across processes and runs: an
:class:`ArtifactCache` stores int64 arrays (the stage-1 miss stream)
under a content address — the SHA-256 digest of a canonical-JSON
payload combining a schema version, the artifact *stage*, and the
stage's key material (workload name, scale, nrefs, seed, THP mode, tree
depth, TLB geometry). Anything that can change the bytes of the
artifact must be in the key; the digest is then stable across
interpreter invocations, ``PYTHONHASHSEED`` values, and machines
(``tests/test_artifacts.py`` pins this with a subprocess).

Every array entry is **segmented** (the one array format, DESIGN.md
§10/§13): one array spread across ``<digest>.seg<k>.npy`` chunk files
(``allow_pickle=False`` both ways) plus a JSON manifest in the
``<digest>.json`` slot, listing each segment's file, row count and
SHA-256 next to the key material echoed back and caller metadata (such
as the original compute time). Each file goes to a per-process temp
name and ``os.replace`` into place, segments before the manifest, so
concurrent sweep workers sharing one directory either see a complete
entry or none; a writer that dies mid-stream leaves only orphan segment
files that the next writer overwrites. ``load_array`` verifies the
manifest against the requested stage/key/schema and each segment digest
as it is consumed; a mismatch (digest collision, stale schema), an
unreadable file (corruption, torn write) or a corrupt segment
**evicts** the *whole* entry — manifest and every segment, because a
partially-valid chunk sequence is useless — and reports a miss, so the
caller simply recomputes and re-stores. A sidecar without ``segmented``
is a monolithic ``<digest>.npy`` entry from an older layout: it is
evicted the same way. A one-segment entry can come back as that
segment's memmap; longer ones are assembled into one preallocated array
(transient footprint: result + one segment).

**Result entries** (the stage-2 result cache, DESIGN.md §15) are pure
JSON payloads — a replayed cell's WalkStats, step breakdown, and
walker/memsys end-state counters — stored in the ``<digest>.json``
slot alone (no segments). The sidecar records a SHA-256 over the
payload's canonical JSON; ``load_result`` recomputes it on every read
and evicts on mismatch, so a torn or hand-edited payload is recomputed
rather than served. Writes are atomic exactly like array entries.

Telemetry: the cache's ``hits`` / ``misses`` / ``evictions`` counts
(all entries) and ``artifact.load`` / ``artifact.store`` trace spans.
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


class SegmentWriter:
    """Append-only writer for one segmented artifact under ``root``.

    ``append`` lands each chunk as ``<digest>.seg<k>.npy`` (temp name +
    ``os.replace``); ``commit`` writes the manifest last, atomically —
    only then does the entry exist for readers. ``abort`` removes the
    segments of an uncommitted entry. Two workers racing on the same
    digest write identical content for identical keys, so lost races
    are harmless. Built by :meth:`ArtifactCache.segment_writer`.
    """

    def __init__(self, root: str, stage: str, key,
                 meta: Optional[Dict] = None):
        self._root = root
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


class ArtifactCache:
    """One cache directory of content-addressed simulation artifacts."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

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
        paths += glob.glob(
            os.path.join(glob.escape(self.root), key_digest + ".seg*"))
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
        return SegmentWriter(self.root, stage, key, meta=meta)

    def _segments(self, manifest: Dict) -> Iterator[np.ndarray]:
        """Each segment of a validated manifest, memory-mapped, in
        order; a segment whose SHA-256 or row count does not match its
        manifest raises ValueError."""
        for seg in manifest.get("segments", []):
            path = os.path.join(self.root, seg["file"])
            if _file_sha256(path) != seg["sha256"]:
                raise ValueError(f"segment {seg['file']} digest mismatch")
            array = np.load(path, allow_pickle=False, mmap_mode="r")
            if len(array) != int(seg["rows"]):
                raise ValueError(f"segment {seg['file']} row count mismatch")
            yield array

    def load_array(self, stage: str, key,
                   mmap: bool = False) -> Optional[Tuple[np.ndarray, Dict]]:
        """The stored ``(array, meta)`` for ``(stage, key)``, or None.

        None covers both a plain miss and a corrupt/mismatched entry —
        one bad segment (digest, row count, unreadable file) evicts the
        whole entry, manifest and every segment — and the caller's
        response is the same: compute and store through
        :meth:`segment_writer`.

        With ``mmap=True`` a one-segment entry comes back as that
        verified segment's read-only ``np.memmap`` instead of a heap
        copy: sweep workers sharing one cache directory then share the
        miss-stream pages through the OS page cache (zero-copy
        transfer), and the ``artifact.load`` span's ``bytes`` counts the
        mapped extent, not bytes actually faulted in. An entry of
        several segments is assembled into one preallocated heap array
        either way, one verified segment at a time (transient
        footprint: the result plus one segment).
        """
        key_digest = digest(stage, key)
        with obs_trace.span("artifact.load", stage=stage,
                            digest=key_digest[:12]) as sp:
            manifest = self._read_segmented(stage, key, key_digest)
            array = None
            if manifest is not None:
                segments = manifest.get("segments", [])
                try:
                    if mmap and len(segments) == 1:
                        array = next(self._segments(manifest))
                    else:
                        array = np.empty(sum(int(seg["rows"])
                                             for seg in segments),
                                         dtype=np.int64)
                        pos = 0
                        for seg in self._segments(manifest):
                            array[pos:pos + len(seg)] = seg
                            pos += len(seg)
                    nbytes = sum(os.path.getsize(os.path.join(self.root,
                                                              seg["file"]))
                                 for seg in segments)
                    nbytes += os.path.getsize(self._meta_path(key_digest))
                except (OSError, ValueError, EOFError):
                    # corrupt, or evicted/replaced by a concurrent worker
                    self.evict(key_digest)
                    array = None
            if array is None:
                self.misses += 1
                if sp is not None:
                    sp["hit"] = False
                return None
            self.hits += 1
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
                if sp is not None:
                    sp["hit"] = False
                return None
            self.hits += 1
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
