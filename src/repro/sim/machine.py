"""Simulated-machine assembly for the three evaluation environments.

One simulation instance builds the full substrate for a (workload,
environment, page-size mode) triple — kernels, hypervisors, DMT-Linux,
the workload's address space, and the mirrored ECPT/FPT structures — runs
the TLB filter once, and can then replay the identical miss stream
through any design's walker. Sharing one machine across designs is
faithful to the paper: DMT's TEA placement serves the vanilla radix
walker too (same PTEs, §3), and ECPT/FPT maintain their own tables
alongside. The substrate is built lazily, only when stage 1 must be
computed or a design must replay, so a cell served from the caches
builds nothing (DESIGN.md §17).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import queue
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis import sanitizer
from repro.arch import PAGE_SIZE, PageSize, align_up
from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.core import costs as core_costs
from repro.core.costs import Environment as MgmtEnv
from repro.core.dmt_os import DMTLinux
from repro.core.paravirt import PvDMTHost, PvTEAAllocator
from repro.core.registers import REGISTERS_PER_SET, RegisterSet
from repro.hw.config import MachineConfig, xeon_gold_6138
from repro.kernel.kernel import Kernel
from repro.sim import kernels, tlb_vec
from repro.sim.simulator import (
    Stage1Cache,
    TLBFilterResult,
    WalkStats,
    make_size_lookup,
    replay_walks,
    tlb_accept_rates,
    tlb_filter,
)
from repro.translation.agile import AgilePagingWalker
from repro.translation.asap import ASAPNativeWalker, ASAPNestedWalker
from repro.translation.base import MemorySubsystem, Walker
from repro.translation.dmt import (
    DMTNativeWalker,
    DMTVirtWalker,
    PvDMTNestedWalker,
    PvDMTVirtWalker,
    machine_reader,
)
from repro.translation.ecpt import (
    ECPTNativeWalker,
    ECPTNestedWalker,
    ElasticCuckooPageTables,
)
from repro.translation.fpt import (
    FlattenedPageTable,
    FPTNativeWalker,
    FPTNestedWalker,
)
from repro.translation.radix import (
    NativeRadixWalker,
    NestedRadixWalker,
    ShadowWalker,
)
from repro.virt.hypervisor import Hypervisor
from repro.virt.nested import NestedSetup
from repro.virt.shadow import ShadowPager
from repro.workloads import generators

_MB = 1 << 20

#: Auto-streaming threshold: monolithic stage 0→1 below this many
#: references (the arrays are small enough that streaming only adds
#: overhead), the constant-memory streaming pipeline at or above it.
STREAM_NREFS_THRESHOLD = 8_000_000

#: Trace references per streamed chunk when ``stream_chunk`` is left on
#: auto: 1 Mi refs = 8 MB per in-flight chunk.
DEFAULT_STREAM_CHUNK = 1 << 20

#: Version of what a stage-2 result-cache entry means. Version 2: cells
#: no longer depend on which designs ran earlier on the same machine
#: (shared mirrors are built up front), so entries a design-subset run
#: wrote under version 1 may hold numbers no current run computes.
STAGE2_KEY_VERSION = 2


def _page_align(nbytes: int) -> int:
    return align_up(nbytes, PAGE_SIZE)


def _is_pow2(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass
class SimConfig:
    """Knobs for one simulation run."""

    scale: int = 512          # working-set divisor vs. the paper (DESIGN §2)
    nrefs: int = 60_000       # trace length
    seed: int = 0
    thp: bool = False
    #: radix tree depth: 4 (default) or 5 (§2.1.1's 5-level extension —
    #: nested walks grow to 35 references; DMT stays at 1/2/3)
    levels: int = 4
    machine: MachineConfig = field(default_factory=xeon_gold_6138)
    warmup_fraction: float = 0.1
    record_refs: bool = False
    register_count: int = 16
    bubble_threshold: float = 0.02
    #: Thin TLB/PWC hit rates back to paper scale (DESIGN.md §5). Without
    #: this, the fixed-reach MMU caches cover the entire scaled-down
    #: working set and every design collapses to one memory reference.
    scale_mmu_caches: bool = True
    #: Stage-1 TLB-filter engine: "vec" (batched NumPy, default) or
    #: "scalar" (the dict-backed reference oracle). Both are
    #: bit-identical; the oracle exists for equivalence testing.
    engine: str = "vec"
    #: Stage-2 replay engine: "auto" (native kernels when the compiled
    #: backend and the design support them, else batched
    #: :mod:`repro.sim.walk_vec` when supported, scalar otherwise — the
    #: default), "native" (:mod:`repro.sim.kernels` chunk kernels,
    #: erroring on unsupported designs; requires numba), "vec"
    #: (batched, same erroring), or "scalar" (the per-walk reference
    #: oracle, never served from the stage-2 result cache). All paths
    #: are bit-identical on supported designs.
    walk_engine: str = "auto"
    #: Enable the runtime translation sanitizer
    #: (:mod:`repro.analysis.sanitizer`) for this run.
    sanitize: bool = False
    #: Stage-0→1 streaming chunk size in references. ``None`` (default)
    #: picks automatically: stream at :data:`DEFAULT_STREAM_CHUNK` when
    #: ``nrefs`` reaches :data:`STREAM_NREFS_THRESHOLD` (vec engine
    #: only), monolithic below it. A positive value forces streaming at
    #: that chunk size; ``0`` forces the monolithic path. Streaming is
    #: bit-identical to monolithic (DESIGN.md §13), so the knob trades
    #: memory against per-chunk overhead, never results.
    stream_chunk: Optional[int] = None

    def __post_init__(self):
        """Reject invalid configurations here, with a clear error, instead
        of failing deep inside the fetcher or the TLB index arithmetic."""
        if not 1 <= self.register_count <= REGISTERS_PER_SET:
            raise ValueError(
                f"register_count={self.register_count}: a DMT register set "
                f"holds 1..{REGISTERS_PER_SET} registers (Figure 13; the "
                f"register index field is 4 bits)"
            )
        if self.levels not in (4, 5):
            raise ValueError(
                f"levels={self.levels}: x86-64 radix trees are 4- or 5-level"
            )
        if self.engine not in ("vec", "scalar"):
            raise ValueError(
                f"engine={self.engine!r}: expected 'vec' or 'scalar'"
            )
        if self.walk_engine not in ("auto", "native", "vec", "scalar"):
            raise ValueError(
                f"walk_engine={self.walk_engine!r}: expected 'auto', "
                f"'native', 'vec' or 'scalar'"
            )
        if self.walk_engine == "native" and not kernels.HAVE_NUMBA:
            raise ValueError(kernels.NATIVE_REQUIRES_NUMBA)
        if self.stream_chunk is not None and self.stream_chunk < 0:
            raise ValueError(
                f"stream_chunk={self.stream_chunk} must be None, 0 (off), "
                f"or a positive chunk size")
        if self.stream_chunk and self.engine != "vec":
            raise ValueError(
                "stream_chunk requires engine='vec': the scalar stage-1 "
                "oracle has no chunk-carrying state machine")
        if self.scale < 1:
            raise ValueError(f"scale={self.scale} must be >= 1")
        if self.nrefs < 1:
            raise ValueError(f"nrefs={self.nrefs} must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction={self.warmup_fraction} must be in [0, 1)"
            )
        # Power-of-two page/line geometry: VPN and set-index extraction is
        # pure shift/mask arithmetic, so non-power-of-two sizes would
        # silently translate wrong addresses rather than error out.
        for tlb in (self.machine.l1d_tlb, self.machine.l1i_tlb,
                    self.machine.l2_stlb):
            if not _is_pow2(tlb.num_sets):
                raise ValueError(
                    f"{tlb.name}: {tlb.entries} entries / {tlb.assoc}-way "
                    f"gives {tlb.num_sets} sets — set count must be a "
                    f"power of two"
                )
        for cache in (self.machine.l1d, self.machine.l2, self.machine.llc):
            if not _is_pow2(cache.line_bytes):
                raise ValueError(
                    f"{cache.name}: line size {cache.line_bytes} must be a "
                    f"power of two"
                )

    def resolved_stream_chunk(self) -> Optional[int]:
        """The streaming chunk size in effect, or None for monolithic."""
        if self.stream_chunk == 0:
            return None
        if self.stream_chunk:
            return self.stream_chunk
        if self.nrefs >= STREAM_NREFS_THRESHOLD and self.engine == "vec":
            return DEFAULT_STREAM_CHUNK
        return None

    def small(self, nrefs: int = 8_000, scale: int = 4096) -> "SimConfig":
        """A reduced copy for fast tests.

        Built with :func:`dataclasses.replace` so every field — current
        and future — carries over instead of silently resetting to its
        default.
        """
        return dataclasses.replace(self, scale=scale, nrefs=nrefs)


def _stats_payload(stats: WalkStats) -> Dict:
    """A ``WalkStats`` as the JSON dict stored in the stage-2 result cache.

    ``engine`` / ``fallback_reason`` are stored and restored verbatim:
    they are cell telemetry the sweep document records, and a warm
    sweep must emit a byte-identical document.
    """
    return {
        "design": stats.design,
        "walks": int(stats.walks),
        "total_cycles": int(stats.total_cycles),
        "fallbacks": int(stats.fallbacks),
        "ref_count": int(stats.ref_count),
        "step_cycles": {tag: [float(total), int(count)]
                        for tag, (total, count) in stats.step_cycles.items()},
        "engine": stats.engine,
        "fallback_reason": stats.fallback_reason,
    }


def _stats_from_payload(payload: Dict) -> WalkStats:
    """Rebuild a ``WalkStats`` from its cached payload dict."""
    return WalkStats(
        design=payload["design"],
        walks=int(payload["walks"]),
        total_cycles=int(payload["total_cycles"]),
        fallbacks=int(payload["fallbacks"]),
        ref_count=int(payload["ref_count"]),
        step_cycles={tag: [float(pair[0]), int(pair[1])]
                     for tag, pair in payload.get("step_cycles", {}).items()},
        engine=payload.get("engine", "scalar"),
        fallback_reason=payload.get("fallback_reason"),
    )


def _stage2_state(walker: Walker) -> Dict:
    """Post-replay end state archived alongside a cached cell's stats.

    Audit payload, not restored on a hit (a served cell never builds a
    walker): walker/fetcher counters and the cache/PWC hit-miss end
    state let a human (or a test) verify a cached entry against a fresh
    replay without trusting the checksum alone.
    """
    def counters(target) -> Dict:
        return {"walks": int(target.walks),
                "total_cycles": int(target.total_cycles),
                "fallbacks": int(target.fallbacks)}

    memsys = walker.memsys
    state = {
        "walker": counters(walker),
        "caches": [{"hits": int(level.stats.hits),
                    "misses": int(level.stats.misses)}
                   for level in memsys.caches.levels],
        "memory_accesses": int(memsys.caches.memory_accesses),
        "pwc": {
            "host": {"hits": int(memsys.pwc.stats.hits),
                     "misses": int(memsys.pwc.stats.misses)},
            "guest": {"hits": int(memsys.guest_pwc.stats.hits),
                      "misses": int(memsys.guest_pwc.stats.misses)},
            "nested": {"hits": int(memsys.nested_pwc.stats.hits),
                       "misses": int(memsys.nested_pwc.stats.misses)},
        },
    }
    fetcher = getattr(walker, "fetcher", None)
    if fetcher is not None:
        state["fetcher"] = {"hits": int(fetcher.hits),
                            "fallbacks": int(fetcher.fallbacks)}
    return state


class _SimulationBase:
    """Shared stage-1 plumbing."""

    designs: tuple = ()
    #: Environment key in :data:`ENVIRONMENTS`; trace spans carry it.
    env_name: str = "?"

    def __init__(self, workload_name: str, config: Optional[SimConfig] = None,
                 stage1: Optional[Stage1Cache] = None):
        config = config or SimConfig()
        self.config = config
        if config.sanitize:
            sanitizer.enable()
        self.workload = generators.get(workload_name, config.scale)
        self._stats_cache: Dict[str, WalkStats] = {}
        #: Per-cell stage-2 provenance ("computed" or "disk"), keyed
        #: like :attr:`_stats_cache`; see :meth:`stage2_source`.
        self._stage2_sources: Dict[str, str] = {}
        #: Memoized SHA-256 of the replayed miss stream (stage-2 key).
        self._miss_digest_memo: Optional[str] = None
        #: Optional sweep-wide stage-1 memo; sims sharing one instance
        #: compute the trace + TLB filter once per input signature.
        self._stage1 = stage1
        #: Stage-1 telemetry, set by :meth:`_trace_and_filter`.
        self.stage1_seconds = 0.0
        self.stage1_reused = False
        #: Where stage 1 came from: "computed", "memo" (in-process
        #: reuse), or "disk" (cross-run artifact cache).
        self.stage1_source = "computed"
        #: Whether this config resolves stage 0→1 to the streaming
        #: pipeline (a pure function of the config, so cold and warm
        #: runs of the same config report the same value).
        self.stage1_streamed = config.resolved_stream_chunk() is not None
        #: Guards the one-shot :meth:`build` and :meth:`_prepare_shared`
        #: (cells may run on several threads); ``built`` and
        #: ``_shared_ready`` flip once each has run.
        self._shared_lock = threading.Lock()
        self.built = False
        self._shared_ready = False
        self.tlb = self._trace_and_filter()

    def build(self) -> None:
        """Build the machine: kernels, VMs, the workload's process and
        its backing, and the register files (:meth:`_build`).

        Lazy and idempotent. It runs when stage 1 has to be computed
        (the trace needs the installed layout, the TLB filter the page
        sizes) or on the first walker; a cell served from the stage-1
        and stage-2 caches never builds. Code that reads machine
        attributes (``process``, ``vm``, ``nested``, ...) calls it first.
        """
        if self.built:
            return
        with self._shared_lock:
            if not self.built:
                self._build()
                self.built = True

    def _build(self) -> None:
        raise NotImplementedError

    def _ensure_shared(self) -> None:
        """Build the machine, then run :meth:`_prepare_shared` once, on
        the first walker build.

        Never called from ``__init__``: a warm run served entirely from
        the memo or the result cache builds no walker and pays nothing.
        """
        if self._shared_ready:
            return
        self.build()
        with self._shared_lock:
            if not self._shared_ready:
                self._prepare_shared()
                self._shared_ready = True

    def _prepare_shared(self) -> None:
        """Build every structure the designs share, in canonical order.

        The mirrors (ECPT, FPT, shadow tables) allocate frames from the
        machine's physical memory, so their placement — and with it
        cache set indices and walk latencies — depends on which of them
        exist already. Building all of them in the order a full grid
        used to build them lazily makes each cell a function of (env,
        design, config, miss stream) alone: a design run alone, in a
        subset, or in any order gives its full-grid number, and after
        this ``walker()`` and replay only read shared state (DESIGN.md
        §15).
        """
        raise NotImplementedError

    def _memsys(self) -> MemorySubsystem:
        ws = paper_ws = None
        if self.config.scale_mmu_caches:
            ws = self.workload.working_set_bytes()
            paper_ws = int(self.workload.paper_working_set_gb * (1 << 30))
        return MemorySubsystem(
            self.config.machine,
            levels=self.config.levels,
            record_refs=self.config.record_refs,
            ws_bytes=ws,
            paper_ws_bytes=paper_ws,
        )

    def walker(self, design: str) -> Walker:
        """A fresh walker for ``design`` (private memory subsystem).

        Each environment's override starts with :meth:`_ensure_shared`
        and then only reads shared machine state.
        """
        raise NotImplementedError

    def run(self, design: str, collect_steps: bool = False) -> WalkStats:
        """Replay the miss stream through one design (cached per design).

        Consults, in order: the in-process per-design memo, the
        content-addressed stage-2 result cache (when an artifact cache
        is attached and ``sanitize`` is off), and only then plans and
        replays — a warm run with unchanged inputs does zero replay.
        Safe to call for different designs on concurrent threads: the
        shared set-up runs once under a lock, and each replay mutates
        only its own walker and memory subsystem.
        """
        key = f"{design}:{collect_steps}"
        stats = self._stats_cache.get(key)
        if stats is not None:
            return stats
        stats = self._fetch_stage2(design, collect_steps)
        if stats is not None:
            return stats
        with obs_trace.span("stage2.replay", env=self.env_name,
                            workload=self.workload.name, design=design,
                            thp=self.config.thp) as sp:
            walker = self.walker(design)
            stats = replay_walks(
                walker,
                self.tlb.miss_vas,
                warmup_fraction=self.config.warmup_fraction,
                collect_steps=collect_steps,
                engine=self.config.walk_engine,
            )
            if sp is not None:
                sp["walks"] = stats.walks
                sp["engine"] = stats.engine
        return self._commit_stage2(design, collect_steps, stats, walker)

    def stage2_source(self, design: str, collect_steps: bool = False) -> str:
        """Where ``run(design)``'s stats came from: "computed" or "disk"."""
        return self._stage2_sources.get(f"{design}:{collect_steps}",
                                        "computed")

    def _result_artifacts(self):
        """The attached artifact cache, or None (no result caching)."""
        if self._stage1 is None or self.config.sanitize \
                or self.config.walk_engine == "scalar":
            # sanitize replays must actually run (the checks live in
            # the replay), and so must the scalar oracle (it exists to
            # check the fast path's cells, so it must not be served
            # them): the result cache is bypassed entirely
            return None
        return self._stage1.artifacts

    def _miss_digest(self) -> str:
        """SHA-256 over the replayed miss stream's bytes + ref count."""
        if self._miss_digest_memo is None:
            vas = np.ascontiguousarray(self.tlb.miss_vas, dtype=np.int64)
            hasher = hashlib.sha256()
            hasher.update(vas.data)
            hasher.update(str(int(self.tlb.total_refs)).encode("ascii"))
            self._miss_digest_memo = hasher.hexdigest()
        return self._miss_digest_memo

    def _stage2_key(self, design: str, collect_steps: bool) -> list:
        """Stage-2 result-cache key: everything a replayed cell depends on.

        The miss-stream digest subsumes the stage-1 knobs (engine,
        stream_chunk — both bit-identical by contract and pinned by
        test); ``walk_engine`` is deliberately absent because the fast
        stage-2 engines are bit-identical on supported designs, so
        cells cached by one serve the other (the ``scalar`` oracle
        bypasses the cache, :meth:`_result_artifacts`). The cost-model
        version constant invalidates every cached cell when calibrated
        latencies change, and :data:`STAGE2_KEY_VERSION` when the
        meaning of a cell does.
        """
        cfg = self.config
        return [
            self.env_name, design, bool(collect_steps),
            self._miss_digest(),
            {
                "workload": self.workload.name,
                "scale": cfg.scale,
                "nrefs": cfg.nrefs,
                "seed": cfg.seed,
                "thp": cfg.thp,
                "levels": cfg.levels,
                "register_count": cfg.register_count,
                "bubble_threshold": cfg.bubble_threshold,
                "warmup_fraction": cfg.warmup_fraction,
                "record_refs": cfg.record_refs,
                "scale_mmu_caches": cfg.scale_mmu_caches,
                "machine": dataclasses.asdict(cfg.machine),
            },
            core_costs.COST_MODEL_VERSION,
            STAGE2_KEY_VERSION,
        ]

    def _fetch_stage2(self, design: str,
                      collect_steps: bool) -> Optional[WalkStats]:
        """A result-cache hit's WalkStats (memoized), or None."""
        artifacts = self._result_artifacts()
        if artifacts is None:
            return None
        payload = artifacts.load_result(
            "stage2", self._stage2_key(design, collect_steps))
        if payload is None or "stats" not in payload:
            return None
        stats = _stats_from_payload(payload["stats"])
        key = f"{design}:{collect_steps}"
        self._stats_cache[key] = stats
        self._stage2_sources[key] = "disk"
        return stats

    def _commit_stage2(self, design: str, collect_steps: bool,
                       stats: WalkStats, walker: Walker) -> WalkStats:
        """Memoize a freshly replayed cell and persist it to the cache."""
        key = f"{design}:{collect_steps}"
        self._stats_cache[key] = stats
        self._stage2_sources[key] = "computed"
        artifacts = self._result_artifacts()
        if artifacts is not None:
            artifacts.store_result(
                "stage2", self._stage2_key(design, collect_steps),
                {"stats": _stats_payload(stats),
                 "state": _stage2_state(walker)},
                meta={"env": self.env_name,
                      "workload": self.workload.name,
                      "design": design})
        return stats

    def _stage1_key(self) -> tuple:
        """Stage-1 input signature: everything the miss stream depends on.

        Environment is deliberately absent — the workload layout, trace,
        page sizes, and TLB acceptance rates are functions of the
        workload and these config knobs alone, so environments sharing
        the signature share the miss stream (pinned by test).
        """
        cfg = self.config
        return (self.workload.name, cfg.scale, cfg.nrefs, cfg.seed,
                cfg.thp, cfg.levels, cfg.engine, cfg.scale_mmu_caches)

    def _trace_key(self) -> list:
        """Stage-0 artifact key: everything the address trace depends on.

        The trace is a pure function of the workload layout (workload,
        scale, THP, tree depth) and the generator inputs (nrefs, seed);
        the TLB configuration does not enter, so stage-0 artifacts are
        shared by runs that differ only in filter settings.
        """
        cfg = self.config
        return [self.workload.name, cfg.scale, cfg.nrefs, cfg.seed,
                cfg.thp, cfg.levels]

    def _generate_trace(self, layout):
        """The stage-0 address trace, via the artifact cache when attached."""
        artifacts = self._stage1.artifacts if self._stage1 is not None \
            else None
        if artifacts is None:
            return self.workload.generate_trace(layout, self.config.nrefs,
                                                self.config.seed)
        key = self._trace_key()
        loaded = artifacts.load_array("trace", key, mmap=True)
        if loaded is not None:
            return loaded[0]
        trace = self.workload.generate_trace(layout, self.config.nrefs,
                                             self.config.seed)
        artifacts.store_array("trace", key, trace, {})
        return trace

    def _accept_rates(self):
        """TLB acceptance rates for the scaled working set, or None."""
        if not self.config.scale_mmu_caches:
            return None
        ws = self.workload.working_set_bytes()
        paper_ws = int(self.workload.paper_working_set_gb * (1 << 30))
        if ws < paper_ws:
            return tlb_accept_rates(self.config.machine, ws, paper_ws)
        return None

    def _stream_stage1(self, process, layout, chunk: int) -> TLBFilterResult:
        """Constant-memory stage 0→1: filter the trace as chunks arrive.

        A producer thread generates trace chunk *k+1* while the main
        thread TLB-filters chunk *k* — the generator is NumPy-bound and
        releases the GIL, so the two overlap. Miss segments spill to
        disk as they are produced (segmented artifact under the stage-1
        key when a cache is attached, a temporary directory otherwise)
        and are assembled at the end into one preallocated array, so
        peak memory is the miss stream plus a few in-flight chunks —
        never the trace. Bit-identical to the monolithic path: the
        chunked generators honour the RNG contract and
        :class:`~repro.sim.tlb_vec.TLBFilterStream` carries TLB/LRU
        state across chunk boundaries (DESIGN.md §13).
        """
        cfg = self.config
        artifacts = self._stage1.artifacts if self._stage1 is not None \
            else None
        total_refs = self.workload.trace_length(cfg.nrefs)
        filt = tlb_vec.TLBFilterStream(
            cfg.machine, make_size_lookup(process.page_table),
            accept_rates=self._accept_rates())

        # Trace segments: reuse a segmented stage-0 artifact when one is
        # on disk; otherwise generate, spilling segments for next time.
        trace_reader = trace_writer = None
        if artifacts is not None:
            trace_reader = artifacts.open_segments("trace",
                                                   self._trace_key())
            if trace_reader is None:
                trace_writer = artifacts.segment_writer(
                    "trace", self._trace_key())

        stop = threading.Event()
        done = object()
        feed: "queue.Queue" = queue.Queue(maxsize=2)

        def enqueue(item) -> bool:
            """Bounded put that gives up once the consumer has failed."""
            while not stop.is_set():
                try:
                    feed.put(item, timeout=0.1)
                    return True
                except queue.Full:
                    continue
            return False

        def produce() -> None:
            try:
                if trace_reader is not None:
                    pieces = iter(trace_reader)
                else:
                    pieces = self.workload.generate_trace_chunks(
                        layout, cfg.nrefs, cfg.seed, chunk)
                for piece in pieces:
                    if trace_writer is not None:
                        trace_writer.append(piece)
                    if not enqueue(piece):
                        return          # consumer failed; bail out
                enqueue(done)
            except BaseException as exc:  # propagate into the consumer
                enqueue(exc)

        refs_counter = metrics.counter("stage1.stream.refs")
        producer = threading.Thread(target=produce, name="stage0-producer",
                                    daemon=True)
        start = time.perf_counter()
        spill_dir = None
        miss_writer = None
        if artifacts is not None:
            miss_writer = artifacts.segment_writer(
                "stage1", list(self._stage1_key()))
        else:
            spill_dir = tempfile.TemporaryDirectory(prefix="repro-stage1-")
        spill_files = []
        try:
            producer.start()
            index = 0
            while True:
                item = feed.get()
                if item is done:
                    break
                if isinstance(item, BaseException):
                    raise item
                with obs_trace.span("stage1.stream_chunk", index=index,
                                    refs=len(item)) as sp:
                    segment = filt.feed(item)
                    if sp is not None:
                        sp["misses"] = int(segment.size)
                refs_counter.inc(len(item))
                if segment.size:
                    if miss_writer is not None:
                        miss_writer.append(segment)
                    else:
                        path = os.path.join(spill_dir.name,
                                            f"miss{len(spill_files)}.npy")
                        np.save(path, segment, allow_pickle=False)
                        spill_files.append((path, int(segment.size)))
                index += 1
        except BaseException:
            stop.set()
            producer.join()
            if miss_writer is not None:
                miss_writer.abort()
            if trace_writer is not None:
                trace_writer.abort()
            if spill_dir is not None:
                spill_dir.cleanup()
            raise
        producer.join()
        seconds = time.perf_counter() - start
        if seconds > 0:
            metrics.gauge("stage1.stream.refs_per_sec").set(
                filt.total_refs / seconds)
        metrics.gauge("stage1.stream.peak_rss_kb").set(
            obs_trace.peak_rss_kb())

        if filt.total_refs != total_refs:
            if miss_writer is not None:
                miss_writer.abort()
            if trace_writer is not None:
                trace_writer.abort()
            if spill_dir is not None:
                spill_dir.cleanup()
            raise RuntimeError(
                f"streamed {filt.total_refs} refs, expected {total_refs}")
        if trace_writer is not None:
            trace_writer.commit()

        # Assemble the miss stream from the spilled segments: the result
        # array plus one memmapped segment at a time.
        misses = np.empty(filt.total_misses, dtype=np.int64)
        pos = 0
        if miss_writer is not None:
            miss_writer.commit({"total_refs": total_refs,
                                "seconds": seconds})
            self._stage1.mark_persisted()
            segments = iter(miss_writer.reader())
        else:
            segments = (np.load(path, mmap_mode="r")
                        for path, _rows in spill_files)
        for segment in segments:
            misses[pos:pos + len(segment)] = segment
            pos += len(segment)
        if spill_dir is not None:
            spill_dir.cleanup()
        return TLBFilterResult(misses, total_refs)

    def _trace_and_filter(self) -> TLBFilterResult:
        stream_chunk = self.config.resolved_stream_chunk()

        def build() -> TLBFilterResult:
            with obs_trace.span("stage1", workload=self.workload.name,
                                thp=self.config.thp,
                                streamed=stream_chunk is not None) as sp:
                # Stage 1 reads the installed layout and page sizes, so
                # a miss builds the machine, inside this span.
                self.build()
                if stream_chunk is not None:
                    result = self._stream_stage1(self.process, self.layout,
                                                 stream_chunk)
                else:
                    trace = self._generate_trace(self.layout)
                    result = tlb_filter(
                        trace, self.config.machine,
                        make_size_lookup(self.process.page_table),
                        accept_rates=self._accept_rates(),
                        engine=self.config.engine)
                if sp is not None:
                    sp["refs"] = result.total_refs
                    sp["misses"] = result.miss_count
            return result

        if self._stage1 is None:
            start = time.perf_counter()
            result = build()
            self.stage1_seconds = time.perf_counter() - start
            self.stage1_reused = False
            self.stage1_source = "computed"
            return result
        result = self._stage1.fetch(self._stage1_key(), build)
        self.stage1_seconds = self._stage1.last_seconds
        self.stage1_reused = self._stage1.last_reused
        self.stage1_source = self._stage1.last_source
        return result


class NativeSimulation(_SimulationBase):
    """Bare-metal environment (Figure 14)."""

    designs = ("vanilla", "fpt", "ecpt", "asap", "dmt")
    env_name = "native"

    def _build(self) -> None:
        ws = self.workload.working_set_bytes()
        mem_bytes = _page_align(ws * 2 + 256 * _MB)
        self.kernel = Kernel(memory_bytes=mem_bytes, thp_enabled=self.config.thp,
                             levels=self.config.levels)
        self.dmt = DMTLinux(
            self.kernel,
            register_count=self.config.register_count,
            bubble_threshold=self.config.bubble_threshold,
        )
        self.process = self.kernel.create_process(self.workload.name)
        self.layout = self.workload.install(self.process)
        self.dmt.reload_registers(self.process)
        #: FPT/ECPT mirrors of the radix table, set by _prepare_shared.
        self.fpt: Optional[FlattenedPageTable] = None
        self.ecpt: Optional[ElasticCuckooPageTables] = None

    def _prepare_shared(self) -> None:
        self.fpt = FlattenedPageTable(self.kernel.memory)
        self.fpt.load_from_radix(self.process.page_table)
        self.ecpt = ElasticCuckooPageTables(self.kernel.memory)
        self.ecpt.load_from_radix(self.process.page_table)
        self.dmt.reload_registers(self.process)

    def walker(self, design: str) -> Walker:
        self._ensure_shared()
        memsys = self._memsys()
        if design == "vanilla":
            return NativeRadixWalker(self.process.page_table, memsys)
        if design == "fpt":
            return FPTNativeWalker(self.fpt, memsys, probe_huge=self.config.thp)
        if design == "ecpt":
            return ECPTNativeWalker(self.ecpt, memsys)
        if design == "asap":
            return ASAPNativeWalker(self.process.page_table, memsys)
        if design == "dmt":
            fallback = NativeRadixWalker(self.process.page_table, memsys)
            return DMTNativeWalker(self.dmt.register_file, fallback, memsys,
                                   self.kernel.memory.read_word)
        raise KeyError(f"unknown native design {design!r}")


class VirtSimulation(_SimulationBase):
    """Single-level virtualization (Figure 15)."""

    designs = ("vanilla", "shadow", "fpt", "ecpt", "agile", "asap",
               "dmt", "pvdmt")
    env_name = "virt"

    def _build(self) -> None:
        cfg = self.config
        ws = self.workload.working_set_bytes()
        guest_bytes = _page_align(int(ws * 1.3) + 128 * _MB)
        host_bytes = _page_align(guest_bytes + ws + 384 * _MB)

        self.host_kernel = Kernel(memory_bytes=host_bytes, thp_enabled=cfg.thp,
                                  levels=cfg.levels)
        self.host_dmt = DMTLinux(
            self.host_kernel, register_set=RegisterSet.NATIVE,
            register_count=cfg.register_count,
            bubble_threshold=cfg.bubble_threshold,
        )
        self.hypervisor = Hypervisor(self.host_kernel)
        self.vm = self.hypervisor.create_vm(guest_bytes, thp_enabled=cfg.thp,
                                            levels=cfg.levels)
        self.host_dmt.attach_ept(self.vm, host_thp=cfg.thp)

        # pvDMT plumbing: guest TEAs come from the host via hypercall.
        self.pv_host = PvDMTHost(self.vm, ledger=self.host_dmt.ledger)
        self.pv_alloc = PvTEAAllocator(self.pv_host)
        self.guest_dmt = DMTLinux(
            self.vm.guest_kernel, register_set=RegisterSet.GUEST,
            register_file=self.host_dmt.register_file,
            environment=MgmtEnv.VIRTUALIZED,
            register_count=cfg.register_count,
            bubble_threshold=cfg.bubble_threshold,
            tea_allocator=self.pv_alloc,
        )

        self.process = self.vm.guest_kernel.create_process(self.workload.name)
        self.layout = self.workload.install(self.process)

        # Back the whole guest-physical space (pre-touched VM memory), with
        # 2 MB host pages when host THP is on.
        self.vm.back_range(
            0, guest_bytes,
            PageSize.SIZE_2M if cfg.thp else PageSize.SIZE_4K,
        )
        self.guest_dmt.reload_registers(self.process)
        self.host_dmt.register_file.load(
            RegisterSet.NATIVE, self.host_dmt.host_registers_for_vm(self.vm)
        )

        self.read_machine = machine_reader(self.host_kernel.memory, [self.vm])
        #: Shared mirrors, set by _prepare_shared: the shadow pager
        #: (shadow, agile) and the guest/host FPT and ECPT (fpt, ecpt).
        self.shadow: Optional[ShadowPager] = None
        self.guest_fpt: Optional[FlattenedPageTable] = None
        self.host_fpt: Optional[FlattenedPageTable] = None
        self.guest_ecpt: Optional[ElasticCuckooPageTables] = None
        self.host_ecpt: Optional[ElasticCuckooPageTables] = None

    def _prepare_shared(self) -> None:
        self.shadow = ShadowPager(self.vm, self.process)
        self.shadow.sync()
        # The whole guest-physical space was backed in __init__, so the
        # guest mirrors' table pages need no new EPT entries.
        self.guest_fpt = FlattenedPageTable(self.vm.guest_memory)
        self.guest_fpt.load_from_radix(self.process.page_table)
        self.host_fpt = FlattenedPageTable(self.host_kernel.memory)
        self.host_fpt.load_from_radix(self.vm.ept)
        self.guest_ecpt = ElasticCuckooPageTables(self.vm.guest_memory)
        self.guest_ecpt.load_from_radix(self.process.page_table)
        self.host_ecpt = ElasticCuckooPageTables(self.host_kernel.memory)
        self.host_ecpt.load_from_radix(self.vm.ept)
        self.guest_dmt.reload_registers(self.process)

    def walker(self, design: str) -> Walker:
        self._ensure_shared()
        memsys = self._memsys()
        if design == "vanilla":
            return NestedRadixWalker(self.process.page_table, self.vm, memsys)
        if design == "shadow":
            return ShadowWalker(self.shadow.spt, memsys)
        if design == "fpt":
            return FPTNestedWalker(self.guest_fpt, self.host_fpt, self.vm,
                                   memsys, probe_huge=self.config.thp)
        if design == "ecpt":
            return ECPTNestedWalker(self.guest_ecpt, self.host_ecpt, self.vm,
                                    memsys)
        if design == "agile":
            return AgilePagingWalker(self.process.page_table,
                                     self.shadow.spt, self.vm, memsys)
        if design == "asap":
            return ASAPNestedWalker(self.process.page_table, self.vm, memsys)
        if design == "dmt":
            fallback = NestedRadixWalker(self.process.page_table, self.vm,
                                         memsys)
            return DMTVirtWalker(self.host_dmt.register_file, fallback,
                                 memsys, self.read_machine)
        if design == "pvdmt":
            fallback = NestedRadixWalker(self.process.page_table, self.vm,
                                         memsys)
            return PvDMTVirtWalker(self.host_dmt.register_file,
                                   self.pv_host.gtea_table, fallback, memsys,
                                   self.read_machine)
        raise KeyError(f"unknown virtualized design {design!r}")


class _L2ShadowAdapter:
    """Presents the nested shadow table as the 'host table' of a 2D walk.

    Vanilla nested KVM translates L2VA with a 2D walk over the L2 page
    table and the L0-maintained sPT (L2PA -> L0PA) — see §2.1.3.
    """

    def __init__(self, nested: NestedSetup):
        self.ept = nested.shadow.spt

    def gpa_to_hpa(self, l2pa: int) -> int:
        translated = self.ept.translate(l2pa)
        if translated is None:
            # The machine backs all of L2 and syncs the sPT before any
            # walker exists; walkers only read shared state (§15).
            raise KeyError(f"L2PA {l2pa:#x} has no nested shadow entry")
        return translated[0]


class NestedSimulation(_SimulationBase):
    """Nested virtualization (Figure 17)."""

    designs = ("vanilla", "pvdmt")
    env_name = "nested"

    def _build(self) -> None:
        cfg = self.config
        ws = self.workload.working_set_bytes()
        l2_bytes = _page_align(int(ws * 1.3) + 128 * _MB)
        l1_bytes = _page_align(l2_bytes + ws // 2 + 256 * _MB)
        l0_bytes = _page_align(l1_bytes + ws + 512 * _MB)

        self.host_kernel = Kernel(memory_bytes=l0_bytes, thp_enabled=cfg.thp,
                                  levels=cfg.levels)
        self.l0_dmt = DMTLinux(
            self.host_kernel, register_set=RegisterSet.NATIVE,
            register_count=cfg.register_count,
        )
        self.nested = NestedSetup(self.host_kernel, l1_bytes, l2_bytes,
                                  thp_enabled=cfg.thp, levels=cfg.levels)
        l1_vm, l2_vm = self.nested.l1_vm, self.nested.l2_vm

        # L0 manages L1's EPT leaves in L0 TEAs (hVMA-to-hTEA).
        self.l0_dmt.attach_ept(l1_vm, host_thp=cfg.thp)

        # L1 manages L2's host table (the L1PT) with TEAs obtained from L0
        # via the cascaded hypercall (§4.5.3).
        self.pv_l1_host = PvDMTHost(l1_vm, nested=False)
        self.pv_l1_alloc = PvTEAAllocator(self.pv_l1_host)
        self.l1_dmt = DMTLinux(
            l1_vm.guest_kernel, register_set=RegisterSet.GUEST,
            register_file=self.l0_dmt.register_file,
            environment=MgmtEnv.VIRTUALIZED,
            register_count=cfg.register_count,
            tea_allocator=self.pv_l1_alloc,
        )
        self.l1_dmt.attach_ept(l2_vm, host_thp=cfg.thp)

        # L2's own TEAs: allocated through L1, which forwards to L0.
        self.pv_l2_host = PvDMTHost(l2_vm, upstream=self.pv_l1_alloc,
                                    nested=True)
        self.pv_l2_alloc = PvTEAAllocator(self.pv_l2_host)
        self.l2_dmt = DMTLinux(
            l2_vm.guest_kernel, register_set=RegisterSet.NESTED,
            register_file=self.l0_dmt.register_file,
            environment=MgmtEnv.NESTED,
            register_count=cfg.register_count,
            tea_allocator=self.pv_l2_alloc,
        )

        self.process = l2_vm.guest_kernel.create_process(self.workload.name)
        self.layout = self.workload.install(self.process)

        size = PageSize.SIZE_2M if cfg.thp else PageSize.SIZE_4K
        l2_vm.back_range(0, l2_bytes, size)
        l1_vm.back_range(0, l1_bytes, size)

        self.l2_dmt.reload_registers(self.process)
        self._load_l1_registers()
        self.l0_dmt.register_file.load(
            RegisterSet.NATIVE, self.l0_dmt.host_registers_for_vm(l1_vm)
        )

        self.nested.enable_shadow()
        self.nested.shadow.sync()
        self.read_machine = machine_reader(self.host_kernel.memory,
                                           [l1_vm, l2_vm])

    def _load_l1_registers(self) -> None:
        manager = self.l1_dmt.ept_mappings[self.nested.l2_vm.vm_id]
        manager.run_migrations()
        gtea_ids = {
            tea.tea_id: self.pv_l1_alloc.gtea_id_for(tea.base_frame)
            for cluster in manager.clusters
            for tea in cluster.all_teas()
        }
        self.l0_dmt.register_file.load(
            RegisterSet.GUEST, manager.build_registers(gtea_ids)
        )

    def _prepare_shared(self) -> None:
        self.l2_dmt.reload_registers(self.process)
        self._load_l1_registers()

    def walker(self, design: str) -> Walker:
        self._ensure_shared()
        memsys = self._memsys()
        if design == "vanilla":
            adapter = _L2ShadowAdapter(self.nested)
            return NestedRadixWalker(self.process.page_table, adapter, memsys)
        if design == "pvdmt":
            adapter = _L2ShadowAdapter(self.nested)
            fallback = NestedRadixWalker(self.process.page_table, adapter,
                                         memsys)
            return PvDMTNestedWalker(
                self.l0_dmt.register_file,
                self.pv_l2_host.gtea_table,
                self.pv_l1_host.gtea_table,
                fallback, memsys, self.read_machine,
            )
        raise KeyError(f"unknown nested design {design!r}")


ENVIRONMENTS = {
    "native": NativeSimulation,
    "virt": VirtSimulation,
    "nested": NestedSimulation,
}
