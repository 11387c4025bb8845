"""Process-parallel sweep over the simulation grid.

A *sweep* evaluates every cell of the (environment × workload × design ×
page-size) grid — the design-space exploration behind Figures 14/15/17.
A group task covers one (workload, page-size) pair across *all* swept
environments: the worker shares one
:class:`~repro.sim.simulator.Stage1Cache` across them, so the trace and
TLB-miss stream are computed once per group and reused by every
environment and design cell (the miss stream depends only on the
workload and config, not the environment). Groups are independent, so
they fan out across worker processes; :func:`run_sweep` hands them to
the one executor, :class:`~repro.sim.jobs.JobScheduler`, which retries
a group whose worker died and journals groups when asked to
(DESIGN.md §6, §14).

Within one group the executor is **two-level** (DESIGN.md §15): each
machine's design cells can replay concurrently on ``cell_threads``
threads of the worker process (:func:`run_cells`), sharing the
memmapped miss stream with no pickling. A cell depends only on its own
inputs — the machine builds the state its designs share once, before
the first walker — so threaded results are bit-identical to sequential
ones. Threads only overlap in the compiled ``nogil`` kernels, so
without numba the sweep clamps ``cell_threads`` to 1
(:func:`effective_split`).

Each grid cell reports telemetry alongside its simulation statistics:
stage-1 wall time and whether it was served from the group's memo,
replay wall time and the stage-2 engine used, the stage-2 result-cache
provenance (``stage2_source``), walk throughput, the worker's peak
RSS, the machine-build time, and the group's wall seconds. The whole
sweep serializes to a JSON document (``meta`` + ``cells``) so runs can
be archived and diffed.

Exposed through ``python -m repro sweep`` and reused by
``benchmarks/conftest.py``'s ``SimCache``.
"""

from __future__ import annotations

import gc
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace
from repro.sim import jobs, kernels
from repro.sim.artifacts import ArtifactCache
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.sim.simulator import Stage1Cache

#: The paper's seven evaluation workloads (Table 1 order).
ALL_WORKLOADS = ["Redis", "Memcached", "GUPS", "BTree", "Canneal",
                 "XSBench", "Graph500"]

#: A group task — one (workload, THP) pair across every swept
#: environment — as picklable primitives: (envs, workload, thp,
#: designs, config kwargs, trace JSONL path, artifact-cache dir,
#: cell threads).
GroupTask = Tuple[Tuple[str, ...], str, bool, Optional[Tuple[str, ...]],
                  Dict, Optional[str], Optional[str], int]

#: Why :func:`effective_split` runs cells on one thread without numba.
NO_JIT_THREADS_REASON = ("numba is not installed: interpreted replays "
                         "hold the GIL, so cell threads cannot overlap")


def build_sim(env: str, workload: str, config: SimConfig,
              stage1: Optional[Stage1Cache] = None):
    """Construct the simulation machine for one grid group."""
    try:
        env_cls = ENVIRONMENTS[env]
    except KeyError:
        raise KeyError(f"unknown environment {env!r}; "
                       f"have {sorted(ENVIRONMENTS)}") from None
    return env_cls(workload, config, stage1=stage1)


def error_cell(env: str, workload: str, thp: bool,
               design: Optional[str], exc: BaseException) -> Dict:
    """The JSON record for a grid cell (or whole group) that raised.

    Error cells carry an ``"error"`` key instead of statistics, so one
    crashing cell degrades the sweep document instead of poisoning it.
    """
    return {
        "env": env,
        "workload": workload,
        "design": design,
        "thp": thp,
        "error": f"{type(exc).__name__}: {exc}",
        "worker_pid": os.getpid(),
    }


def validate_grid(envs: Sequence[str],
                  designs: Optional[Sequence[str]] = None) -> None:
    """Raise :class:`KeyError` for an unknown environment or a design no
    swept environment provides (a design valid in only *some* swept
    environments is fine — it just runs where available)."""
    for env in envs:
        if env not in ENVIRONMENTS:
            raise KeyError(f"unknown environment {env!r}; "
                           f"have {sorted(ENVIRONMENTS)}")
    known_designs = set()
    for env in envs:
        known_designs.update(ENVIRONMENTS[env].designs)
    for design in designs or ():
        if design not in known_designs:
            raise KeyError(f"unknown design {design!r}; swept environments "
                           f"provide {sorted(known_designs)}")


def dead_group_cells(task: GroupTask, exc: BaseException) -> List[Dict]:
    """Error cells for a group whose *worker process* died.

    When a pool worker is OOM-killed or segfaults there is no per-cell
    result to report, but collapsing the group into one ``design=None``
    cell per environment would make it impossible for regress/diff
    tooling to see *which* cells are missing. Fabricate one error cell
    per (environment, requested design) — the task's design list when
    given, the environment class's full design set when sweeping all —
    so a dead group has exactly as many cells as a healthy one.
    """
    envs, workload, thp, designs = task[0], task[1], task[2], task[3]
    cells: List[Dict] = []
    for env in envs:
        env_cls = ENVIRONMENTS.get(env)
        available = tuple(env_cls.designs) if env_cls is not None else ()
        if designs:
            requested = [d for d in designs if d in available]
        else:
            requested = list(available)
        if not requested:
            cells.append(error_cell(env, workload, thp, None, exc))
            continue
        for design in requested:
            cells.append(error_cell(env, workload, thp, design, exc))
    return cells


def cell_sort_key(cell: Dict) -> Tuple:
    """Deterministic document order for grid cells."""
    return (cell["env"], cell["workload"], cell["thp"],
            cell.get("design") or "")


def write_document(document: Dict, out_path: str) -> None:
    """Serialize a sweep document atomically (tmp + ``os.replace``).

    A reader never observes a half-written JSON file, and an interrupt
    mid-dump leaves any previous complete document in place.
    """
    tmp = f"{out_path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def effective_workers(workers: int, tasks: int) -> int:
    """The pool size a sweep actually runs with.

    ``workers`` of 0/1 (or a single task) runs inline — one process, no
    pool — and a larger pool is capped at the task count; sweep
    documents record this value, not the requested one.
    """
    if workers <= 1 or tasks <= 1:
        return 1
    return min(workers, tasks)


def effective_split(workers: int, tasks: int,
                    cell_threads: Optional[int] = None
                    ) -> Tuple[int, int, Optional[str]]:
    """The ``processes × cell_threads`` split a sweep actually runs with.

    Processes follow :func:`effective_workers`. The per-group thread
    count is at least 1 (``None``/0 mean sequential cell replay), and
    exactly 1 without the compiled kernel backend: no cell can release
    the GIL then, so extra threads only add overhead. The third element
    is the reason threads were clamped below the request, or None.
    Sweep meta records the request, the effective split and the reason.
    """
    threads = max(1, int(cell_threads or 1))
    reason = None
    if threads > 1 and not kernels.HAVE_NUMBA:
        threads, reason = 1, NO_JIT_THREADS_REASON
    return effective_workers(workers, tasks), threads, reason


def threads_meta(cell_threads: Optional[int], threads: int,
                 reason: Optional[str]) -> Dict:
    """Sweep-meta fields for a requested vs effective thread count."""
    return {"requested_cell_threads": max(1, int(cell_threads or 1)),
            "cell_threads": threads,
            "cell_threads_reason": reason}


def run_group(task: GroupTask) -> List[Dict]:
    """Run one (workload, thp) group across its environments.

    The group shares one :class:`Stage1Cache`, so the trace and TLB-miss
    stream are computed by the first environment and reused by the rest
    (each cell's ``stage1_source`` telemetry records which); with an artifact directory in the task, the cache also
    persists stage 0/1 to disk and reuses results across runs. Returns one
    telemetry dict per grid cell; a design that raises yields an error
    cell while the group's other designs still complete (a failed
    machine build fails that environment's cells). A requested design no
    swept environment provides yields an error cell instead of being
    silently dropped. Module-level so the process pool can pickle it.

    Each machine's cells run through :func:`run_cells` on the task's
    ``cell_threads`` threads — bit-identical to sequential replay.

    Automatic cyclic GC stays off for the whole group: what a group
    allocates lives until its machine goes, and the one full collection
    after each built machine frees that machine's reference cycles.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _run_group(task)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_group(task: GroupTask) -> List[Dict]:
    envs, workload, thp, designs, config_kwargs, trace_path, \
        artifact_dir, cell_threads = task
    if trace_path:
        obs_trace.enable(trace_path)
    artifacts = ArtifactCache(artifact_dir) if artifact_dir else None
    stage1 = Stage1Cache(artifacts=artifacts)
    cells: List[Dict] = []
    group_start = time.perf_counter()
    # Design availability is a static property of the environment
    # classes, so an unknown design is detected even when a machine
    # build fails for other reasons (e.g. an unknown workload).
    provided: set = set()
    for env in envs:
        env_cls = ENVIRONMENTS.get(env)
        if env_cls is not None:
            provided.update(env_cls.designs)
    with obs_trace.span("sweep.run_group", envs="+".join(envs),
                        workload=workload, thp=thp,
                        cell_threads=cell_threads):
        for env in envs:
            try:
                config = SimConfig(thp=thp, **config_kwargs)
                build_start = time.perf_counter()
                with obs_trace.span("sweep.build_sim", env=env,
                                    workload=workload, thp=thp):
                    sim = build_sim(env, workload, config, stage1=stage1)
                build_seconds = time.perf_counter() - build_start
            except Exception as exc:
                cells.append(error_cell(env, workload, thp, None, exc))
                continue

            available = list(sim.designs)
            requested = [d for d in (designs or available)
                         if d in available]
            env_cells = []
            for design, result, seconds in run_cells(sim, requested,
                                                     cell_threads):
                if isinstance(result, Exception):
                    env_cells.append(error_cell(env, workload, thp, design,
                                                result))
                else:
                    env_cells.append(_cell_record(
                        sim, env, workload, thp, design, result, seconds,
                        build_seconds))
            vanilla = next((cell["mean_latency"] for cell in env_cells
                            if cell["design"] == "vanilla"
                            and "error" not in cell), None)
            for cell in env_cells:
                if "error" not in cell:
                    cell["walk_speedup"] = (
                        vanilla / cell["mean_latency"]
                        if vanilla and cell["mean_latency"] else None)
            cells.extend(env_cells)
            built = sim.built
            del sim
            if built:
                # A machine is held by reference cycles (write hooks,
                # VM <-> Hypervisor): free it before the next one grows.
                gc.collect()
    for design in designs or ():
        if design not in provided:
            exc = KeyError(f"unknown design {design!r}; no swept "
                           f"environment provides it")
            cells.append(error_cell("+".join(envs), workload, thp,
                                    design, exc))
    group_seconds = time.perf_counter() - group_start
    for cell in cells:
        cell["group_seconds"] = group_seconds
    return cells


def _cell_record(sim, env: str, workload: str, thp: bool, design: str,
                 stats, replay_seconds: float,
                 build_seconds: float) -> Dict:
    """The telemetry dict for one successfully replayed grid cell."""
    return {
        "env": env,
        "workload": workload,
        "design": design,
        "thp": thp,
        "walks": stats.walks,
        "mean_latency": stats.mean_latency,
        "fallback_rate": stats.fallback_rate,
        "miss_count": sim.tlb.miss_count,
        "total_refs": sim.tlb.total_refs,
        "tlb_miss_rate": sim.tlb.miss_rate,
        "stage1_seconds": sim.stage1_seconds,
        "stage1_source": sim.stage1_source,
        "walk_engine": stats.engine,
        "stage2_fallback_reason": stats.fallback_reason,
        "stage2_source": sim.stage2_source(design),
        "replay_seconds": replay_seconds,
        "walks_per_second": (stats.walks / replay_seconds
                             if replay_seconds > 0 else 0.0),
        "build_seconds": build_seconds,
        "peak_rss_kb": obs_trace.peak_rss_kb(),
        "worker_pid": os.getpid(),
    }


def run_cells(sim, designs: Sequence[str],
              threads: int = 1) -> List[Tuple[str, object, float]]:
    """Run ``sim.run(design)`` for each design, inline or on ``threads``.

    Returns ``(design, result, seconds)`` in design order, where
    ``result`` is the cell's :class:`~repro.sim.simulator.WalkStats` or
    the exception its run raised. A cell depends only on its own inputs
    (the machine builds the state its designs share once, under a lock,
    before the first walker), so threaded results are bit-identical to
    sequential ones.
    """
    def cell(design: str) -> Tuple[str, object, float]:
        start = time.perf_counter()
        try:
            result = sim.run(design)
        except Exception as exc:  # one failing design is one error cell
            result = exc
        return design, result, time.perf_counter() - start

    designs = list(designs)
    if threads <= 1 or len(designs) <= 1:
        return [cell(design) for design in designs]
    with ThreadPoolExecutor(max_workers=threads,
                            thread_name_prefix="cell") as pool:
        return list(pool.map(cell, designs))


def run_sweep(envs: Sequence[str] = ("native",),
              workloads: Optional[Sequence[str]] = None,
              designs: Optional[Sequence[str]] = None,
              thp_modes: Sequence[bool] = (False,),
              workers: Optional[int] = None,
              out_path: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None,
              trace_path: Optional[str] = None,
              artifact_dir: Optional[str] = None,
              resume_dir: Optional[str] = None,
              cell_threads: Optional[int] = None,
              shard_timeout: Optional[float] = None,
              max_retries: Optional[int] = None,
              **config_kwargs) -> Dict:
    """Run the grid, fanning groups across ``workers`` processes.

    ``config_kwargs`` (scale, nrefs, seed, levels, register_count, ...)
    are forwarded to each worker's :class:`SimConfig`. ``workers`` of 0/1
    runs inline — same results, no pool. Raises :class:`KeyError` for an
    unknown environment or a design no swept environment provides (a
    design valid in only *some* swept environments is fine — it just
    runs where available). With ``trace_path`` set, every group's span
    stream appends to that JSONL file (:mod:`repro.obs.trace`); if the
    caller already opened a trace stream, ``run_sweep`` leaves it open
    on exit instead of closing it from under them. With ``artifact_dir``
    set, workers share a cross-run
    :class:`~repro.sim.artifacts.ArtifactCache` there: TLB-miss
    streams and stage-2 cells computed by any previous run (or concurrent
    worker) are reused instead of recomputed, and each cell's
    ``stage1_source`` telemetry says whether its stage 1 came from
    ``"disk"``.

    Every sweep runs through :class:`~repro.sim.jobs.JobScheduler`
    (DESIGN.md §6, §14): a group whose pool worker dies (OOM kill,
    segfault) is retried with backoff, and only a group that exhausts
    its retries becomes per-(env, design) error cells. With
    ``resume_dir`` set, the sweep is a durable *job*: completed groups
    are journaled under that directory as they finish, and an
    interrupted sweep restarts from the journal re-running only missing
    groups. A directory that already holds a journal runs *its* grid,
    not this call's. ``shard_timeout`` and ``max_retries`` go to the
    scheduler (``None`` keeps its defaults: no timeout, 2 retries).

    ``cell_threads`` adds the second parallelism level: each group's
    worker replays its independent (env, design) cells on that many
    threads (DESIGN.md §15), clamped to 1 without numba
    (:func:`effective_split`). ``meta`` records the requested and the
    effective count, the reason for any clamp, and the resulting
    ``processes × cell_threads`` product as ``parallelism``. Results are
    bit-identical to ``cell_threads=1``.

    Returns the JSON-ready document ``{"meta": ..., "cells": [...]}``
    and writes it to ``out_path`` when given (atomic tmp + rename). An
    interrupted sweep (Ctrl-C, fatal error) still flushes the cells
    completed so far to ``out_path`` — marked ``meta.partial`` — before
    the exception propagates.
    """
    spec = jobs.JobSpec.build(envs=envs, workloads=workloads,
                              designs=designs, thp_modes=thp_modes,
                              **config_kwargs)
    if resume_dir is not None:
        journaled, _, _ = jobs.load_job(resume_dir)
        if journaled is not None:
            spec = journaled
            if progress is not None:
                progress(f"resuming journaled grid {spec.job_id} from "
                         f"{resume_dir} (CLI grid flags ignored)")
    return jobs.JobScheduler(spec, resume_dir, workers=workers,
                             out_path=out_path, progress=progress,
                             trace_path=trace_path,
                             artifact_dir=artifact_dir,
                             cell_threads=cell_threads,
                             shard_timeout=shard_timeout,
                             max_retries=max_retries).run()


def summarize(document: Dict) -> List[List]:
    """Rows for a human-readable sweep summary table."""
    rows = []
    for cell in document["cells"]:
        if "error" in cell:
            rows.append([
                cell["env"],
                cell["workload"],
                "THP" if cell["thp"] else "4KB",
                cell.get("design") or "(group)",
                f"ERROR: {cell['error']}",
                "-", "-", "-",
            ])
            continue
        speedup = cell.get("walk_speedup")
        rows.append([
            cell["env"],
            cell["workload"],
            "THP" if cell["thp"] else "4KB",
            cell["design"],
            f"{cell['mean_latency']:.1f}",
            f"{speedup:.2f}x" if speedup else "-",
            f"{cell['walks_per_second']:,.0f}",
            f"{cell['peak_rss_kb'] >> 10} MiB",
        ])
    return rows


def load_sweep(path: str) -> Dict:
    """Read a sweep document back from its JSON store."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
