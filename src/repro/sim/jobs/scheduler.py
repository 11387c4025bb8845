"""The shard scheduler: the one sweep executor (DESIGN.md §6, §14).

Every sweep runs through one :class:`JobScheduler`, by way of
:func:`~repro.sim.sweep.run_sweep`: ``repro run`` (a one-group sweep),
``repro sweep`` and ``repro sweep --resume``. With a job directory,
``run()`` replays its journal, serves already-completed shards from it
(counted in the ``sweep.resumed_groups`` metric) and journals every
shard it completes; with ``job_dir=None`` it keeps no journal: no
files, no fsync, no cancel polling and no ``job`` key in the document's
meta. Either way it fans the missing shards over a worker pool in
*rounds*:

* when the missing shards fit one worker (``workers`` <= 1 or a single
  shard) every round runs inline, in this process; otherwise every
  round, retries included, runs on a fresh pool, so a shard that kills
  its worker never runs in the scheduler's own process;
* each round submits at most ``pool_size`` shards at a time, so a
  submitted shard starts (approximately) immediately and the per-shard
  ``shard_timeout`` can be measured from submission;
* a shard whose worker process dies (``BrokenProcessPool`` — OOM kill,
  segfault) or that exceeds its timeout *charges an attempt* and is
  re-queued for the next round after an exponential backoff, up to
  ``max_retries`` re-runs; shards the broken/abandoned pool never
  started are re-queued without charge;
* a timed-out shard's worker cannot be reclaimed through the Executor
  API, so the whole pool is abandoned (terminated) and the next round
  starts a fresh one;
* with a journal, every completed shard is fsync-appended to it
  *before* the scheduler moves on, so a SIGKILL at any instant loses at
  most the shards in flight.

Exceptions *inside* a group (a bad design, a failing machine build)
never reach the scheduler — :func:`~repro.sim.sweep.run_group` converts
them to per-cell error records, and the shard completes normally.
Retries are for infrastructure failures only.

A shard that exhausts its retries is marked ``failed`` (and journaled so)
and contributes one fabricated error cell per (environment, design)
(:func:`~repro.sim.sweep.dead_group_cells`), so the final document's
cell count still matches a healthy run's.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import trace as obs_trace
# Module import, attributes read at call time: sweep imports this
# package in turn, and tests patch sweep.run_group/write_document.
from repro.sim import sweep
from repro.sim.jobs import journal as jn
from repro.sim.jobs.spec import JobSpec, Shard

#: How long one ``wait()`` poll blocks before re-checking timeouts/cancel.
POLL_SECONDS = 0.2
#: Minimum spacing of poll-driven heartbeat records (completion-driven
#: ones are unthrottled — each marks real progress).
HEARTBEAT_SECONDS = 5.0
#: Default cap on re-runs of a shard after infrastructure failures.
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential inter-round backoff, in seconds.
DEFAULT_BACKOFF = 0.5
#: Longest single backoff sleep, however many retries accumulated.
MAX_BACKOFF_SECONDS = 30.0

#: Cell keys that vary run-to-run on identical results (wall time, pids,
#: RSS, cache provenance) — what resume-identity checks must ignore.
VOLATILE_CELL_KEYS = (
    "replay_seconds", "walks_per_second", "build_seconds",
    "stage1_seconds", "stage1_source",
    "stage2_source", "group_seconds",
    "peak_rss_kb", "worker_pid",
)


def stable_cells(cells: List[Dict]) -> List[Dict]:
    """Cells with volatile telemetry stripped, in document order."""
    return [{key: value for key, value in cell.items()
             if key not in VOLATILE_CELL_KEYS}
            for cell in sorted(cells, key=sweep.cell_sort_key)]


class JobScheduler:
    """Run (or resume) one sweep to completion; journaled when ``job_dir``
    is given."""

    def __init__(self, spec: JobSpec, job_dir: Optional[str], *,
                 workers: Optional[int] = None,
                 shard_timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 backoff: float = DEFAULT_BACKOFF,
                 out_path: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 artifact_dir: Optional[str] = None,
                 cell_threads: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 run_fn: Optional[Callable] = None):
        self.spec = spec
        self.job_dir = job_dir
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.shard_timeout = shard_timeout
        self.max_retries = DEFAULT_MAX_RETRIES if max_retries is None \
            else max_retries
        self.backoff = backoff
        self.out_path = out_path
        self.trace_path = trace_path
        self.artifact_dir = artifact_dir
        self.notify = progress or (lambda message: None)
        # Injectable for tests (suicidal/sleeping workers); must be
        # picklable for the pool path. Looked up on the sweep module at
        # construction so a patched ``sweep.run_group`` reaches workers.
        self._run_fn = run_fn or sweep.run_group
        self.journal: Optional[jn.Journal] = None
        self._shards = spec.shards()
        self._total = len(self._shards)
        self.requested_cell_threads = cell_threads
        _, self.cell_threads, self.cell_threads_reason = \
            sweep.effective_split(self.workers, self._total, cell_threads)
        self._journal_cells: Dict[str, List[Dict]] = {}
        self._new_cells: Dict[str, List[Dict]] = {}
        #: shard id -> its fabricated per-(env, design) error cells
        self._failed: Dict[str, List[Dict]] = {}
        self._failures: Dict[str, int] = {}
        self._cancelled = False
        self._last_heartbeat = float("-inf")
        # Sweep-wide counters for meta["metrics"], plus the job-layer
        # resume/retry telemetry.
        self._groups_done = 0
        self._cells_done = 0
        self._errors_seen = 0
        self._resumed = 0
        self._retried = 0

    # ------------------------------------------------------------------
    # journal interaction

    def _append(self, record: Dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _attach(self) -> None:
        """Open (or create) the journal and load completed shards."""
        if self.job_dir is None:
            return
        os.makedirs(self.job_dir, exist_ok=True)
        path = jn.journal_path(self.job_dir)
        records, torn = jn.read_journal(path)
        if torn:
            # Truncate the half-appended record so our own appends
            # start on a fresh line; its shard simply re-runs.
            jn.repair_journal(path)
        header = jn.job_record(records)
        if header is not None and header.get("job_id") != self.spec.job_id:
            raise ValueError(
                f"job directory {self.job_dir!r} belongs to job "
                f"{header.get('job_id')!r}, not {self.spec.job_id!r}; "
                f"refusing to mix grids in one journal")
        self.journal = jn.Journal(path)
        if header is None:
            self.journal.append({
                "type": "job",
                "job_id": self.spec.job_id,
                "spec": self.spec.canonical(),
                "unix": time.time(),
            })
        else:
            self.journal.append({
                "type": "resume",
                "job_id": self.spec.job_id,
                "torn_tail": torn,
                "pid": os.getpid(),
                "unix": time.time(),
            })
        valid = {shard.shard_id for shard in self._shards}
        for shard_id, record in jn.completed_shards(records).items():
            if shard_id in valid:
                self._journal_cells[shard_id] = record["cells"]
        self._resumed += len(self._journal_cells)

    def _heartbeat(self, running: List[str], force: bool = True) -> None:
        if self.journal is None:
            return
        now = time.monotonic()
        if not force and now - self._last_heartbeat < HEARTBEAT_SECONDS:
            return
        self._last_heartbeat = now
        self.journal.append({
            "type": "heartbeat",
            "done": len(self._journal_cells) + len(self._new_cells),
            "total": self._total,
            "failed": sorted(self._failed),
            "running": running,
            "pid": os.getpid(),
            "unix": time.time(),
        })

    def _record_shard(self, shard: Shard, cells: List[Dict],
                      seconds: float) -> None:
        """Journal one completed shard — durability point for its cells."""
        self._append({
            "type": "shard",
            "shard_id": shard.shard_id,
            "attempt": self._failures.get(shard.shard_id, 0) + 1,
            "seconds": seconds,
            "pid": os.getpid(),
            "unix": time.time(),
            "cells": cells,
        })
        self._new_cells[shard.shard_id] = cells
        self._groups_done += 1
        self._cells_done += len(cells)
        self._errors_seen += sum(1 for cell in cells if "error" in cell)
        done = len(self._journal_cells) + len(self._new_cells)
        self.notify(f"[{done}/{self._total}] {shard.shard_id} done")

    def _cancel_requested(self) -> bool:
        if self.job_dir is not None and not self._cancelled and \
                os.path.exists(jn.cancel_path(self.job_dir)):
            self._cancelled = True
            self._append({"type": "cancel", "pid": os.getpid(),
                          "unix": time.time()})
            self.notify("cancel requested; draining")
        return self._cancelled

    # ------------------------------------------------------------------
    # rounds

    def _charge_failure(self, shard: Shard, error: str) -> None:
        """Count one failed attempt; re-queue or give up on the shard."""
        failures = self._failures.get(shard.shard_id, 0) + 1
        self._failures[shard.shard_id] = failures
        if failures <= self.max_retries:
            backoff = min(self.backoff * (2 ** (failures - 1)),
                          MAX_BACKOFF_SECONDS)
            self._retried += 1
            self._append({
                "type": "retry", "shard_id": shard.shard_id,
                "attempt": failures, "error": error,
                "backoff_seconds": backoff, "unix": time.time(),
            })
            self.notify(f"retrying {shard.shard_id} "
                        f"(attempt {failures + 1}) after {error}")
        else:
            cells = sweep.dead_group_cells(self.spec.task(shard),
                                           RuntimeError(error))
            self._failed[shard.shard_id] = cells
            self._groups_done += 1
            self._cells_done += len(cells)
            self._errors_seen += len(cells)
            self._append({
                "type": "failed", "shard_id": shard.shard_id,
                "attempts": failures, "error": error, "unix": time.time(),
            })
            self.notify(f"{shard.shard_id} FAILED after "
                        f"{failures} attempts: {error}")

    def _run_inline_round(
            self, shards: List[Shard]) -> Tuple[List[Tuple[Shard, str]],
                                                List[Shard]]:
        """Run a round in-process; timeouts are not enforced inline."""
        charged: List[Tuple[Shard, str]] = []
        for index, shard in enumerate(shards):
            if self._cancel_requested():
                return charged, shards[index:]
            task = self.spec.task(shard, self.trace_path, self.artifact_dir,
                                  self.cell_threads)
            started = time.perf_counter()
            try:
                cells = self._run_fn(task)
            except Exception as exc:
                charged.append((shard, f"{type(exc).__name__}: {exc}"))
            else:
                self._record_shard(shard, cells,
                                   time.perf_counter() - started)
                self._heartbeat(running=[])
        return charged, []

    def _run_pool_round(
            self, shards: List[Shard],
            pool_size: int) -> Tuple[List[Tuple[Shard, str]], List[Shard]]:
        """Run one round over a fresh pool.

        Returns ``(charged, leftovers)``: shards whose attempt failed
        (worker death, timeout) and shards the round never started
        (broken/abandoned pool, cancel) that re-queue without charge.
        """
        charged: List[Tuple[Shard, str]] = []
        pending = list(shards)
        running: Dict = {}  # future -> (shard, submitted_monotonic, perf0)
        abandoned = False
        pool = ProcessPoolExecutor(max_workers=pool_size)
        try:
            while pending or running:
                if self._cancel_requested():
                    break
                broken = False
                while pending and len(running) < pool_size:
                    shard = pending[0]
                    task = self.spec.task(shard, self.trace_path,
                                          self.artifact_dir,
                                          self.cell_threads)
                    try:
                        future = pool.submit(self._run_fn, task)
                    except (BrokenProcessPool, RuntimeError):
                        broken = True
                        break
                    pending.pop(0)
                    running[future] = (shard, time.monotonic(),
                                      time.perf_counter())
                if not running:
                    if broken:
                        abandoned = True
                    break
                done, _ = wait(set(running), timeout=POLL_SECONDS,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    shard, _, perf0 = running.pop(future)
                    try:
                        cells = future.result()
                    except Exception as exc:
                        # run_group converts in-group exceptions to error
                        # cells; reaching here means the worker process
                        # died or its result failed to unpickle.
                        charged.append(
                            (shard, f"{type(exc).__name__}: {exc}"))
                    else:
                        self._record_shard(shard, cells,
                                           time.perf_counter() - perf0)
                self._heartbeat(running=[s.shard_id
                                         for s, _, _ in running.values()],
                                force=bool(done))
                if self.shard_timeout is not None and running:
                    now = time.monotonic()
                    expired = [future for future, (_, t0, _)
                               in running.items()
                               if now - t0 > self.shard_timeout]
                    if expired:
                        for future in expired:
                            shard, _, _ = running.pop(future)
                            charged.append((
                                shard,
                                f"TimeoutError: shard exceeded "
                                f"{self.shard_timeout:g}s"))
                        # A hung worker can't be reclaimed through the
                        # Executor API: abandon the whole pool and let
                        # the next round start fresh.
                        abandoned = True
                        break
        finally:
            leftovers = pending + [shard for shard, _, _ in running.values()]
            if abandoned:
                # Snapshot the worker processes first — shutdown drops
                # the executor's reference to them.
                procs = list((getattr(pool, "_processes", None)
                              or {}).values())
                pool.shutdown(wait=False, cancel_futures=True)
                for proc in procs:
                    proc.terminate()
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        return charged, leftovers

    # ------------------------------------------------------------------
    # the job

    def run(self) -> Dict:
        """Run every missing shard and return the assembled document.

        Writes the document to ``out_path`` once, through
        ``sweep.write_document``. An interrupted run (Ctrl-C, fatal
        error) first flushes the groups completed so far as a document
        marked ``meta.partial``, then re-raises. A ``trace_path`` stream
        this call opened is closed on exit; one the caller opened stays
        open.
        """
        owns_trace = bool(self.trace_path) and not obs_trace.active()
        if self.trace_path:
            obs_trace.enable(self.trace_path)
        started = time.time()
        pool_size = 1
        try:
            self._attach()
            pending = [shard for shard in self._shards
                       if shard.shard_id not in self._journal_cells]
            if self._journal_cells:
                self.notify(f"resuming job {self.spec.job_id}: "
                            f"{len(self._journal_cells)} of {self._total} "
                            f"group(s) served from the journal, "
                            f"{len(pending)} to run")
            pool_size = sweep.effective_workers(
                self.workers, len(pending)) if pending else 1
            job_span = nullcontext() if self.journal is None else \
                obs_trace.span("job.run", job_id=self.spec.job_id,
                               shards=self._total,
                               resumed=len(self._journal_cells))
            with job_span:
                self._run_rounds(pending, pool_size)
        except BaseException:
            # A journal already holds every completed shard; also flush
            # a partial document for out_path readers.
            if self.out_path and (self._new_cells or self._journal_cells):
                try:
                    sweep.write_document(
                        self._document(started, pool_size, partial=True),
                        self.out_path)
                except OSError:
                    pass  # the original exception matters more
            raise
        finally:
            if self.journal is not None:
                self.journal.close()
            if owns_trace:
                obs_trace.disable()

        document = self._document(started, pool_size)
        if self.journal is not None and not document["meta"].get("partial"):
            with jn.Journal(jn.journal_path(self.job_dir)) as journal:
                journal.append({
                    "type": "done",
                    "job_id": self.spec.job_id,
                    "cells": len(document["cells"]),
                    "wall_seconds": document["meta"]["wall_seconds"],
                    "unix": time.time(),
                })
        if self.out_path:
            sweep.write_document(document, self.out_path)
        return document

    def _run_rounds(self, queue: List[Shard], pool_size: int) -> None:
        """Run rounds until every shard completed or failed (or cancel).

        A run that started on a pool retries on a pool too, even for a
        single shard: a group that killed its worker must never run in
        (and take down) the scheduler's own process.
        """
        while queue and not self._cancel_requested():
            self._heartbeat(running=[])
            if pool_size == 1:
                charged, leftovers = self._run_inline_round(queue)
            else:
                charged, leftovers = self._run_pool_round(
                    queue, min(pool_size, len(queue)))
            queue = list(leftovers)
            backoffs = []
            for shard, error in charged:
                self._charge_failure(shard, error)
                if shard.shard_id not in self._failed:
                    queue.append(shard)
                    failures = self._failures[shard.shard_id]
                    backoffs.append(min(self.backoff * (2 ** (failures - 1)),
                                        MAX_BACKOFF_SECONDS))
            if backoffs and not self._cancel_requested():
                time.sleep(max(backoffs))

    def _document(self, started: float, pool_size: int,
                  partial: bool = False) -> Dict:
        """Assemble the sweep document from journal + this run's shards."""
        spec = self.spec
        cells: List[Dict] = []
        resumed_groups = 0
        missing: List[str] = []
        for shard in self._shards:
            shard_id = shard.shard_id
            if shard_id in self._new_cells:
                cells.extend(self._new_cells[shard_id])
            elif shard_id in self._journal_cells:
                cells.extend(self._journal_cells[shard_id])
                resumed_groups += 1
            elif shard_id in self._failed:
                cells.extend(self._failed[shard_id])
            else:
                missing.append(shard_id)
        cells.sort(key=sweep.cell_sort_key)
        meta = {
            "envs": list(spec.envs),
            "workloads": list(spec.workloads or sweep.ALL_WORKLOADS),
            "designs": list(spec.designs) if spec.designs else "all",
            "thp_modes": [bool(t) for t in spec.thp_modes],
            "config": dict(spec.config),
            "workers": pool_size,
            "requested_workers": self.workers,
            **sweep.threads_meta(self.requested_cell_threads,
                                 self.cell_threads,
                                 self.cell_threads_reason),
            "parallelism": pool_size * self.cell_threads,
            "groups": self._total,
            "cells": len(cells),
            "wall_seconds": time.time() - started,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                        time.localtime(started)),
            "trace": self.trace_path,
            "artifact_cache": self.artifact_dir,
            "metrics": {
                "sweep.groups": self._groups_done,
                "sweep.cells": self._cells_done,
                "sweep.error_cells": self._errors_seen,
            },
        }
        if self.job_dir is not None:
            meta["job"] = {
                "job_id": spec.job_id,
                "dir": self.job_dir,
                "resumed_groups": resumed_groups,
                "retried_shards": self._retried,
                "failed_shards": sorted(self._failed),
                "cancelled": self._cancelled,
            }
            meta["metrics"]["sweep.resumed_groups"] = self._resumed
            meta["metrics"]["sweep.retried_shards"] = self._retried
        if partial or missing or self._cancelled:
            meta["partial"] = True
            meta["completed_groups"] = \
                len(self._journal_cells) + len(self._new_cells)
            meta["missing_groups"] = missing
        return {"meta": meta, "cells": cells}
