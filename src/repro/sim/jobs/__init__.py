"""Sweep execution and resumable sharded sweep jobs (DESIGN.md §6, §14).

Every sweep runs through :class:`~repro.sim.jobs.scheduler.JobScheduler`;
without a job directory it keeps no journal. A *job* is a sweep grid
made durable: the grid (plus its
:class:`~repro.sim.machine.SimConfig` kwargs) is content-hashed into a
``job_id`` (:mod:`~repro.sim.jobs.spec`), expanded into per-group
shards, and every completed shard is fsync-appended to a crash-safe
JSONL journal under the job directory
(:mod:`~repro.sim.jobs.journal`). A scheduler
(:mod:`~repro.sim.jobs.scheduler`) fans pending shards over a worker
pool with per-shard timeouts and bounded, backed-off retries of
worker-death failures; killing the scheduler at any instant loses at
most the shards in flight, and a resume replays the journal and
re-runs only what is missing. ``python -m repro sweep --resume <dir>``
(:func:`~repro.sim.sweep.run_sweep` with ``resume_dir``) starts a job
or resumes the one journaled in the directory; the client surface
(:mod:`~repro.sim.jobs.client`) backs ``python -m repro jobs
status|tail|cancel``.

A resumed sweep reuses the same :class:`~repro.sim.artifacts
.ArtifactCache`/:class:`~repro.sim.simulator.Stage1Cache` plumbing as
a plain one, so re-run shards serve stage 0/1 from disk, and the
assembled document is identical to an uninterrupted run's modulo
wall-time/pid/RSS telemetry (``scheduler.VOLATILE_CELL_KEYS``).
"""

from __future__ import annotations

from repro.sim.jobs.client import (cancel, format_status, load_job, status,
                                   tail)
from repro.sim.jobs.journal import Journal, read_journal
from repro.sim.jobs.scheduler import (VOLATILE_CELL_KEYS, JobScheduler,
                                      stable_cells)
from repro.sim.jobs.spec import JobSpec, Shard

__all__ = [
    "JobScheduler", "JobSpec", "Journal", "Shard", "VOLATILE_CELL_KEYS",
    "cancel", "format_status", "load_job", "read_journal", "stable_cells",
    "status", "tail",
]
