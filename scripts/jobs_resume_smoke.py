#!/usr/bin/env python
"""CI smoke for resumable sweep jobs (ISSUE 9 acceptance).

Runs one uninterrupted reference sweep in-process, then launches the
same grid as a durable job in a subprocess and injects a failure:

* ``--kill-mode job``    — SIGKILL the whole scheduler process after at
  least one shard record lands in the journal, then resume with
  ``python -m repro sweep --resume`` and require ≥1 journal-served
  group (``meta.job.resumed_groups``);
* ``--kill-mode worker`` — SIGKILL one *pool worker* child instead; the
  scheduler must survive, retry the dead shard(s) with backoff
  (``meta.job.retried_shards`` ≥ 1 via the journal's retry records),
  and finish on its own.

Either way the final document's cells must be identical to the
reference run's for every (env, workload, design, thp) key, modulo the
wall-time/pid/RSS telemetry in ``VOLATILE_CELL_KEYS``, and
``python -m repro jobs status`` on the finished job must exit 0 and
report it ``done``. Exits non-zero on any violation.

Usage::

    python scripts/jobs_resume_smoke.py --kill-mode job --workdir /tmp/x
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sim.jobs import read_journal, stable_cells  # noqa: E402
from repro.sim.jobs.journal import journal_path  # noqa: E402
from repro.sim.sweep import run_sweep  # noqa: E402

GRID = ["--env", "native", "--workloads", "GUPS,Redis,BTree",
        "--designs", "vanilla,dmt", "--scale", "2048", "--nrefs", "8000"]
GRID_KWARGS = dict(envs=["native"], workloads=["GUPS", "Redis", "BTree"],
                   designs=["vanilla", "dmt"], scale=2048, nrefs=8000)


def wait_for_shard_record(journal: str, deadline_seconds: float = 120.0,
                          count: int = 1) -> None:
    deadline = time.time() + deadline_seconds
    while time.time() < deadline:
        if os.path.exists(journal):
            records, _ = read_journal(journal)
            if sum(1 for r in records if r.get("type") == "shard") >= count:
                return
        time.sleep(0.05)
    raise SystemExit(f"no shard record appeared in {journal} within "
                     f"{deadline_seconds}s")


def pool_worker_pids(parent_pid: int) -> list:
    """The direct children of ``parent_pid`` (Linux /proc)."""
    pids = []
    for task in os.listdir(f"/proc/{parent_pid}/task"):
        children = f"/proc/{parent_pid}/task/{task}/children"
        try:
            with open(children, encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kill-mode", choices=("job", "worker"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    job_dir = os.path.join(args.workdir, "job")
    out_path = os.path.join(args.workdir, "final.json")
    # Separate artifact caches: the job leg runs stage 0/1 cold, which
    # keeps the kill window wide; the resumed process still shares the
    # job's cache, so re-run shards serve stage 1 from disk. Results
    # are bit-identical either way.
    ref_artifacts = os.path.join(args.workdir, "artifacts-ref")
    job_artifacts = os.path.join(args.workdir, "artifacts-job")

    print("reference: uninterrupted in-process sweep")
    reference = stable_cells(run_sweep(
        workers=2, artifact_dir=ref_artifacts, **GRID_KWARGS)["cells"])

    argv = [sys.executable, "-m", "repro", "sweep", "--resume", job_dir,
            "--workers", "2", "--artifact-cache", job_artifacts,
            "--out", out_path] + GRID
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    env = dict(os.environ, PYTHONPATH=src)
    print(f"launching job subprocess ({args.kill_mode} leg)")
    # Own session so the job-kill leg can SIGKILL the whole process
    # group: killing only the scheduler would orphan its pool workers,
    # which then sleep forever on the call-queue pipe (each worker
    # holds a write end, so no EOF ever arrives).
    proc = subprocess.Popen(argv, env=env, start_new_session=True)
    journal = journal_path(job_dir)

    if args.kill_mode == "job":
        wait_for_shard_record(journal)
        if proc.poll() is not None:
            raise SystemExit("job finished before it could be killed; "
                             "grow the grid")
        print(f"SIGKILLing scheduler process group {proc.pid}")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        records, _ = read_journal(journal)
        shards_before = [r["shard_id"] for r in records
                         if r.get("type") == "shard"]
        print(f"journaled before kill: {shards_before}")
        if os.path.exists(out_path):
            os.remove(out_path)  # the kill must not have written it
        print("resuming")
        code = subprocess.call(argv, env=env)
        if code != 0:
            raise SystemExit(f"resume exited {code}")
    else:
        # Kill one pool worker: the scheduler itself must survive,
        # retry the shard(s) the broken pool dropped, and finish.
        deadline = time.time() + 120
        victims = []
        while time.time() < deadline and not victims:
            victims = pool_worker_pids(proc.pid)
            time.sleep(0.05)
        if not victims:
            raise SystemExit("no pool worker appeared to kill")
        print(f"SIGKILLing pool worker pid {victims[0]}")
        try:
            os.kill(victims[0], signal.SIGKILL)
        except ProcessLookupError:
            raise SystemExit("pool worker exited before it could be "
                             "killed; shrink the grid?")
        code = proc.wait()
        if code != 0:
            raise SystemExit(f"scheduler exited {code} after worker kill")
        records, _ = read_journal(journal)
        retries = [r for r in records if r.get("type") == "retry"]
        print(f"retry records: {[r['shard_id'] for r in retries]}")
        if not retries:
            raise SystemExit("worker kill produced no retry record")

    with open(out_path, encoding="utf-8") as handle:
        document = json.load(handle)
    meta = document["meta"]
    job = meta["job"]
    print(f"job {job['job_id']}: resumed_groups={job['resumed_groups']} "
          f"retried_shards={job['retried_shards']} "
          f"failed={job['failed_shards']}")
    if meta.get("partial"):
        raise SystemExit(f"final document is partial: "
                         f"{meta.get('missing_groups')}")
    if job["failed_shards"]:
        raise SystemExit(f"shards failed permanently: "
                         f"{job['failed_shards']}")
    if args.kill_mode == "job" and job["resumed_groups"] < 1:
        raise SystemExit("resume re-ran everything; nothing came from "
                         "the journal")
    if args.kill_mode == "worker" and job["retried_shards"] < 1:
        raise SystemExit("no shard retry was recorded in the document")
    final = stable_cells(document["cells"])
    if final != reference:
        raise SystemExit("resumed document diverged from the "
                         "uninterrupted reference run")
    status = subprocess.run([sys.executable, "-m", "repro", "jobs", "status",
                             job_dir], env=env, capture_output=True,
                            text=True)
    print(status.stdout, end="")
    if status.returncode != 0 or "[done]" not in status.stdout:
        raise SystemExit(f"jobs status exited {status.returncode} without "
                         f"reporting the job done: {status.stderr}")
    print(f"OK: {len(final)} cells identical to the reference run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
