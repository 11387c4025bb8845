"""Client surface for sweep jobs: status, tail, cancel.

A job is started and resumed by one call, ``run_sweep(resume_dir=DIR)``
(``python -m repro sweep --resume DIR``). Everything here reads or
signals a job's journal — ``python -m repro jobs status|tail|cancel``
are its CLI, and anything else (dashboards, CI) can use these functions
too.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.jobs import journal as jn
from repro.sim.jobs.spec import JobSpec


def load_job(job_dir: str) -> Tuple[Optional[JobSpec], List[Dict], bool]:
    """``(spec, records, torn)`` from a job directory's journal.

    ``spec`` is ``None`` when the directory has no journal (or the
    journal lost its header to a torn tail).
    """
    records, torn = jn.read_journal(jn.journal_path(job_dir))
    header = jn.job_record(records)
    spec = JobSpec.from_canonical(header["spec"]) if header else None
    return spec, records, torn


def cancel(job_dir: str) -> bool:
    """Ask the scheduler working on ``job_dir`` to drain and stop.

    Drops a ``CANCEL`` sentinel (polled by the scheduler between shard
    completions) and journals the request. Returns ``False`` when the
    job had already finished.
    """
    _, records, _ = load_job(job_dir)
    if jn.is_done(records):
        return False
    with open(jn.cancel_path(job_dir), "w", encoding="utf-8") as handle:
        handle.write(f"{time.time()}\n")
    with jn.Journal(jn.journal_path(job_dir)) as journal:
        journal.append({"type": "cancel", "pid": os.getpid(),
                        "unix": time.time()})
    return True


def status(job_dir: str) -> Dict:
    """A JSON-ready progress summary parsed from the journal."""
    spec, records, torn = load_job(job_dir)
    if spec is None:
        return {"job_dir": job_dir, "state": "missing"}
    done = jn.completed_shards(records)
    failed = sorted({record["shard_id"] for record in records
                     if record.get("type") == "failed"} - set(done))
    total = len(spec.shards())
    heartbeats = [record for record in records
                  if record.get("type") == "heartbeat"]
    if jn.is_done(records):
        state = "done"
    elif jn.is_cancelled(records):
        state = "cancelled"
    elif len(done) + len(failed) >= total:
        state = "complete"  # every shard accounted for, no done marker
    else:
        state = "in-progress"
    cells = sum(len(record["cells"]) for record in done.values())
    return {
        "job_dir": job_dir,
        "job_id": spec.job_id,
        "state": state,
        "groups_done": len(done),
        "groups_total": total,
        "failed_shards": failed,
        "cells_journaled": cells,
        "retries": jn.retry_count(records),
        "resumes": sum(1 for record in records
                       if record.get("type") == "resume"),
        "torn_tail": torn,
        "last_heartbeat_unix": heartbeats[-1]["unix"] if heartbeats
        else None,
        "spec": spec.canonical(),
    }


def format_status(summary: Dict) -> str:
    """One human-readable block for ``jobs status``."""
    if summary.get("state") == "missing":
        return f"{summary['job_dir']}: no job journal"
    lines = [
        f"job {summary['job_id']}  [{summary['state']}]  "
        f"{summary['groups_done']}/{summary['groups_total']} group(s), "
        f"{summary['cells_journaled']} cell(s) journaled",
        f"  dir: {summary['job_dir']}  retries: {summary['retries']}  "
        f"resumes: {summary['resumes']}",
    ]
    if summary["failed_shards"]:
        lines.append(f"  failed: {', '.join(summary['failed_shards'])}")
    if summary["torn_tail"]:
        lines.append("  journal tail torn (crash mid-append); "
                     "the interrupted shard will re-run on resume")
    if summary["last_heartbeat_unix"]:
        age = time.time() - summary["last_heartbeat_unix"]
        lines.append(f"  last heartbeat: {age:.0f}s ago")
    return "\n".join(lines)


def tail(job_dir: str, count: int = 20, follow: bool = False,
         emit: Callable[[str], None] = print,
         poll_seconds: float = 0.5) -> None:
    """Print the last ``count`` journal records; ``follow`` streams.

    Shard records are summarized (their full cell payload would swamp a
    terminal); every other record type prints verbatim.
    """
    path = jn.journal_path(job_dir)
    records, _ = jn.read_journal(path)
    for record in records[-count:]:
        emit(_render(record))
    if not follow:
        return
    offset = len(records)
    while True:
        records, _ = jn.read_journal(path)
        for record in records[offset:]:
            emit(_render(record))
        offset = len(records)
        if records and records[-1].get("type") in ("done", "cancel"):
            return
        time.sleep(poll_seconds)


def _render(record: Dict) -> str:
    kind = record.get("type", "?")
    if kind == "shard":
        return (f"shard {record['shard_id']} done "
                f"(attempt {record.get('attempt', 1)}, "
                f"{len(record.get('cells', []))} cells, "
                f"{record.get('seconds', 0):.2f}s)")
    return json.dumps(record, sort_keys=True)
