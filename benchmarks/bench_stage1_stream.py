#!/usr/bin/env python
"""Streaming stage-1 bench: refs/sec throughput and peak-RSS footprint.

Not a paper figure — this bench guards the constant-memory streaming
pipeline (DESIGN.md §13). It runs one stage 0→1 pass (workload trace
generation and TLB filtering, chunk by chunk on one thread) and records
throughput plus the process's peak resident set size into
``BENCH_stage1_stream.json`` at the repo root, which ``python -m repro
regress`` compares against the archived baseline.

With ``--rss-budget-mb`` the run becomes a hard gate: exceeding the
budget exits non-zero. CI's ``stream-smoke`` job runs a 10^7-reference
GUPS pass this way — a change that quietly rematerializes the whole
trace blows the budget immediately, even though every parity test
still passes.

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_stage1_stream.py \
        --nrefs 10000000 --rss-budget-mb 1024
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.obs import trace as obs_trace
from repro.sim.machine import (
    DEFAULT_STREAM_CHUNK,
    NativeSimulation,
    SimConfig,
)

RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_stage1_stream.json")


def run_bench(workload: str, scale: int, nrefs: int, seed: int) -> dict:
    """One stage 0→1 pass; returns the result record."""
    config = SimConfig(scale=scale, nrefs=nrefs, seed=seed)
    start = time.perf_counter()
    sim = NativeSimulation(workload, config)
    wall = time.perf_counter() - start
    seconds = sim.stage1_seconds or wall
    return {
        "workload": workload,
        "scale": scale,
        "nrefs": nrefs,
        "seed": seed,
        "chunk": DEFAULT_STREAM_CHUNK,
        "total_refs": sim.tlb.total_refs,
        "miss_count": sim.tlb.miss_count,
        "stage1_seconds": seconds,
        "wall_seconds": wall,
        "refs_per_sec": sim.tlb.total_refs / seconds if seconds else 0.0,
        "peak_rss_kb": obs_trace.peak_rss_kb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="stage-1 streaming throughput / peak-RSS bench")
    parser.add_argument("--workload", default="GUPS")
    parser.add_argument("--scale", type=int, default=1024)
    parser.add_argument("--nrefs", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rss-budget-mb", type=int, default=None,
                        help="hard peak-RSS budget; exceeding it fails "
                             "the run (exit 1)")
    parser.add_argument("--out", default=RESULTS_PATH,
                        help="result JSON path (default: repo-root "
                             "BENCH_stage1_stream.json); '-' skips the "
                             "write")
    args = parser.parse_args(argv)

    record = run_bench(args.workload, args.scale, args.nrefs, args.seed)
    document = {"meta": {"bench": "stage1_stream"}, "stream": record}
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")

    rss_mb = record["peak_rss_kb"] / 1024.0
    print(f"{record['workload']} stage 1: {record['total_refs']:,} refs "
          f"in {record['stage1_seconds']:.2f}s "
          f"({record['refs_per_sec']:,.0f} refs/s), "
          f"{record['miss_count']:,} misses, peak RSS {rss_mb:,.0f} MiB")
    if args.rss_budget_mb is not None and rss_mb > args.rss_budget_mb:
        print(f"FAIL: peak RSS {rss_mb:,.0f} MiB exceeds the "
              f"{args.rss_budget_mb} MiB budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
