"""End-to-end benchmark: host time to reproduce the Figure 14/15/17 grids.

What a user of this repository runs to reproduce a paper figure is one
``repro.sim.sweep.run_sweep`` call over that figure's grid. This
benchmark times exactly that call, cold (empty artifact cache) and warm
(cache primed by an earlier sweep), and with ``--trace 1`` splits it into
per-layer self times (``spans.py``).

Run from the repository root::

    python3 benchmarks/e2e/bench_e2e.py --workload fig14-cold --seed 0 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/bench_e2e.py --out A.json   # every workload

Every repetition runs one sweep in a fresh child interpreter (this file
with ``--child``) with ``workers=1`` and ``cell_threads=1``: one busy
core, a closed loop of one caller. Repetitions continue until
``--seconds`` is spent (at least ``--runs`` of them); each metric is
reported as the median, with max and sample count in ``--out``. The
artifact cache and sweep document live in a temporary ``.bench-e2e-*``
directory in the checkout (a run reads and writes nothing outside it),
which is removed when the run ends.

Correctness: a digest of every cell's simulated output must match
``golden.json`` for the seed (or, for a seed without a golden value,
every repetition of the run must agree: cold == warm == traced). Error
cells and mismatching repetitions count as failed cells. The warm
workload must serve every cell from the stage-2 result cache.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (cells), and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import spans  # noqa: E402  (needs repro on the path)
from repro.obs import trace as obs_trace  # noqa: E402

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: The sweep config of every workload; ``--seed`` goes beside it.
CONFIG = {"scale": 4096, "nrefs": 5000, "walk_engine": "auto"}

#: A child sweep taking longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: Cell fields that are simulated output, not host telemetry.
STABLE_FIELDS = ("env", "workload", "design", "thp", "walks", "mean_latency",
                 "fallback_rate", "miss_count", "tlb_miss_rate")


@dataclass(frozen=True)
class Grid:
    """One paper grid, swept cold or against a primed cache.

    ``None`` for workloads or designs sweeps all of them.
    """

    envs: Tuple[str, ...]
    workloads: Optional[Tuple[str, ...]]
    designs: Optional[Tuple[str, ...]]
    thp_modes: Tuple[bool, ...]
    #: design whose geomean walk speedup is printed beside the paper's
    headline: str
    #: the paper's geomean walk speedup per page mode (EXPERIMENTS.md)
    paper: Tuple[Tuple[str, float], ...]
    warm: bool = False


_FIG14 = dict(envs=("native",), workloads=None, designs=None,
              thp_modes=(False, True), headline="dmt",
              paper=(("4KB", 1.28), ("THP", 1.46)))

GRIDS: Dict[str, Grid] = {
    "fig14-cold": Grid(**_FIG14),
    "fig14-warm": Grid(**_FIG14, warm=True),
    "fig15-cold": Grid(envs=("virt",), workloads=("GUPS", "BTree", "Canneal"),
                       designs=None, thp_modes=(False,), headline="pvdmt",
                       paper=(("4KB", 1.58),)),
    "fig17-cold": Grid(envs=("nested",),
                       workloads=("GUPS", "Redis", "BTree", "Canneal"),
                       designs=("vanilla", "pvdmt"), thp_modes=(False,),
                       headline="pvdmt", paper=(("4KB", 1.02),)),
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong result)."""


def grid_digest(cells: List[Dict]) -> str:
    """SHA-256 over the stable fields of a sweep document's cells."""
    rows = [{key: cell.get(key) for key in STABLE_FIELDS} for cell in cells]
    body = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(top, name))
               for top, _dirs, files in os.walk(path) for name in files)


# --------------------------------------------------------------------- #
# Child: one sweep in a fresh interpreter
# --------------------------------------------------------------------- #

def child(spec: Dict) -> Dict:
    """Run one sweep as ``spec`` describes it; returns what was measured."""
    from repro.sim.kernels import BACKEND
    from repro.sim.simulator import geomean
    from repro.sim.sweep import run_sweep

    traced = spec["spans_path"]
    with spans.installed(traced) if traced else nullcontext():
        call_start = time.monotonic()
        start = time.perf_counter()
        document = run_sweep(
            envs=spec["envs"], workloads=spec["workloads"],
            designs=spec["designs"], thp_modes=spec["thp_modes"],
            workers=1, cell_threads=1, artifact_dir=spec["cache_dir"],
            out_path=spec["out_path"], seed=spec["seed"], **spec["config"])
        wall_s = time.perf_counter() - start
    cells = document["cells"]
    ok = [cell for cell in cells if "error" not in cell]
    speedups = {}
    for thp in spec["thp_modes"]:
        values = [cell["walk_speedup"] for cell in ok
                  if cell["design"] == spec["headline"] and cell["thp"] == thp
                  and cell.get("walk_speedup")]
        if values:
            speedups["THP" if thp else "4KB"] = geomean(values)
    return {
        "call_start": call_start,
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": grid_digest(cells),
        "cells": len(cells),
        "error_cells": len(cells) - len(ok),
        "disk_cells": sum(cell["stage2_source"] == "disk" for cell in ok),
        "walks": sum(cell["walks"] for cell in ok),
        "engines": sorted({cell["walk_engine"] for cell in ok}),
        "backend": BACKEND,
        "disk_mb": dir_bytes(spec["cache_dir"]) / 2**20,
        "speedups": speedups,
    }


# --------------------------------------------------------------------- #
# Parent: repetitions, checks and the result line
# --------------------------------------------------------------------- #

def launch(spec: Dict) -> Dict:
    """Run one child sweep; adds its set-up and total seconds."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    exited = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"child sweep exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["call_start"] - launched
    result["total_s"] = exited - launched
    return result


def repetition(grid: Grid, seed: int, traced: bool, work: str) -> Dict:
    """One timed sweep (after a priming sweep for a warm grid)."""
    rep_dir = tempfile.mkdtemp(prefix="rep-", dir=work)
    try:
        spec = {
            "envs": grid.envs, "workloads": grid.workloads,
            "designs": grid.designs,
            "thp_modes": grid.thp_modes, "headline": grid.headline,
            "seed": seed, "config": CONFIG,
            "cache_dir": os.path.join(rep_dir, "cache"),
            "out_path": os.path.join(rep_dir, "sweep.json"),
            "spans_path": None,
        }
        prime = launch(spec) if grid.warm else None
        if traced:
            spec["spans_path"] = os.path.join(rep_dir, "spans.jsonl")
        result = launch(spec)
        result["traced"] = traced
        result["prime_digest"] = prime["digest"] if prime else None
        if prime is not None:
            # set-up of a warm sweep is everything before its timed call
            result["setup_s"] += prime["total_s"]
        if traced:
            layers = spans.rollup(obs_trace.read_events(spec["spans_path"]),
                                  result["wall_s"])
            layers["artifacts.disk_mb"] = result["disk_mb"]
            layers["stage2.result_hit_ratio"] = (result["disk_cells"]
                                                 / result["cells"])
            result["layers"] = layers
        return result
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def golden_digest(name: str, seed: int) -> Optional[str]:
    """The recorded digest for (workload, seed), if any."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    if golden["config"] != CONFIG:
        raise BenchError(f"{GOLDEN_PATH} holds digests of config "
                         f"{golden['config']}, not {CONFIG}")
    return golden["digests"].get(name, {}).get(str(seed))


def failed_cells(rep: Dict, reference: str, warm: bool) -> int:
    """Cells of one repetition that count as failed.

    Every cell fails when the simulated output differs from the
    reference (one digest covers the whole grid); otherwise error cells
    fail, and on a warm grid so does every cell not served from disk.
    """
    if rep["digest"] != reference or (
            rep["prime_digest"] not in (None, reference)):
        return rep["cells"]
    if warm:
        return max(rep["error_cells"], rep["cells"] - rep["disk_cells"])
    return rep["error_cells"]


def summary(values: List[float], unit: str) -> Dict:
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool,
            runs: int) -> Dict:
    """Repeat the workload's sweep for ``seconds``; the run's result."""
    grid = GRIDS[name]
    golden = golden_digest(name, seed)
    # traced and untraced repetitions alternate, so a traced run also
    # times the untraced sweep that gives trace.overhead_frac
    min_reps = max(runs, 2 if trace else 1)
    reps: List[Dict] = []
    started = time.monotonic()
    longest = 0.0
    with tempfile.TemporaryDirectory(prefix=".bench-e2e-", dir=ROOT) as work:
        while (len(reps) < min_reps
               or time.monotonic() - started + longest <= seconds):
            rep_start = time.monotonic()
            traced = trace and len(reps) % 2 == 0
            reps.append(repetition(grid, seed, traced, work))
            longest = max(longest, time.monotonic() - rep_start)

    reference = golden or reps[0]["digest"]
    attempted = sum(rep["cells"] for rep in reps)
    failed = sum(failed_cells(rep, reference, grid.warm) for rep in reps)
    plain = [rep for rep in reps if not rep["traced"]]
    traced_reps = [rep for rep in reps if rep["traced"]]
    end_to_end = {
        "wall_s": summary([r["wall_s"] for r in plain], "s"),
        "walks_per_s": summary([r["walks"] / r["wall_s"] for r in plain],
                               "1/s"),
        "peak_rss_mb": summary([r["peak_rss_kb"] / 1024 for r in plain],
                               "MiB"),
        "setup_s": summary([r["setup_s"] for r in plain], "s"),
        "fail_ratio": summary([failed / attempted], "ratio"),
    }
    layers: Dict[str, object] = {}
    for key in (traced_reps[0]["layers"] if traced_reps else ()):
        values = [rep["layers"][key] for rep in traced_reps
                  if rep["layers"].get(key) is not None]
        layers[key] = statistics.median(values) if values else None
    if traced_reps:
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced_reps)
            / statistics.median(r["wall_s"] for r in plain) - 1)
    paper = dict(grid.paper)
    return {
        "workload": name,
        "reps": len(reps),
        "traced_reps": len(traced_reps),
        "attempted": attempted,
        "failed": failed,
        "digest": reps[0]["digest"],
        "golden": golden,
        "backend": reps[0]["backend"],
        "engines": sorted({e for rep in reps for e in rep["engines"]}),
        "end_to_end": end_to_end,
        "layers": layers,
        "speedups": {mode: {"design": grid.headline, "measured": value,
                            "paper": paper.get(mode)}
                     for mode, value in reps[0]["speedups"].items()},
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def result_line(result: Dict, trace: bool, benchmark: Dict) -> Dict:
    """The last stdout line: cell counts and the ``BENCHMARK.json`` metrics."""
    if trace:
        values = {m["name"]: (result["layers"][m["name"]], m["unit"])
                  for m in benchmark["per_layer"]}
    else:
        values = {m["name"]: (result["end_to_end"][m["name"]]["median"],
                              m["unit"])
                  for m in benchmark["end_to_end"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }


def report(result: Dict) -> None:
    """Human-readable lines on standard error."""
    e2e = result["end_to_end"]
    print(f"{result['workload']}: {result['reps']} reps "
          f"({result['traced_reps']} traced), backend {result['backend']}, "
          f"engines {','.join(result['engines'])}, "
          f"failed {result['failed']}/{result['attempted']} cells",
          file=sys.stderr)
    for name, stats in e2e.items():
        print(f"  {name:<12} median {stats['median']:.6g} {stats['unit']}"
              f"  max {stats['max']:.6g}  n={stats['n']}", file=sys.stderr)
    for mode, speedup in result["speedups"].items():
        print(f"  {speedup['design']} geomean walk speedup {mode}: "
              f"{speedup['measured']:.2f}x (paper {speedup['paper']}x; "
              f"model calibrated to scale, not cycle-accurate)",
              file=sys.stderr)
    for key, value in sorted(result["layers"].items()):
        if isinstance(value, float):
            print(f"  {key:<36} {value:.6g}", file=sys.stderr)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host time to reproduce the Figure 14/15/17 grids.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(GRIDS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of one workload's run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--runs", type=int, default=3,
                        help="minimum repetitions per workload")
    parser.add_argument("--out", help="write the full results as JSON here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child(json.loads(args.child))))
        return 0
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = sorted(GRIDS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace),
                             args.runs)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        results[name] = result
        print(json.dumps(result_line(result, bool(args.trace), benchmark)),
              flush=True)
    if args.out:
        first = next(iter(results.values()))
        document = {
            "stamp": {
                "commit": commit(), "backend": first["backend"],
                "engines": sorted({e for r in results.values()
                                   for e in r["engines"]}),
                "seed": args.seed, "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "config": dict(CONFIG, workers=1, cell_threads=1),
                "seconds": args.seconds, "runs": args.runs,
                "trace": args.trace,
            },
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    # a terminated run still kills and reaps its child sweep
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
