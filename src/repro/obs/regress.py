"""Bench-regression gate: compare current numbers against baselines.

``python -m repro regress`` loads the current ``BENCH_engine.json`` and
(optionally) a sweep document, compares them against archived baselines,
and exits non-zero when a metric regressed past its tolerance:

* **engine bench** — per-design stage-2 walk throughput
  (``walks / vec_seconds``) must stay within ``tolerance`` of the
  baseline; a design missing from the current bench is a regression.
* **streaming stage 1** — ``BENCH_stage1_stream.json``'s refs/sec must
  stay within ``tolerance`` of the baseline, and its peak RSS must not
  grow past the baseline by more than ``tolerance`` — the footprint
  check is what catches a silent return to whole-trace materialization.
* **sweep cells** — per (env, workload, design, thp) cell,
  ``mean_latency`` is deterministic for a fixed config, so it must equal
  the baseline exactly: a drift in either direction is a regression.
  ``walks_per_second`` is wall-clock throughput and gets ``tolerance``.
  A baseline cell that is missing or turned into an error cell is a
  regression.

On a clean run a dated record, stamped with the checkout's commit and
the kernel backend, is appended to ``BENCH_trajectory.json`` so the
performance history accumulates run over run (DESIGN.md §9). A record
equal to the last one in everything but its date — the same commit and
the same numbers, a stale bench file rather than a new measurement — is
skipped with a note instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Relative slack on throughput-class metrics (walks/sec): wall-clock
#: noise on shared machines reaches ~10%, so 0.15 trips on a real 20%
#: regression without flaking on load (DESIGN.md §9).
DEFAULT_TOLERANCE = 0.15

#: Default artifact locations, relative to the repository root (cwd).
DEFAULT_BENCH = "BENCH_engine.json"
DEFAULT_BENCH_BASELINE = os.path.join("benchmarks", "baselines",
                                      "BENCH_engine.json")
DEFAULT_SWEEP_BASELINE = os.path.join("benchmarks", "baselines",
                                      "sweep_small.json")
DEFAULT_STREAM_BENCH = "BENCH_stage1_stream.json"
DEFAULT_STREAM_BASELINE = os.path.join("benchmarks", "baselines",
                                       "BENCH_stage1_stream.json")
DEFAULT_TRAJECTORY = "BENCH_trajectory.json"


@dataclass(frozen=True)
class Regression:
    """One metric that crossed its tolerated bound."""

    metric: str      # "walks_per_second" | "mean_latency" | "missing_cell" | "error_cell"
    key: str         # human-readable design / cell identifier
    baseline: float
    current: float
    limit: float     # the bound that was crossed

    def render(self) -> str:
        return (f"REGRESSION {self.key}: {self.metric} "
                f"{self.current:,.2f} vs baseline {self.baseline:,.2f} "
                f"(limit {self.limit:,.2f})")


def load_document(path: str) -> Dict:
    """Read a JSON artifact (bench, sweep document, or trajectory)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def bench_walks_per_second(document: Dict) -> Dict[str, float]:
    """Per-design stage-2 throughput of a ``BENCH_engine.json`` document."""
    out: Dict[str, float] = {}
    for entry in document.get("stage2", []):
        if entry.get("vec_seconds"):
            out[entry["design"]] = entry["walks"] / entry["vec_seconds"]
    return out


def compare_bench(current: Dict, baseline: Dict,
                  tolerance: float = DEFAULT_TOLERANCE) -> List[Regression]:
    """Regressions of the engine bench against its baseline.

    Beyond the throughput-within-tolerance check, each design's
    vec (and, when timed, native) speedup must clear its per-design
    floor — the baseline's recorded floor when present (the archived
    contract), else the floor the current bench recorded for itself.
    """
    current_wps = bench_walks_per_second(current)
    out: List[Regression] = []
    for design, base_wps in sorted(bench_walks_per_second(baseline).items()):
        wps = current_wps.get(design)
        key = f"bench:{design}"
        if wps is None:
            out.append(Regression("missing_cell", key, base_wps, 0.0,
                                  base_wps))
            continue
        limit = base_wps * (1.0 - tolerance)
        if wps < limit:
            out.append(Regression("walks_per_second", key, base_wps, wps,
                                  limit))
    baseline_entries = {entry["design"]: entry
                        for entry in baseline.get("stage2", [])}
    for entry in current.get("stage2", []):
        base_entry = baseline_entries.get(entry["design"], {})
        for speed_key, floor_key in (("speedup", "floor"),
                                     ("native_speedup", "native_floor")):
            floor = base_entry.get(floor_key) or entry.get(floor_key)
            speed = entry.get(speed_key)
            if floor and speed is not None and speed < floor:
                out.append(Regression(
                    "speedup_floor", f"bench:{entry['design']}:{speed_key}",
                    floor, speed, floor))
    # Two-level executor: group replay with N cell threads must keep
    # beating 1 thread by the recorded floor (set only on the numba
    # backend — interpreter threads share the GIL and can't speed up).
    base_group = baseline.get("group") or {}
    cur_group = current.get("group") or {}
    group_floor = base_group.get("floor") or cur_group.get("floor")
    group_speed = cur_group.get("speedup")
    if group_floor and group_speed is not None and group_speed < group_floor:
        out.append(Regression("speedup_floor", "bench:group:cell_threads",
                              group_floor, group_speed, group_floor))
    return out


def compare_stream(current: Dict, baseline: Dict,
                   tolerance: float = DEFAULT_TOLERANCE) -> List[Regression]:
    """Regressions of the streaming stage-1 bench against its baseline.

    Throughput (refs/sec) may not drop below ``1 - tolerance`` of the
    baseline; peak RSS may not grow above ``1 + tolerance`` of it. RSS
    is the load-bearing check: a whole-trace materialization sneaking
    back into the streaming path multiplies the footprint, not the
    wall time.
    """
    base = baseline.get("stream") or {}
    cur = current.get("stream") or {}
    out: List[Regression] = []
    base_rps = base.get("refs_per_sec") or 0.0
    cur_rps = cur.get("refs_per_sec") or 0.0
    rps_limit = base_rps * (1.0 - tolerance)
    if base_rps and cur_rps < rps_limit:
        out.append(Regression("refs_per_sec", "stream:stage1",
                              base_rps, cur_rps, rps_limit))
    base_rss = base.get("peak_rss_kb") or 0.0
    cur_rss = cur.get("peak_rss_kb") or 0.0
    rss_limit = base_rss * (1.0 + tolerance)
    if base_rss and cur_rss > rss_limit:
        out.append(Regression("peak_rss_kb", "stream:stage1",
                              base_rss, cur_rss, rss_limit))
    return out


def _cell_key(cell: Dict) -> Tuple:
    return (cell["env"], cell["workload"], cell.get("design"),
            bool(cell["thp"]))


def _cell_label(key: Tuple) -> str:
    env, workload, design, thp = key
    return f"{env}/{workload}/{design}/{'thp' if thp else '4k'}"


def compare_sweep(current: Dict, baseline: Dict,
                  tolerance: float = DEFAULT_TOLERANCE) -> List[Regression]:
    """Regressions of a sweep document against its baseline document.

    ``mean_latency`` compares exactly: a cell is a pure function of its
    inputs, and JSON round-trips floats bit for bit, so any difference —
    up or down — means the simulated result changed.
    """
    cells = {_cell_key(c): c for c in current.get("cells", [])
             if "error" not in c}
    errors = {_cell_key(c) for c in current.get("cells", [])
              if "error" in c}
    out: List[Regression] = []
    for cell in baseline.get("cells", []):
        if "error" in cell:
            continue
        key = _cell_key(cell)
        label = _cell_label(key)
        found = cells.get(key)
        if found is None:
            metric = "error_cell" if key in errors else "missing_cell"
            out.append(Regression(metric, label, cell["mean_latency"], 0.0,
                                  cell["mean_latency"]))
            continue
        if found["mean_latency"] != cell["mean_latency"]:
            out.append(Regression("mean_latency", label,
                                  cell["mean_latency"],
                                  found["mean_latency"],
                                  cell["mean_latency"]))
        base_wps = cell.get("walks_per_second") or 0.0
        wps_limit = base_wps * (1.0 - tolerance)
        if base_wps and (found.get("walks_per_second") or 0.0) < wps_limit:
            out.append(Regression("walks_per_second", label, base_wps,
                                  found.get("walks_per_second") or 0.0,
                                  wps_limit))
    return out


def _head_commit() -> Optional[str]:
    """``git rev-parse HEAD`` of the working directory, or None outside
    a checkout (or without git)."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def trajectory_record(bench: Optional[Dict], sweep: Optional[Dict],
                      regressions: List[Regression],
                      tolerance: float,
                      stream: Optional[Dict] = None) -> Dict:
    """The dated history entry appended to ``BENCH_trajectory.json``."""
    from repro.sim.kernels import BACKEND

    record: Dict[str, object] = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": _head_commit(),
        "kernel_backend": BACKEND,
        "status": "regressed" if regressions else "clean",
        "tolerance": tolerance,
        "regressions": [regression.render() for regression in regressions],
    }
    if bench is not None:
        record["bench_walks_per_second"] = bench_walks_per_second(bench)
        group = bench.get("group")
        if group:
            record["bench_group"] = {
                "cell_threads": group.get("cell_threads"),
                "speedup": group.get("speedup"),
                "kernel_backend": group.get("kernel_backend"),
            }
    if stream is not None and stream.get("stream"):
        entry = stream["stream"]
        record["stage1_stream"] = {
            "refs_per_sec": entry.get("refs_per_sec"),
            "peak_rss_kb": entry.get("peak_rss_kb"),
            "nrefs": entry.get("nrefs"),
            "chunk": entry.get("chunk"),
        }
    if sweep is not None:
        cells = [c for c in sweep.get("cells", []) if "error" not in c]
        # One group_seconds value per (workload, thp) group — every cell
        # of a group reports the same group wall time.
        group_walls: Dict[Tuple, float] = {}
        for cell in cells:
            wall = cell.get("group_seconds")
            if wall is not None:
                group_walls[(cell["workload"], bool(cell["thp"]))] = wall
        warm = sum(1 for c in cells if c.get("stage2_source") == "disk")
        record["sweep"] = {
            "cells": len(cells),
            "error_cells": len(sweep.get("cells", [])) - len(cells),
            "mean_latency": {
                _cell_label(_cell_key(c)): c["mean_latency"] for c in cells
            },
            "wall_seconds": sweep.get("meta", {}).get("wall_seconds"),
            "cell_threads": sweep.get("meta", {}).get("cell_threads"),
            "stage2_warm_hit_ratio": (warm / len(cells)) if cells else None,
            "group_wall_seconds": (sum(group_walls.values())
                                   if group_walls else None),
        }
    return record


def append_trajectory(path: str, record: Dict,
                      out: Callable[[str], None] = print) -> Dict:
    """Append ``record`` to the trajectory store, creating it if needed.

    A record equal to the last one except for its date (same commit,
    same measured numbers) is a stale copy, not a measurement: it is
    skipped with a note and the store is left as it is.
    """
    if os.path.exists(path):
        document = load_document(path)
    else:
        document = {"records": []}
    records = document["records"]
    undated = {key: value for key, value in record.items() if key != "date"}
    if records and undated == {key: value for key, value
                               in records[-1].items() if key != "date"}:
        out(f"trajectory: skipped a record equal to the last one in "
            f"{path} (commit {record.get('commit')}, same numbers)")
        return document
    records.append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    out(f"appended record #{len(records)} to {path}")
    return document


def run_gate(bench_path: Optional[str] = DEFAULT_BENCH,
             baseline_bench_path: Optional[str] = DEFAULT_BENCH_BASELINE,
             sweep_path: Optional[str] = None,
             baseline_sweep_path: Optional[str] = DEFAULT_SWEEP_BASELINE,
             tolerance: float = DEFAULT_TOLERANCE,
             trajectory_path: Optional[str] = DEFAULT_TRAJECTORY,
             stream_path: Optional[str] = DEFAULT_STREAM_BENCH,
             baseline_stream_path: Optional[str] = DEFAULT_STREAM_BASELINE,
             out: Callable[[str], None] = print) -> int:
    """The gate behind ``python -m repro regress``.

    Returns the process exit status: 0 clean (trajectory appended when
    ``trajectory_path`` is set), 1 regression detected, 2 usage error
    (no comparable inputs).
    """
    regressions: List[Regression] = []
    bench = current_sweep = stream = None
    compared = 0
    if bench_path and baseline_bench_path and os.path.exists(bench_path) \
            and os.path.exists(baseline_bench_path):
        bench = load_document(bench_path)
        baseline_bench = load_document(baseline_bench_path)
        regressions.extend(compare_bench(bench, baseline_bench, tolerance))
        compared += 1
        out(f"bench: {bench_path} vs {baseline_bench_path} "
            f"({len(bench.get('stage2', []))} design(s))")
    if stream_path and baseline_stream_path \
            and os.path.exists(stream_path) \
            and os.path.exists(baseline_stream_path):
        stream = load_document(stream_path)
        baseline_stream = load_document(baseline_stream_path)
        regressions.extend(compare_stream(stream, baseline_stream,
                                          tolerance))
        compared += 1
        out(f"stream: {stream_path} vs {baseline_stream_path}")
    if sweep_path:
        if not (baseline_sweep_path and os.path.exists(baseline_sweep_path)):
            out(f"error: sweep baseline {baseline_sweep_path!r} not found")
            return 2
        current_sweep = load_document(sweep_path)
        baseline_sweep = load_document(baseline_sweep_path)
        regressions.extend(compare_sweep(current_sweep, baseline_sweep,
                                         tolerance))
        compared += 1
        out(f"sweep: {sweep_path} vs {baseline_sweep_path} "
            f"({len(current_sweep.get('cells', []))} cell(s))")
    if not compared:
        out("error: nothing to compare (no bench found and no --sweep given)")
        return 2

    for regression in regressions:
        out(regression.render())
    if regressions:
        out(f"{len(regressions)} regression(s) past tolerance "
            f"{tolerance:.0%} (latency exact)")
        return 1
    out(f"clean: no regressions past tolerance {tolerance:.0%} "
        "(latency exact)")
    if trajectory_path:
        record = trajectory_record(bench, current_sweep, regressions,
                                   tolerance, stream=stream)
        append_trajectory(trajectory_path, record, out=out)
    return 0
