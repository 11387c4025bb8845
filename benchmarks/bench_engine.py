"""Engine microbenchmarks: vectorized stages 1 and 2, the parallel sweep.

Not a paper figure — this bench guards the simulator's own performance:

* the vectorized TLB-filter engine must beat the scalar oracle by >= 3x
  on the reference stage-1 run (GUPS, native, nrefs=40000) while
  emitting a bit-identical miss stream;
* the batched stage-2 replay engine must beat the scalar walker-replay
  oracle on the same miss stream across **all eight** translation
  designs: >= 3x for the best design, and every design >= its own
  recorded ``VEC_FLOORS`` entry (per-design floors replaced the old
  "two newer planners >= 2x" rule, which flapped around the 2.0 mark
  while letting ecpt ship at 1.18x unflagged), with bit-identical
  :class:`WalkStats` — results are recorded in ``BENCH_engine.json``
  at the repo root;
* when the compiled kernel backend imported (numba), the native engine
  is timed too and must clear ``NATIVE_FLOORS`` (>= 10x on the vanilla
  radix walk, >= 3x elsewhere); without numba the native engine is
  unavailable (it refuses to run uncompiled, DESIGN.md §11), so the
  table has no native column;
* the two-level executor must replay a native+virt GUPS group with
  ``REPRO_BENCH_CELL_THREADS`` threads bit-identically to sequential
  replay, and >= 2x faster on the numba backend (nogil kernels; the
  interpreter backend holds the GIL, so its floor is recorded null) —
  archived in ``BENCH_engine.json``'s ``group`` section;
* the process-parallel sweep runner must produce the same cells as an
  inline run, and scale with worker count when cores are available.

``REPRO_BENCH_MIN_SPEEDUP`` relaxes the 3x targets for smoke runs on
loaded or tiny-trace CI machines; the per-design floors scale with it
(``MIN_SPEEDUP / 3.0``) so one knob relaxes everything proportionally.
"""

import json
import os
import time

import numpy as np

from repro.analysis.report import banner, format_table
from repro.sim.kernels import BACKEND as KERNEL_BACKEND
from repro.sim.kernels import HAVE_NUMBA
from repro.sim.simulator import (
    Stage1Cache,
    make_size_lookup,
    replay_walks,
    tlb_accept_rates,
    tlb_filter,
)
from repro.sim.sweep import build_sim, run_cells, run_sweep
from repro.sim import NativeSimulation, SimConfig

from conftest import SCALE

#: The acceptance target for the reference stage-1 run.
NREFS = int(os.environ.get("REPRO_BENCH_ENGINE_NREFS", "40000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
#: Timing rounds per engine for the stage-2 comparison.
ROUNDS = int(os.environ.get("REPRO_BENCH_ENGINE_ROUNDS", "5"))
#: CI legs that install numba pin the backend they expect: a numba leg
#: whose import silently failed would drop the native column and gut
#: the bench without failing it.
EXPECT_BACKEND = os.environ.get("REPRO_BENCH_EXPECT_BACKEND")
#: Thread count for the two-level executor group bench.
CELL_THREADS = int(os.environ.get("REPRO_BENCH_CELL_THREADS", "4"))

#: Where the stage-2 engine comparison is archived (repo root).
RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_engine.json")


def test_kernel_backend_expected():
    """Fail fast when the CI leg's pinned kernel backend didn't load."""
    if not EXPECT_BACKEND:
        print(f"kernel backend: {KERNEL_BACKEND} (no expectation pinned)")
        return
    assert KERNEL_BACKEND == EXPECT_BACKEND, \
        (f"REPRO_BENCH_EXPECT_BACKEND={EXPECT_BACKEND} but the kernels "
         f"loaded the {KERNEL_BACKEND!r} backend — the bench would time "
         f"the wrong engine")


def _stage1_inputs():
    config = SimConfig(scale=SCALE, nrefs=NREFS)
    sim = NativeSimulation("GUPS", config)
    sim.build()
    trace = sim.workload.generate_trace(sim.layout, config.nrefs, config.seed)
    ws = sim.workload.working_set_bytes()
    paper_ws = int(sim.workload.paper_working_set_gb * (1 << 30))
    accept = tlb_accept_rates(config.machine, ws, paper_ws)
    return sim, trace, accept, config.machine


def _best_of(repeats, fn):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def test_stage1_vectorized_speedup(benchmark):
    sim, trace, accept, machine = _stage1_inputs()
    page_table = sim.process.page_table

    scalar_seconds, scalar_result = _best_of(3, lambda: tlb_filter(
        trace, machine, make_size_lookup(page_table),
        accept_rates=accept, engine="scalar"))
    vec_seconds, vec_result = _best_of(3, lambda: tlb_filter(
        trace, machine, make_size_lookup(page_table),
        accept_rates=accept, engine="vec"))
    speedup = scalar_seconds / vec_seconds

    print(banner(f"Stage-1 engine: GUPS native, nrefs={NREFS}"))
    print(format_table(
        ["engine", "best of 3", "refs/s", "misses"],
        [["scalar", f"{scalar_seconds * 1e3:.1f} ms",
          f"{NREFS / scalar_seconds:,.0f}", scalar_result.miss_count],
         ["vec", f"{vec_seconds * 1e3:.1f} ms",
          f"{NREFS / vec_seconds:,.0f}", vec_result.miss_count]],
    ))
    print(f"speedup: {speedup:.2f}x (target >= {MIN_SPEEDUP}x)")

    assert np.array_equal(scalar_result.miss_vas, vec_result.miss_vas), \
        "engines diverged — the vec engine must be bit-identical"
    assert speedup >= MIN_SPEEDUP, \
        f"vectorized stage 1 only {speedup:.2f}x over the scalar oracle"

    lookup = make_size_lookup(page_table)
    benchmark.pedantic(
        lambda: tlb_filter(trace, machine, lookup, accept_rates=accept),
        rounds=3, iterations=1,
    )


#: The stage-2 comparison cases: every translation design, benched on
#: the environment where it is cheapest to build (the five native
#: designs on the native machine, the virtualization-only designs on
#: the virt machine — their planners are the interesting part anyway).
STAGE2_CASES = (
    ("native", "vanilla"), ("native", "fpt"), ("native", "ecpt"),
    ("native", "asap"), ("native", "dmt"),
    ("virt", "shadow"), ("virt", "agile"), ("virt", "pvdmt"),
)

#: The planners added after the original radix/DMT engine (reported in
#: the summary line; their guarantees now live in ``VEC_FLOORS``).
NEW_DESIGNS = ("fpt", "ecpt", "agile", "asap")

#: Per-design vec-over-scalar floors, set from measured reference runs
#: (vanilla 3.3-3.8x ... ecpt 1.1-1.2x) with ~15-25% headroom for load
#: noise. A design dropping below its floor fails the bench outright —
#: no more shipping ecpt at 1.18x under a single 3.0x best-design gate
#: that vanilla alone satisfies. Scaled by ``MIN_SPEEDUP / 3.0`` so the
#: smoke knob relaxes them in proportion.
VEC_FLOORS = {
    "vanilla": 2.5, "shadow": 2.4, "fpt": 1.6, "ecpt": 1.0,
    "asap": 1.8, "dmt": 1.25, "agile": 1.6, "pvdmt": 1.2,
}

#: Compiled-backend floors, enforced only when numba imported: the
#: native kernels must reach >= 10x on the vanilla radix walk and
#: >= 3x on every other design (the pure-Python backend is for
#: bit-identity, not speed, and is never timed here).
NATIVE_FLOORS = {design: (10.0 if design == "vanilla" else 3.0)
                 for design in VEC_FLOORS}


def test_stage2_vectorized_speedup(benchmark):
    """Batched walk replay vs the scalar oracle on the GUPS miss stream.

    The best design clearing ``MIN_SPEEDUP`` — and at least two of the
    ``NEW_DESIGNS`` planners clearing ``min(2.0, MIN_SPEEDUP)`` — is
    the acceptance bar; every design must be bit-identical. A shared
    :class:`Stage1Cache` keeps the trace + TLB filter to a single
    computation across the fresh machines each timed run needs (replay
    mutates cache/PWC and walker-side state such as the ECPT CWC).
    Rounds alternate engines so a host-load burst degrades both sides
    of the best-of-``ROUNDS`` comparison, not just one.
    """
    config = SimConfig(scale=SCALE, nrefs=NREFS)
    stage1 = Stage1Cache()
    floor_scale = MIN_SPEEDUP / 3.0
    engines = ("scalar", "vec") + (("native",) if HAVE_NUMBA else ())

    rows, results = [], []
    for env, design in STAGE2_CASES:
        seconds = {engine: [] for engine in engines}
        stats = {}
        for _ in range(ROUNDS):
            for engine in engines:
                sim = build_sim(env, "GUPS", config, stage1=stage1)
                walker = sim.walker(design)
                start = time.perf_counter()
                result = replay_walks(walker, sim.tlb.miss_vas,
                                      engine=engine)
                seconds[engine].append(time.perf_counter() - start)
                stats[engine] = result
        best = {engine: min(times) for engine, times in seconds.items()}
        speedup = best["scalar"] / best["vec"]
        walks = stats["vec"].walks
        for engine in engines[1:]:
            assert stats["scalar"] == stats[engine], \
                (f"{env}/{design}: engines diverged — {engine} must be "
                 "bit-identical")
        floor = VEC_FLOORS[design] * floor_scale
        native_seconds = best.get("native")
        native_speedup = (best["scalar"] / native_seconds
                          if native_seconds else None)
        native_floor = (NATIVE_FLOORS[design] * floor_scale
                        if HAVE_NUMBA else None)
        row = [f"{env}/{design}", f"{best['scalar'] * 1e3:.1f} ms",
               f"{best['vec'] * 1e3:.1f} ms", f"{speedup:.2f}x (>={floor:.2f})"]
        if HAVE_NUMBA:
            row.append(f"{native_speedup:.2f}x (>={native_floor:.2f})")
        rows.append(row + [walks])
        results.append({
            "design": f"{env}/{design}",
            "env": env,
            "design_name": design,
            "scalar_seconds": best["scalar"],
            "vec_seconds": best["vec"],
            "speedup": speedup,
            "floor": floor,
            "native_seconds": native_seconds,
            "native_speedup": native_speedup,
            "native_floor": native_floor,
            "walks": walks,
        })

    print(banner(f"Stage-2 engine: GUPS, nrefs={NREFS}, "
                 f"kernel backend {KERNEL_BACKEND}"))
    print(format_table(
        ["env/design", f"scalar (best of {ROUNDS})",
         f"vec (best of {ROUNDS})", "vec speedup"]
        + (["native speedup"] if HAVE_NUMBA else []) + ["walks"],
        rows,
    ))
    best_speedup = max(entry["speedup"] for entry in results)
    new_speedups = {entry["design_name"]: f"{entry['speedup']:.2f}x"
                    for entry in results
                    if entry["design_name"] in NEW_DESIGNS}
    print(f"best speedup: {best_speedup:.2f}x (target >= {MIN_SPEEDUP}x); "
          f"new planners: {new_speedups}; "
          f"stage 1 computed {stage1.computed}x, reused {stage1.reused}x")

    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "meta": {"workload": "GUPS", "scale": SCALE,
                     "nrefs": NREFS, "min_speedup": MIN_SPEEDUP,
                     "rounds": ROUNDS,
                     "kernel_backend": KERNEL_BACKEND},
            "stage2": results,
        }, handle, indent=2)
        handle.write("\n")

    assert stage1.computed == 1, \
        "every machine build past the first must reuse the stage-1 memo"
    assert best_speedup >= MIN_SPEEDUP, \
        f"batched stage 2 only {best_speedup:.2f}x over the scalar oracle"
    slow = [f"{e['design']} {e['speedup']:.2f}x < {e['floor']:.2f}x"
            for e in results if e["speedup"] < e["floor"]]
    assert not slow, f"designs below their recorded vec floor: {slow}"
    if HAVE_NUMBA:
        slow_native = [
            f"{e['design']} {e['native_speedup']:.2f}x "
            f"< {e['native_floor']:.2f}x"
            for e in results if e["native_speedup"] < e["native_floor"]]
        assert not slow_native, \
            f"designs below their native floor: {slow_native}"

    sim = NativeSimulation("GUPS", config, stage1=stage1)
    benchmark.pedantic(
        lambda: replay_walks(sim.walker("dmt"), sim.tlb.miss_vas,
                             engine="vec"),
        rounds=3, iterations=1,
    )


#: Two-level executor floor: a GUPS group replayed with ``CELL_THREADS``
#: threads must beat the sequential replay by >= 2x when the compiled
#: (nogil) backend is available. Interpreter-mode kernels hold the GIL,
#: so the floor is recorded as null there — threads can't help.
GROUP_FLOOR = 2.0


def test_group_cell_thread_scaling():
    """Thread-parallel group replay vs sequential, on one GUPS group.

    Replays every (env, design) cell of a native+virt GUPS group
    through :func:`run_cells` with 1 and with ``CELL_THREADS``
    threads — stage 1 shared through one :class:`Stage1Cache`, fresh
    machines per timed round (replay mutates cache/PWC state), rounds
    alternating like the stage-2 bench. Results must be bit-identical;
    the speedup is archived in ``BENCH_engine.json``'s ``group``
    section and (on the numba backend) must clear ``GROUP_FLOOR``.
    """
    config = SimConfig(scale=SCALE, nrefs=NREFS)
    stage1 = Stage1Cache()
    envs = ("native", "virt")
    seconds = {1: [], CELL_THREADS: []}
    stats = {}
    rounds = max(1, ROUNDS // 2)
    for _ in range(rounds):
        for threads in (1, CELL_THREADS):
            total = 0.0
            merged = {}
            for env in envs:
                sim = build_sim(env, "GUPS", config, stage1=stage1)
                designs = list(sim.designs)
                start = time.perf_counter()
                results = run_cells(sim, designs, threads)
                total += time.perf_counter() - start
                merged.update({f"{env}/{d}": result
                               for d, result, _ in results})
            seconds[threads].append(total)
            stats[threads] = merged
    assert stats[1] == stats[CELL_THREADS], \
        (f"cell_threads={CELL_THREADS} diverged from sequential replay "
         "— the two-level executor must be bit-identical")
    best_seq = min(seconds[1])
    best_par = min(seconds[CELL_THREADS])
    speedup = best_seq / best_par
    floor = GROUP_FLOOR if HAVE_NUMBA else None

    print(banner(f"Two-level executor: GUPS group, nrefs={NREFS}, "
                 f"kernel backend {KERNEL_BACKEND}"))
    print(f"1 thread : {best_seq * 1e3:.1f} ms   "
          f"{CELL_THREADS} threads: {best_par * 1e3:.1f} ms   "
          f"speedup {speedup:.2f}x "
          f"(floor {floor if floor else 'none — GIL-bound backend'}, "
          f"{len(stats[1])} cells, best of {rounds})")

    # Merge into the document test_stage2_vectorized_speedup wrote (or
    # start a fresh one when this bench runs alone).
    try:
        with open(RESULTS_PATH, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        document = {"meta": {"workload": "GUPS", "scale": SCALE,
                             "nrefs": NREFS,
                             "kernel_backend": KERNEL_BACKEND}}
    document["group"] = {
        "workload": "GUPS",
        "cells": len(stats[1]),
        "cell_threads": CELL_THREADS,
        "seconds_1": best_seq,
        "seconds_n": best_par,
        "speedup": speedup,
        "floor": floor,
        "kernel_backend": KERNEL_BACKEND,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    if floor:
        assert speedup >= floor, \
            (f"group replay with {CELL_THREADS} threads only {speedup:.2f}x "
             f"over sequential (floor {floor}x)")


def _telemetry_free(document):
    """Sweep cells minus the fields that legitimately vary per run."""
    volatile = ("replay_seconds", "walks_per_second", "build_seconds",
                "stage1_seconds", "peak_rss_kb", "worker_pid",
                "stage2_source", "group_seconds")
    return [{k: v for k, v in cell.items() if k not in volatile}
            for cell in document["cells"]]


def test_sweep_scaling_with_workers():
    kwargs = dict(envs=("native",), workloads=("GUPS", "Redis"),
                  designs=("vanilla", "dmt"), scale=2048, nrefs=6000)

    start = time.perf_counter()
    serial = run_sweep(workers=1, **kwargs)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(workers=2, **kwargs)
    parallel_seconds = time.perf_counter() - start

    print(banner("Sweep runner scaling"))
    print(f"1 worker : {serial_seconds:.2f}s   "
          f"2 workers: {parallel_seconds:.2f}s   "
          f"ratio {serial_seconds / parallel_seconds:.2f}x "
          f"({os.cpu_count()} core(s))")

    assert _telemetry_free(parallel) == _telemetry_free(serial), \
        "parallel sweep must reproduce the inline results exactly"
    assert parallel["meta"]["cells"] == 4
    if (os.cpu_count() or 1) >= 2:
        # two independent groups on two cores: expect near-linear scaling,
        # asserted loosely to tolerate loaded CI machines
        assert parallel_seconds < serial_seconds * 0.80, \
            "sweep does not scale with worker count"
