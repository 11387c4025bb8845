"""Command-line interface: run one simulation, a sweep, or a figure.

``run`` is a one-group sweep: every grid goes through
:func:`~repro.sim.sweep.run_sweep`.

Examples::

    python -m repro list
    python -m repro run --workload GUPS --env virt --designs vanilla,pvdmt
    python -m repro run --workload Redis --env native --thp --nrefs 40000
    python -m repro run --workload GUPS --env native --levels 5
    python -m repro run --workload GUPS --env virt --walk-engine scalar
    python -m repro sweep --env native --workers 4
    python -m repro sweep --env native,virt --pages both --out sweep.json
    python -m repro sweep --env native --trace trace.jsonl
    python -m repro sweep --env native --artifact-cache /tmp/repro-cache
    python -m repro sweep --env native --resume jobs/grid-a --timeout 600
    python -m repro jobs status jobs/grid-a
    python -m repro jobs tail jobs/grid-a --follow
    python -m repro jobs cancel jobs/grid-a
    python -m repro run --workload GUPS --env virt --artifact-cache cache/
    python -m repro regress --sweep sweep.json
    python -m repro table1
    python -m repro lint
    python -m repro run --workload GUPS --env native --sanitize
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import format_table
from repro.analysis.vma_stats import vma_stats
from repro.sim import ENVIRONMENTS
from repro.sim.perfmodel import apply_model
from repro.workloads import catalogue

_ENV_TO_CALIBRATION = {"native": "native", "virt": "virt_npt",
                       "nested": "nested"}


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name, workload in catalogue(args.scale).items():
        rows.append([name, workload.working_set_bytes() >> 20,
                     workload.paper_working_set_gb, workload.description])
    print(format_table(
        ["Workload", "ws (MiB)", "paper ws (GB)", "description"], rows,
        title=f"Workloads at scale 1/{args.scale}",
    ))
    print("\nEnvironments:", ", ".join(sorted(ENVIRONMENTS)))
    for env, cls in sorted(ENVIRONMENTS.items()):
        print(f"  {env:7s} designs: {', '.join(cls.designs)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """One workload in one environment: a one-group sweep, rendered."""
    from repro.sim.sweep import run_sweep

    requested = [d for d in args.designs.split(",") if d] or \
        list(ENVIRONMENTS[args.env].designs)
    # the walk and app speedups are relative to vanilla
    designs = requested if "vanilla" in requested \
        else requested + ["vanilla"]
    try:
        document = run_sweep(
            envs=[args.env], workloads=[args.workload], designs=designs,
            thp_modes=(args.thp,), workers=1, trace_path=args.trace,
            artifact_dir=None if args.no_artifact_cache
            else args.artifact_cache,
            cell_threads=args.cell_threads, **_config_kwargs(args))
    except (KeyError, ValueError) as error:
        # unknown design, or a config SimConfig rejects
        print(f"error: {error.args[0] if error.args else error}",
              file=sys.stderr)
        return 2
    errors = [cell for cell in document["cells"] if "error" in cell]
    for cell in errors:
        print(f"error: {cell['design'] or cell['env']}: {cell['error']}",
              file=sys.stderr)
    if errors:
        return 1
    cells = {cell["design"]: cell for cell in document["cells"]}
    vanilla = cells["vanilla"]
    source = (f", stage 1 from {vanilla['stage1_source']}"
              if document["meta"]["artifact_cache"] else "")
    print(f"{args.env} machine for {args.workload} (scale 1/{args.scale}, "
          f"{args.nrefs} refs, {'THP' if args.thp else '4KB'}): "
          f"TLB miss rate {vanilla['tlb_miss_rate']:.1%} "
          f"({vanilla['miss_count']} walks{source})\n")
    rows = []
    for design in requested:
        cell = cells[design]
        try:
            # both cells replay the same miss stream, so their mean
            # latencies are in the ratio of their overhead totals
            app = apply_model(args.workload, _ENV_TO_CALIBRATION[args.env],
                              design, vanilla["mean_latency"],
                              cell["mean_latency"], thp=args.thp).app_speedup
        except (KeyError, ValueError):
            # no calibration profile for the pair, or a degenerate
            # zero-overhead baseline — the table still prints.
            app = "-"
        rows.append([design, cell["mean_latency"],
                     cell["walk_speedup"] or "-",
                     f"{cell['fallback_rate']:.2%}", app])
    print(format_table(
        ["design", "cycles/walk", "walk speedup", "fallback",
         "app speedup"],
        rows,
    ))
    if args.trace:
        print(f"trace spans appended to {args.trace}")
    return 0


def _grid_args(args: argparse.Namespace):
    """Parse the shared sweep-grid flags into run_sweep-style values."""
    envs = [env for env in args.env.split(",") if env]
    thp_modes = {"4k": (False,), "thp": (True,), "both": (False, True)}
    workloads = [w for w in args.workloads.split(",") if w] \
        if args.workloads else None
    designs = [d for d in args.designs.split(",") if d] \
        if args.designs else None
    artifact_dir = None if args.no_artifact_cache \
        else (args.artifact_cache or ".repro-artifacts")
    return envs, workloads, designs, thp_modes[args.pages], artifact_dir


def _config_kwargs(args: argparse.Namespace) -> dict:
    """The SimConfig kwargs shared by run and sweep."""
    return dict(scale=args.scale, nrefs=args.nrefs, seed=args.seed,
                levels=args.levels, register_count=args.register_count,
                walk_engine=args.walk_engine, sanitize=args.sanitize)


def _print_sweep_summary(document: dict, args: argparse.Namespace,
                         artifact_dir) -> int:
    from repro.sim.sweep import summarize

    meta = document["meta"]
    title = (f"Sweep: {meta['cells']} cells in "
             f"{meta['wall_seconds']:.1f}s ({meta['workers']} worker(s))")
    job = meta.get("job")
    if job:
        title += (f" — job {job['job_id']}: {job['resumed_groups']} "
                  f"group(s) from journal, {job['retried_shards']} "
                  f"retried shard(s)")
    print(format_table(
        ["env", "workload", "pages", "design", "cycles/walk",
         "walk speedup", "walks/s", "peak RSS"],
        summarize(document),
        title=title,
    ))
    if args.out:
        print(f"\nwrote {meta['cells']} cells to {args.out}")
    if args.trace:
        print(f"trace spans appended to {args.trace}")
    if artifact_dir:
        disk = sum(1 for cell in document["cells"]
                   if cell.get("stage1_source") == "disk")
        print(f"artifact cache {artifact_dir}: {disk} cell(s) served "
              f"stage 1 from disk")
    errors = meta["metrics"]["sweep.error_cells"]
    if errors:
        print(f"warning: {errors} error cell(s) in the sweep",
              file=sys.stderr)
    if meta.get("partial"):
        print(f"warning: partial sweep — missing group(s): "
              f"{meta.get('missing_groups')}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.sweep import run_sweep

    envs, workloads, designs, thp_modes, artifact_dir = _grid_args(args)
    unknown = set(envs) - set(ENVIRONMENTS)
    if unknown:
        print(f"unknown environment(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    try:
        document = run_sweep(
            envs=envs, workloads=workloads, designs=designs,
            thp_modes=thp_modes, workers=args.workers,
            out_path=args.out, progress=print, trace_path=args.trace,
            artifact_dir=artifact_dir, resume_dir=args.resume,
            cell_threads=args.cell_threads, shard_timeout=args.timeout,
            max_retries=args.max_retries,
            **_config_kwargs(args),
        )
    except (KeyError, ValueError) as error:
        # unknown design (no swept environment provides it), a config
        # SimConfig rejects, or a --resume directory of another grid
        print(f"error: {error.args[0] if error.args else error}",
              file=sys.stderr)
        return 2
    return _print_sweep_summary(document, args, artifact_dir)


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.sim import jobs

    if args.jobs_command == "status":
        info = jobs.status(args.job_dir)
        print(jobs.format_status(info))
        return 2 if info["state"] == "missing" else 0
    if args.jobs_command == "tail":
        try:
            jobs.tail(args.job_dir, count=args.count, follow=args.follow)
        except KeyboardInterrupt:
            pass
        return 0
    if args.jobs_command == "cancel":
        if jobs.cancel(args.job_dir):
            print(f"cancel requested for {args.job_dir}")
            return 0
        print(f"{args.job_dir}: job already finished", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled jobs command {args.jobs_command!r}")


def _cmd_regress(args: argparse.Namespace) -> int:
    from repro.obs import regress

    return regress.run_gate(
        bench_path=args.bench,
        baseline_bench_path=args.baseline_bench,
        sweep_path=args.sweep,
        baseline_sweep_path=args.baseline_sweep,
        tolerance=args.tolerance,
        trajectory_path=None if args.no_trajectory else args.trajectory,
        stream_path=args.stream_bench,
        baseline_stream_path=args.baseline_stream_bench,
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for name, workload in catalogue(min(args.scale, 1024)).items():
        layout = [(s, e) for s, e, _ in workload.layout()]
        stats = vma_stats(layout)
        rows.append([name, stats.total, stats.cov99, stats.clusters])
    print(format_table(["Workload", "Total", "99% Cov.", "Clusters"], rows,
                       title="Table 1: VMA characteristics"))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # dmtlint owns its own argument parser (free-form paths).
        from repro.analysis.lint import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Direct Memory Translation for "
                    "Virtualized Clouds' (ASPLOS 2024)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", type=int, default=1024,
                        help="working-set divisor vs the paper (default 1024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", parents=[common],
                   help="list workloads, environments, designs")
    sub.add_parser("table1", parents=[common],
                   help="print the Table 1 reproduction")

    simopts = argparse.ArgumentParser(add_help=False)
    simopts.add_argument("--nrefs", type=int, default=20_000)
    simopts.add_argument("--seed", type=int, default=0)
    simopts.add_argument("--levels", type=int, choices=(4, 5), default=4,
                         help="radix page-table depth (§2.1.1's 5-level "
                              "extension; default 4)")
    simopts.add_argument("--register-count", type=int, default=16,
                         help="DMT registers per set (default 16, Fig. 13)")
    simopts.add_argument("--walk-engine", choices=("auto", "scalar"),
                         default="auto",
                         help="stage-2 replay engine: 'auto' (default) "
                              "replays batched, on the compiled kernels "
                              "with numba and the vec runners without, "
                              "and falls back to scalar for a walker it "
                              "cannot batch; 'scalar' is the reference "
                              "oracle (always replays, bypassing the "
                              "result cache)")
    simopts.add_argument("--sanitize", action="store_true",
                         help="enable the runtime translation sanitizer "
                              "(invariant checks on TEAs, PTEs, TLB/PWC "
                              "coherence, pvDMT isolation)")
    simopts.add_argument("--trace", default=None, metavar="PATH",
                         help="append trace spans (stage-1 filter, stage-2 "
                              "replays, sweep groups) to this JSONL file")
    simopts.add_argument("--artifact-cache", default=None, metavar="DIR",
                         help="persist stage-1 miss streams and stage-2 "
                              "cells to this content-addressed cache "
                              "directory and reuse them across runs "
                              "(sweep default: .repro-artifacts; run "
                              "default: off)")
    simopts.add_argument("--no-artifact-cache", action="store_true",
                         help="disable the on-disk artifact cache")
    simopts.add_argument("--cell-threads", type=int, default=1,
                         help="replay threads per worker process: each "
                              "group's (env, design) cells fan out over "
                              "nogil native kernels (1 without numba; "
                              "default: 1)")

    run = sub.add_parser("run", parents=[common, simopts],
                         help="simulate one workload/environment")
    run.add_argument("--workload", default="GUPS")
    run.add_argument("--env", choices=sorted(ENVIRONMENTS), default="native")
    run.add_argument("--designs", default="",
                     help="comma-separated subset (default: all)")
    run.add_argument("--thp", action="store_true",
                     help="transparent huge pages in every layer")

    sweep = sub.add_parser("sweep", parents=[common, simopts],
                           help="run the workload×design grid in parallel")
    sweep.add_argument("--env", default="native",
                       help="comma-separated environments (default: native)")
    sweep.add_argument("--workloads", default="",
                       help="comma-separated subset (default: all seven)")
    sweep.add_argument("--designs", default="",
                       help="comma-separated subset (default: all per env)")
    sweep.add_argument("--pages", choices=("4k", "thp", "both"),
                       default="4k",
                       help="page-size modes to sweep (default: 4k)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: all cores)")
    sweep.add_argument("--out", default="sweep_results.json",
                       help="JSON result store (default: sweep_results.json)")
    sweep.add_argument("--resume", default=None, metavar="DIR",
                       help="run as a durable job journaled under DIR: "
                            "completed groups persist as they finish and "
                            "an interrupted sweep restarts from the "
                            "journal, re-running only missing groups "
                            "(a fresh DIR starts a new job)")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-group timeout; a group past it is "
                            "retried on a fresh pool (default: none)")
    sweep.add_argument("--max-retries", type=int, default=2,
                       help="re-runs of a group after worker-death/"
                            "timeout failures (default: 2)")

    jobs_parser = sub.add_parser(
        "jobs", help="inspect or cancel a sweep journaled by "
                     "`sweep --resume DIR` (status/tail/cancel)")
    jobs_sub = jobs_parser.add_subparsers(dest="jobs_command", required=True)
    jobs_status = jobs_sub.add_parser("status",
                                      help="summarize a job's journal")
    jobs_status.add_argument("job_dir")
    jobs_tail = jobs_sub.add_parser("tail",
                                    help="print journal records as they "
                                         "are appended")
    jobs_tail.add_argument("job_dir")
    jobs_tail.add_argument("-n", "--count", type=int, default=20,
                           help="journal records to print (default 20)")
    jobs_tail.add_argument("--follow", action="store_true",
                           help="keep streaming until the job ends")
    jobs_cancel = jobs_sub.add_parser(
        "cancel", help="ask the running scheduler to drain and stop")
    jobs_cancel.add_argument("job_dir")

    regress = sub.add_parser(
        "regress",
        help="compare bench/sweep artifacts against archived baselines; "
             "exit non-zero on regression")
    from repro.obs.regress import (
        DEFAULT_BENCH,
        DEFAULT_BENCH_BASELINE,
        DEFAULT_STREAM_BASELINE,
        DEFAULT_STREAM_BENCH,
        DEFAULT_SWEEP_BASELINE,
        DEFAULT_TOLERANCE,
        DEFAULT_TRAJECTORY,
    )
    regress.add_argument("--bench", default=DEFAULT_BENCH,
                         help=f"current engine bench (default {DEFAULT_BENCH};"
                              " skipped when absent)")
    regress.add_argument("--baseline-bench", default=DEFAULT_BENCH_BASELINE,
                         help="archived engine-bench baseline "
                              f"(default {DEFAULT_BENCH_BASELINE})")
    regress.add_argument("--stream-bench", default=DEFAULT_STREAM_BENCH,
                         help="current streaming stage-1 bench (default "
                              f"{DEFAULT_STREAM_BENCH}; skipped when "
                              "absent)")
    regress.add_argument("--baseline-stream-bench",
                         default=DEFAULT_STREAM_BASELINE,
                         help="archived streaming stage-1 baseline "
                              f"(default {DEFAULT_STREAM_BASELINE})")
    regress.add_argument("--sweep", default=None,
                         help="current sweep document to compare "
                              "(default: bench only)")
    regress.add_argument("--baseline-sweep", default=DEFAULT_SWEEP_BASELINE,
                         help="archived sweep baseline "
                              f"(default {DEFAULT_SWEEP_BASELINE})")
    regress.add_argument("--tolerance", type=float,
                         default=DEFAULT_TOLERANCE,
                         help="relative slack on walks/sec throughput; "
                              "mean_latency must match exactly "
                              f"(default {DEFAULT_TOLERANCE})")
    regress.add_argument("--trajectory", default=DEFAULT_TRAJECTORY,
                         help="performance-history store appended to on "
                              f"clean runs (default {DEFAULT_TRAJECTORY})")
    regress.add_argument("--no-trajectory", action="store_true",
                         help="do not append to the trajectory store")

    # handled before parsing (free-form paths); listed here for --help only
    sub.add_parser("lint", help="run dmtlint, the simulator-invariant "
                                "static-analysis pass (rules L1-L7)")

    args = parser.parse_args(argv)
    handler = {"list": _cmd_list, "run": _cmd_run, "sweep": _cmd_sweep,
               "jobs": _cmd_jobs, "table1": _cmd_table1,
               "regress": _cmd_regress}
    return handler[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
