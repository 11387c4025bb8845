#!/usr/bin/env python
"""Peak-RSS guard for machine builds.

Builds one virtualized GUPS machine (host kernel, VM and EPT, the guest
process and its backing) and the mirrors its designs share (shadow
tables, guest and host FPT and ECPT), then compares the process's peak
resident set size against ``--budget-mb`` and exits 1 above it.

A machine should grow with its page-table pages and its memory size,
not with the pages it maps: page-table words cost 8 bytes each, and
the per-frame bookkeeping (the buddy allocator's block heads, each
VM's reverse map) 1 and 4 bytes a frame. A store that spends far more
than that per PTE word, or a container with an entry per mapped page,
shows here long before a parity test notices anything.

Usage::

    PYTHONPATH=src python scripts/machine_rss_budget.py --scale 256 \
        --budget-mb 128
    PYTHONPATH=src python scripts/machine_rss_budget.py --scale 64 \
        --budget-mb 256
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.trace import peak_rss_kb  # noqa: E402
from repro.sim.machine import SimConfig, VirtSimulation  # noqa: E402

#: Trace length of the stage-1 pass that builds the machine; the machine
#: itself depends only on the workload and the scale.
NREFS = 5000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=256)
    parser.add_argument("--budget-mb", type=float, default=None,
                        help="exit 1 when peak RSS exceeds this many MiB")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sim = VirtSimulation("GUPS", SimConfig(scale=args.scale, nrefs=NREFS))
    sim.walker("vanilla")  # the first walker builds the shared mirrors
    seconds = time.perf_counter() - start
    rss_mb = peak_rss_kb() / 1024.0
    print(f"virt GUPS scale {args.scale}: machine and mirrors built in "
          f"{seconds:.2f}s, peak RSS {rss_mb:.1f} MiB")
    if args.budget_mb is not None and rss_mb > args.budget_mb:
        print(f"FAIL: peak RSS {rss_mb:.1f} MiB exceeds the "
              f"{args.budget_mb:g} MiB budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
