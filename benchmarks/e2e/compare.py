"""Compare two ``bench_e2e.py --out`` files against the benchmark's bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload in both files and every ``end_to_end`` metric of
``BENCHMARK.json`` it prints A's median, B's median, the change in the
metric's worse direction and the bound. A change breaches only when it
is beyond the bound and, for a metric in ``MIN_ABS``, also larger than
that absolute floor. A failed cell that A did not have is a breach too
(its bound is 0). Exit status: 0 when every change
is within its bound, 1 on a breach, 2 when the two runs are not
comparable (different kernel backend, config, seed or ``nproc``).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from bench_e2e import BENCHMARK_PATH

#: stamp fields two runs must share to be compared
SAME = ("backend", "config", "seed", "nproc")

#: absolute change (in the metric's unit) a breach must also exceed: a
#: fresh interpreter's start-up jitters by more than 25% of its ~0.3 s
MIN_ABS = {"setup_s": 0.5}


def load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare(a: Dict, b: Dict, metrics: List[Dict]) -> List[Dict]:
    """One row per (workload, metric); ``breach`` marks a regression."""
    rows = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        old, new = a["workloads"][name], b["workloads"][name]
        for metric in metrics:
            before = old["end_to_end"][metric["name"]]["median"]
            after = new["end_to_end"][metric["name"]]["median"]
            change = (after - before) / before
            worse = change if metric["better"] == "lower" else -change
            floor = MIN_ABS.get(metric["name"], 0.0)
            rows.append({"workload": name, "metric": metric["name"],
                         "a": before, "b": after, "worse": worse,
                         "bound": metric["bound"],
                         "breach": (worse > metric["bound"]
                                    and abs(after - before) > floor)})
        before = old["end_to_end"]["fail_ratio"]["median"]
        after = new["end_to_end"]["fail_ratio"]["median"]
        rows.append({"workload": name, "metric": "fail_ratio",
                     "a": before, "b": after, "worse": after - before,
                     "bound": 0.0, "breach": after > before})
    return rows


def mismatch(a: Dict, b: Dict) -> Optional[str]:
    """Why the two runs cannot be compared, or None."""
    for key in SAME:
        if a["stamp"][key] != b["stamp"][key]:
            return (f"{key} differs: {a['stamp'][key]!r} vs "
                    f"{b['stamp'][key]!r}")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    reason = mismatch(a, b)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    rows = compare(a, b, load(BENCHMARK_PATH)["end_to_end"])
    print(f"{'workload':<12} {'metric':<12} {'A median':>12} "
          f"{'B median':>12} {'worse by':>9} {'bound':>6}")
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<12} {row['a']:>12.6g} "
              f"{row['b']:>12.6g} {row['worse']:>+9.1%} {row['bound']:>6.0%}"
              f"{'  BREACH' if row['breach'] else ''}")
    return 1 if any(row["breach"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
