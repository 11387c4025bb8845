"""Per-layer self times of one sweep, from the simulator's own trace spans.

The end-to-end benchmark times ``run_sweep`` as a user calls it. For its
traced pass it turns on ``repro.obs.trace``, which already records
parent-linked JSONL spans at ``sweep.run_group``, ``sweep.build_sim``,
``stage1``, ``stage1.tlb_filter``, ``stage2.replay`` and
``artifact.load``/``artifact.store``. :func:`installed` adds spans of the
same tracer around the layer entry points it does not cover
(``Workload.generate_trace``, ``<Env>Simulation.walker``,
``_SimulationBase.run`` and ``write_document``) and restores the
originals on exit. :func:`rollup` turns the events into per-layer
metrics.

A span's self time is its duration minus the part of it its child spans
cover, so the self times of one sweep add up to the time spent inside
any span. ``sweep.unattributed_s`` is the traced wall time minus the self
times of every layer: the part of ``run_sweep`` no layer claims.

The tracer keeps one span stack per process, so a child span always lies
inside its parent and siblings never overlap: the part children cover is
the sum of their durations. That holds only for sweeps that run their
cells on one thread (``cell_threads=1``, ``workers=1``).
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

from repro.obs import trace as obs_trace

#: (span names, self-seconds metric, call-count metric) per layer; the
#: calls are those of the first name. The ``stage1`` span is the glue
#: around trace generation and the TLB filter inside machine build.
LAYERS = (
    (("workloads.generate_trace",), "workloads.trace_s",
     "workloads.trace_calls"),
    (("stage1.tlb_filter",), "tlb_vec.filter_s", "tlb_vec.filter_calls"),
    (("artifact.load",), "artifacts.load_s", "artifacts.load_calls"),
    (("artifact.store",), "artifacts.store_s", "artifacts.store_calls"),
    (("sweep.build_sim", "stage1", "stage1.stream_chunk"),
     "machine.build_self_s", "machine.build_calls"),
    (("translation.walker",), "translation.walker_s",
     "translation.walker_calls"),
    (("stage2.replay",), "stage2.replay_s", "stage2.replay_calls"),
    (("sweep.cell",), "sweep.cell_self_s", "sweep.cell_calls"),
    (("sweep.run_group",), "sweep.group_self_s", "sweep.group_calls"),
    (("sweep.write_document",), "sweep.write_s", "sweep.write_calls"),
)


def _spanned(name: str, func: Callable) -> Callable:
    def traced(*args, **kwargs):
        with obs_trace.span(name):
            return func(*args, **kwargs)

    return traced


def _targets():
    """(span name, owner, attribute) for every entry point to wrap."""
    from repro.sim import machine, sweep
    from repro.workloads.base import Workload

    targets = [
        ("workloads.generate_trace", Workload, "generate_trace"),
        ("sweep.cell", machine._SimulationBase, "run"),
        ("sweep.write_document", sweep, "write_document"),
    ]
    for env_cls in machine.ENVIRONMENTS.values():
        targets.append(("translation.walker", env_cls, "walker"))
    return targets


@contextmanager
def installed(path: str) -> Iterator[None]:
    """Trace to ``path``, with every layer entry point wrapped, for the
    duration of the block."""
    originals = []
    obs_trace.enable(path)
    try:
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _spanned(name, original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
        obs_trace.disable()


def self_times(events: List[Dict]) -> Dict[int, float]:
    """Each span's duration minus the durations of its children."""
    own = {event["span_id"]: event["seconds"] for event in events}
    for event in events:
        if event["parent_id"] is not None:
            own[event["parent_id"]] -= event["seconds"]
    return own


def tail_percentile(samples: List[float]):
    """``(percentile, value)`` of the highest whole percentile with at
    least ten samples beyond it, or ``(None, None)`` when too few."""
    n = len(samples)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct < 50:
        return None, None
    ordered = sorted(samples)
    return pct, ordered[math.ceil(pct / 100 * n) - 1]


def rollup(events: List[Dict], wall_s: float) -> Dict[str, object]:
    """Per-layer metrics of one traced sweep whose wall time is ``wall_s``."""
    own = self_times(events)
    out: Dict[str, object] = {}
    for names, seconds_metric, calls_metric in LAYERS:
        out[seconds_metric] = sum(own[e["span_id"]] for e in events
                                  if e["name"] in names)
        out[calls_metric] = sum(e["name"] == names[0] for e in events)
    attributed = sum(out[seconds] for _, seconds, _ in LAYERS)

    def named(name: str) -> List[Dict]:
        return [e for e in events if e["name"] == name]

    filters = named("stage1.tlb_filter")
    refs = sum(e["refs"] for e in filters)
    out["tlb_vec.filter_refs"] = refs
    out["tlb_vec.miss_ratio"] = (sum(e["misses"] for e in filters) / refs
                                 if refs else 0.0)
    loads = named("artifact.load")
    out["artifacts.hit_ratio"] = (sum(bool(e.get("hit")) for e in loads)
                                  / len(loads) if loads else 0.0)
    replays = named("stage2.replay")
    walks = sum(e["walks"] for e in replays)
    replay_s = out["stage2.replay_s"]
    out["stage2.walks"] = walks
    out["stage2.walks_per_s"] = walks / replay_s if replay_s else 0.0
    for event in replays:
        key = f"stage2.replay_s.{event['env']}.{event['design']}"
        out[key] = out.get(key, 0.0) + own[event["span_id"]]
    cell_ms = [1e3 * e["seconds"] for e in named("sweep.cell")]
    pct, tail = tail_percentile(cell_ms)
    out["sweep.cell_s"] = sum(cell_ms) / 1e3
    out["stage2.cell_n"] = len(cell_ms)
    out["stage2.cell_p50_ms"] = statistics.median(cell_ms) if cell_ms else 0.0
    out["stage2.cell_tail_pct"] = pct
    out["stage2.cell_tail_ms"] = tail
    out["sweep.unattributed_s"] = wall_s - attributed
    out["sweep.unattributed_frac"] = out["sweep.unattributed_s"] / wall_s
    return out
