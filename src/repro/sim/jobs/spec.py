"""Job specs: the content-addressed identity of a sweep grid.

A :class:`JobSpec` pins down everything that determines a sweep's
*results*: the environments, workloads, designs, page-size modes, and
the :class:`~repro.sim.machine.SimConfig` kwargs. Runtime knobs that
only change *how* the grid is computed — worker count, trace path,
artifact-cache directory, timeouts — are deliberately excluded, so two
runs of the same grid share one ``job_id`` no matter how they are
scheduled.

The ``job_id`` is the SHA-256 of the spec's canonical JSON form
(sorted keys, no whitespace), truncated to 16 hex digits — the same
content-addressing idiom as :mod:`repro.sim.artifacts`. The journal
stores the canonical form verbatim, so a resume reconstructs the exact
grid without trusting the caller's CLI flags.

A spec expands into :class:`Shard`\\ s — one per (workload, page-size)
pair, the granularity of a :data:`~repro.sim.sweep.GroupTask` — so
journal records, retries, and resume all operate on the unit the worker
pool executes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim import sweep
from repro.sim.machine import SimConfig

#: Bumped whenever the canonical form (and thus every job_id) changes.
SPEC_VERSION = 1


@dataclass(frozen=True)
class Shard:
    """One schedulable unit of a job: a (workload, page-size) group."""

    workload: str
    thp: bool

    @property
    def shard_id(self) -> str:
        return f"{self.workload}@{'thp' if self.thp else '4k'}"


@dataclass(frozen=True)
class JobSpec:
    """The result-determining parameters of one sweep grid."""

    envs: Tuple[str, ...]
    workloads: Tuple[str, ...]
    designs: Optional[Tuple[str, ...]]
    thp_modes: Tuple[bool, ...]
    config: Mapping = field(default_factory=dict)

    @classmethod
    def build(cls, envs: Sequence[str] = ("native",),
              workloads: Optional[Sequence[str]] = None,
              designs: Optional[Sequence[str]] = None,
              thp_modes: Sequence[bool] = (False,),
              **config_kwargs) -> "JobSpec":
        """Normalize ``run_sweep``-style arguments into a spec.

        Validates the grid (:class:`KeyError` on unknown
        environments/designs) and the config (:class:`ValueError` from
        :class:`SimConfig`), so a bad grid fails at submit time, not in
        every worker.
        """
        sweep.validate_grid(envs, designs)
        SimConfig(**config_kwargs)
        return cls(
            envs=tuple(envs),
            workloads=tuple(workloads or sweep.ALL_WORKLOADS),
            designs=tuple(designs) if designs else None,
            thp_modes=tuple(bool(t) for t in thp_modes),
            config=dict(config_kwargs),
        )

    def canonical(self) -> Dict:
        """JSON-ready form with a stable key order; hashed for job_id."""
        return {
            "version": SPEC_VERSION,
            "envs": list(self.envs),
            "workloads": list(self.workloads),
            "designs": list(self.designs) if self.designs else None,
            "thp_modes": [bool(t) for t in self.thp_modes],
            "config": {key: self.config[key] for key in sorted(self.config)},
        }

    @classmethod
    def from_canonical(cls, doc: Mapping) -> "JobSpec":
        """Rebuild a spec from its journal/canonical form."""
        designs = doc.get("designs")
        return cls(
            envs=tuple(doc["envs"]),
            workloads=tuple(doc["workloads"]),
            designs=tuple(designs) if designs else None,
            thp_modes=tuple(bool(t) for t in doc["thp_modes"]),
            config=dict(doc.get("config") or {}),
        )

    @property
    def job_id(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def shards(self) -> List[Shard]:
        """Every shard of the grid: workloads outer, page sizes inner."""
        return [Shard(workload, thp)
                for workload in self.workloads for thp in self.thp_modes]

    def task(self, shard: Shard, trace_path: Optional[str] = None,
             artifact_dir: Optional[str] = None,
             cell_threads: int = 1) -> sweep.GroupTask:
        """The picklable :data:`GroupTask` tuple for one shard.

        ``cell_threads`` is a runtime knob (like ``trace_path``): it
        changes how fast a shard replays, never what it computes, so it
        is deliberately absent from :meth:`canonical` and ``job_id`` —
        a resumed job may use a different thread count.
        """
        return (self.envs, shard.workload, shard.thp, self.designs,
                dict(self.config), trace_path, artifact_dir,
                max(1, int(cell_threads or 1)))
