"""Simulation engine: TLB filtering, walk replay, §5 performance model."""

from repro.sim.calibration import CALIBRATION, EnvProfile, WorkloadProfile, profile
from repro.sim.machine import (
    ENVIRONMENTS,
    NativeSimulation,
    NestedSimulation,
    SimConfig,
    VirtSimulation,
)
from repro.sim.multiproc import MultiProcessSimulation, MultiProcessStats
from repro.sim.perfmodel import AppliedModel, apply_model, baseline_times, model_from_stats
from repro.sim.simulator import (
    SizeClassifier,
    Stage1Cache,
    TLBFilterResult,
    WalkStats,
    geomean,
    make_size_lookup,
    replay_walks,
    tlb_filter_scalar,
)
from repro.sim.sweep import build_sim, load_sweep, run_sweep

__all__ = [
    "CALIBRATION",
    "EnvProfile",
    "WorkloadProfile",
    "profile",
    "ENVIRONMENTS",
    "NativeSimulation",
    "NestedSimulation",
    "SimConfig",
    "VirtSimulation",
    "MultiProcessSimulation",
    "MultiProcessStats",
    "AppliedModel",
    "apply_model",
    "baseline_times",
    "model_from_stats",
    "SizeClassifier",
    "Stage1Cache",
    "TLBFilterResult",
    "WalkStats",
    "geomean",
    "make_size_lookup",
    "replay_walks",
    "tlb_filter_scalar",
    "build_sim",
    "load_sweep",
    "run_sweep",
]
