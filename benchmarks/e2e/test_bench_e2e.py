"""Smoke tests for the end-to-end benchmark on one-workload grids.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; each test
sweeps native GUPS (vanilla + DMT) at scale 4096 and 2000 references,
cold or against a primed cache, so the file finishes in a few seconds.
"""

import json
import time

import pytest

import bench_e2e
import compare
import spans
from repro.obs import trace as obs_trace

TINY = dict(envs=("native",), workloads=("GUPS",),
            designs=("vanilla", "dmt"), thp_modes=(False,),
            headline="dmt", paper=(("4KB", 1.28),))
CONFIG = {"scale": 4096, "nrefs": 2000, "walk_engine": "auto"}


@pytest.fixture(autouse=True)
def tiny_grids(monkeypatch, tmp_path):
    """Tiny cold and warm grids at a small config with no golden digests."""
    monkeypatch.setitem(bench_e2e.GRIDS, "tiny-cold", bench_e2e.Grid(**TINY))
    monkeypatch.setitem(bench_e2e.GRIDS, "tiny-warm",
                        bench_e2e.Grid(**TINY, warm=True))
    monkeypatch.setattr(bench_e2e, "CONFIG", CONFIG)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"config": CONFIG, "digests": {}}))
    monkeypatch.setattr(bench_e2e, "GOLDEN_PATH", str(golden))


def run_bench(capsys, workload: str, trace: int, runs: int = 1) -> dict:
    """The result line of one benchmark run on a tiny grid."""
    status = bench_e2e.main([
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--runs", str(runs), "--trace", str(trace)])
    assert status == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def listed(section: str) -> set:
    with open(bench_e2e.BENCHMARK_PATH, encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("workload", ["tiny-cold", "tiny-warm"])
def test_every_listed_metric_is_emitted_and_nonzero(capsys, workload):
    untraced = run_bench(capsys, workload, trace=0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == 2
    assert set(untraced["metrics"]) == listed("end_to_end")
    traced = run_bench(capsys, workload, trace=1, runs=2)
    assert traced["correct"]
    assert set(traced["metrics"]) == listed("per_layer")
    for name, metric in {**untraced["metrics"], **traced["metrics"]}.items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["value"] > 0, name


def test_perturbed_golden_counts_every_cell_failed(capsys, tmp_path,
                                                   monkeypatch):
    golden = tmp_path / "perturbed.json"
    golden.write_text(json.dumps({"config": CONFIG, "digests": {
        "tiny-cold": {"0": "0" * 64}}}))
    monkeypatch.setattr(bench_e2e, "GOLDEN_PATH", str(golden))
    result = run_bench(capsys, "tiny-cold", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_golden_of_another_config_is_refused(capsys, tmp_path, monkeypatch):
    golden = tmp_path / "other.json"
    golden.write_text(json.dumps({"config": dict(CONFIG, nrefs=1),
                                  "digests": {}}))
    monkeypatch.setattr(bench_e2e, "GOLDEN_PATH", str(golden))
    assert bench_e2e.main(["--workload", "tiny-cold", "--seconds", "0"]) == 1
    assert capsys.readouterr().out == ""


def test_self_times_and_unattributed_add_up_to_traced_wall(tmp_path):
    from repro.sim import sweep

    original = sweep.write_document
    path = str(tmp_path / "spans.jsonl")
    with spans.installed(path):
        start = time.perf_counter()
        sweep.run_sweep(envs=TINY["envs"], workloads=TINY["workloads"],
                        designs=TINY["designs"], workers=1, cell_threads=1,
                        artifact_dir=str(tmp_path / "cache"), seed=0,
                        out_path=str(tmp_path / "sweep.json"), **CONFIG)
        wall = time.perf_counter() - start
    assert sweep.write_document is original and not obs_trace.active()
    events = obs_trace.read_events(path)
    layers = spans.rollup(events, wall)
    self_total = sum(layers[seconds] for _, seconds, _ in spans.LAYERS)
    assert self_total + layers["sweep.unattributed_s"] == pytest.approx(wall)
    roots = sum(e["seconds"] for e in events if e["parent_id"] is None)
    assert self_total == pytest.approx(roots)
    assert 0 <= layers["sweep.unattributed_frac"] <= 0.05
    assert layers["stage2.walks"] > 0
    assert layers["translation.walker_calls"] == 2
    assert layers["sweep.write_calls"] == 1


def test_self_time_subtracts_the_children():
    tree = [{"span_id": 0, "parent_id": None, "seconds": 10.0},
            {"span_id": 1, "parent_id": 0, "seconds": 2.0},
            {"span_id": 2, "parent_id": 0, "seconds": 3.0},
            {"span_id": 3, "parent_id": 2, "seconds": 1.0}]
    assert spans.self_times(tree) == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}


def _document(wall_s: float, setup_s: float = 0.3, seed: int = 0) -> dict:
    def stat(value):
        return {"median": value, "max": value, "n": 3}

    return {
        "stamp": {"backend": "python", "config": CONFIG, "seed": seed,
                  "nproc": 2},
        "workloads": {"fig14-cold": {"end_to_end": {
            "wall_s": stat(wall_s), "walks_per_s": stat(1000 / wall_s),
            "peak_rss_mb": stat(120.0), "setup_s": stat(setup_s),
            "fail_ratio": stat(0.0)}}},
    }


def _compare(tmp_path, a: dict, b: dict) -> int:
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return compare.main([str(pa), str(pb)])


@pytest.mark.parametrize("share,status", [(1.2, 1), (0.2, 0)])
def test_compare_flags_wall_regression_beyond_bound(tmp_path, share,
                                                    status):
    """A slowdown of 1.2x the wall_s bound breaches; 0.2x of it passes."""
    with open(bench_e2e.BENCHMARK_PATH, encoding="utf-8") as handle:
        bound = {m["name"]: m["bound"]
                 for m in json.load(handle)["end_to_end"]}["wall_s"]
    assert _compare(tmp_path, _document(10.0),
                    _document(10.0 * (1 + share * bound))) == status


@pytest.mark.parametrize("setup_s,status", [(0.45, 0), (0.9, 1)])
def test_compare_setup_breach_needs_the_absolute_floor(tmp_path, setup_s,
                                                       status):
    """+50% of a 0.3 s set-up is jitter; +0.6 s is a regression."""
    assert _compare(tmp_path, _document(10.0),
                    _document(10.0, setup_s=setup_s)) == status


def test_compare_refuses_different_seeds(tmp_path):
    assert _compare(tmp_path, _document(10.0),
                    _document(10.0, seed=1)) == 2
