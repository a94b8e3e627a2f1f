"""Tests of the benchmark itself, on the tiny input size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_DATA = {"planner.decompose", "sim.render", "sim.fold", "sim.expert",
         "images.png_write", "images.pgm_write", "images.png_read", "images.pgm_read"}
_EPISODE = {"evaluation.episode", "evaluation.target", "evaluation.metrics",
            "geometry.backproject"}
_TRAIN = {"perception.segment", "perception.text_tower", "perception.image_tower",
          "perception.fusion", "perception.decoder", "autodiff.backward",
          "autodiff.adam", "trainer.prepare", "trainer.loss", "trainer.clip"}
# Layers each workload reaches, in set-up or in the measured loop.
USED = {
    "expert": _DATA | _EPISODE,
    "train": _DATA | _TRAIN,
    "eval": _DATA | _EPISODE | _TRAIN | {"checkpoint.save", "checkpoint.load"},
}


@pytest.fixture(scope="module")
def tiny_runs():
    cache = {}

    def run(workload, trace):
        if (workload, trace) not in cache:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr[-3000:]
            cache[(workload, trace)] = proc.stdout
        return cache[(workload, trace)]

    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(tiny_runs, workload):
    stdout = tiny_runs(workload, 0)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert "error_rate" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_traced_wrapper_fires(tiny_runs, workload):
    result = json.loads(tiny_runs(workload, 1).strip().splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    silent = [layer for layer in sorted(USED[workload])
              if metrics[f"{layer}.calls"]["value"] <= 0
              or metrics[f"{layer}.self_ms"]["value"] <= 0]
    assert not silent, f"traced layers that never fired in {workload}: {silent}"
    if workload in ("expert", "train"):
        assert metrics["sim.render.per_demo"]["value"] == 2.0
    if workload == "eval":
        # Set-up trains with batch 1, so no loss-weight node joins the graph.
        assert metrics["autodiff.tape_nodes_per_sample"]["value"] == 218.0


def test_tracer_wraps_every_binding_of_render():
    import importlib

    import clothfold.evaluation
    import clothfold.sim
    import clothfold.sim.env
    from tracer import Tracer

    # ``render`` is bound by name in each of these modules.
    render_mod = importlib.import_module("clothfold.sim.render")
    original = render_mod.render
    tracer = Tracer()
    tracer.install()
    try:
        for owner in (render_mod, clothfold.sim, clothfold.sim.env, clothfold.evaluation):
            assert owner.render is not original
            assert owner.render.__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner in (render_mod, clothfold.sim, clothfold.sim.env, clothfold.evaluation):
        assert owner.render is original


def test_different_seed_changes_the_generated_inputs(tmp_path):
    import workloads

    a, b = workloads.make_inputs(0), workloads.make_inputs(1)
    assert a == workloads.make_inputs(0)
    assert a.dataset_seed != b.dataset_seed and a.bench_seed != b.bench_seed
    out_a, _ = workloads.gen_and_load(tmp_path / "a", a.dataset_seed, 1)
    out_b, _ = workloads.gen_and_load(tmp_path / "b", b.dataset_seed, 1)
    assert out_a.failed == out_b.failed == 0
    assert out_a.record["dataset_sha256"] != out_b.record["dataset_sha256"]


def test_probe_times_fixed_work_and_restores_the_collector():
    import gc

    from calibrate import probes

    assert gc.isenabled()
    times = probes(3)
    assert len(times) == 3 and all(t > 0 for t in times)
    assert gc.isenabled()


def test_scaled_rate_divides_each_outcome_by_its_slowdown():
    from run import scaled_rate
    from workloads import Outcome

    # The middle outcome timed nothing (as after an exception) and is skipped.
    outcomes = [Outcome(timed={"r": (10, 2.0)}), Outcome(), Outcome(timed={"r": (10, 3.0)})]
    assert scaled_rate(outcomes, "r", [1.0, 1.0, 1.0]) == 20 / 5.0
    # A host twice as slow as the reference made the first 2 s worth 1 s.
    assert scaled_rate(outcomes, "r", [2.0, 9.0, 1.5]) == 20 / (1.0 + 2.0)
    assert scaled_rate(outcomes, "other", [1.0, 1.0, 1.0]) == 0.0
