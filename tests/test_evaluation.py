"""Metric identities, the episode loop, and the benchmark harness."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import evaluation, sim
from clothfold.evaluation import (BenchmarkConfig, miou, mpd, run_benchmark,
                                  run_episode, success)
from clothfold.perception import ModelConfig, PerceptionModel


class TestMpd:
    def test_identical_meshes_zero(self):
        m = sim.init_cloth("towel")
        assert mpd(m, m.copy()) == 0.0

    def test_uniform_translation(self):
        m = sim.init_cloth("towel", (10, 10), 0.3)
        shifted = m.copy()
        shifted.positions = shifted.positions + np.array([0.01, 0.0])
        assert mpd(m, shifted) == pytest.approx(0.01, abs=1e-15)

    def test_symmetry(self, rng):
        a = sim.init_cloth("towel", (10, 10), 0.3)
        b = a.copy()
        b.positions = b.positions + rng.normal(0, 0.01, b.positions.shape)
        assert mpd(a, b) == pytest.approx(mpd(b, a), abs=1e-15)

    def test_triangle_inequality_sampled(self, rng):
        base = sim.init_cloth("towel", (9, 9), 0.3)
        for _ in range(10):
            a, b, c = (base.copy() for _ in range(3))
            for m in (a, b, c):
                m.positions = m.positions + rng.normal(0, 0.02, m.positions.shape)
            assert mpd(a, c) <= mpd(a, b) + mpd(b, c) + 1e-12

    def test_kind_mismatch_rejected(self):
        with pytest.raises(evaluation.MetricError):
            mpd(sim.init_cloth("towel"), sim.init_cloth("trousers"))


class TestMiou:
    def test_identical_masks(self, rng):
        m = rng.random((16, 16)) > 0.5
        assert miou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((8, 8), bool)
        b = np.zeros((8, 8), bool)
        a[:2] = True
        b[4:6] = True
        assert miou(a, b) == 0.0

    def test_half_overlap_equal_area_third(self):
        a = np.zeros((4, 8), bool)
        b = np.zeros((4, 8), bool)
        a[:, 0:4] = True          # area 16
        b[:, 2:6] = True          # area 16, overlap 8 -> 8 / 24 = 1/3
        assert miou(a, b) == pytest.approx(1 / 3)

    def test_both_empty_defined_as_one(self):
        z = np.zeros((4, 4), bool)
        assert miou(z, z) == 1.0

    def test_resolution_mismatch(self):
        with pytest.raises(evaluation.MetricError):
            miou(np.zeros((4, 4), bool), np.zeros((5, 4), bool))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bounds_and_intersection_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((12, 12)) > 0.6
        b = rng.random((12, 12)) > 0.6
        v = miou(a, b)
        assert 0.0 <= v <= 1.0
        # adding a shared pixel to both masks never decreases IoU
        free = np.nonzero(~a & ~b)
        if len(free[0]):
            a2, b2 = a.copy(), b.copy()
            a2[free[0][0], free[1][0]] = True
            b2[free[0][0], free[1][0]] = True
            assert miou(a2, b2) >= v - 1e-15


class TestSuccess:
    def test_below_threshold(self):
        assert success(0.0124) is True

    def test_exactly_threshold_fails(self):
        assert success(0.0125) is False

    def test_zero_succeeds(self):
        assert success(0.0) is True

    def test_negative_rejected(self):
        with pytest.raises(evaluation.MetricError):
            success(-0.1)


class TestRunEpisode:
    def test_expert_mode_succeeds_all_families(self):
        rng = np.random.default_rng(0)
        for family, command in [
            ("DSF", "Fold the Towel in half twice to make a rectangle"),
            ("DTF", "Fold the Towel in half diagonally"),
            ("FCIF", "Fold all corners of the Towel to the center"),
            ("TF", "Fold the Trousers in half from left to right"),
            ("TSF", "Fold the T-Shirt"),
        ]:
            kind = {"TF": "trousers", "TSF": "t-shirt"}.get(family, "towel")
            env = sim.jittered_sim(kind, rng)
            result = run_episode(command, None, env, family=family)
            assert result.success, (family, result.mpd, result.failure_reason)
            assert result.steps == len(result.subtasks)

    def test_single_step_episode(self):
        env = sim.ClothSim.fresh("towel")
        result = run_episode(
            "Grasp the top-left corner of the Towel and place it to the center",
            None, env)
        assert result.steps == 1 and result.success

    def test_miou_close_to_one_for_expert(self):
        env = sim.ClothSim.fresh("trousers")
        result = run_episode("Fold the Trousers in half from left to right",
                             None, env)
        assert result.miou > 0.9

    def test_model_mode_runs_and_records_actions(self):
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        model = PerceptionModel(cfg)
        env = sim.ClothSim.fresh("towel")
        result = run_episode("Fold the Towel in half diagonally", model, env)
        # untrained model: outcome unspecified, but the loop must complete
        assert result.steps + (1 if result.failure_reason else 0) >= 1
        if result.actions:
            a = result.actions[0]
            assert len(a["pick_base"]) == 3 and len(a["place_base"]) == 3

    def test_empty_plan_scores_against_initial_state(self):
        env = sim.ClothSim.fresh("towel")
        initial = env.mesh.copy()
        result = run_episode("noop", None, env, plan=[])
        assert result.steps == 0 and result.subtasks == []
        assert result.mpd == mpd(env.mesh, initial) == 0.0
        assert result.success

    def test_supplied_plan_overrides_templates(self):
        from clothfold.planner import validate_subtask
        env = sim.ClothSim.fresh("towel")
        custom = [validate_subtask(
            "Grasp the top edge of the Towel and place it to the bottom edge")]
        result = run_episode("Fold the Towel in half diagonally", None, env,
                             plan=custom)
        assert result.subtasks == [custom[0].text]
        assert result.steps == 1 and result.success

    def test_executed_fold_matches_geometry_place_point(self):
        # closes the loop: the pixel -> camera -> base place point lands
        # within the picker radius of the landmark the plan named
        env = sim.ClothSim.fresh("towel")
        target = env.mesh.landmark_point("bottom-right corner")
        result = run_episode("Fold the Towel in half diagonally", None, env)
        place_base = np.array(result.actions[0]["place_base"])
        assert np.linalg.norm(place_base[:2] - target) < 0.02

    def test_record_equals_asdict(self, tmp_path):
        env = sim.ClothSim.fresh("towel")
        result = run_episode("Fold the Towel in half twice to make a rectangle", None,
                             env, family="DSF", artifacts_dir=tmp_path, episode_tag="e0_")
        assert result.steps == 2 and len(result.artifact_files) == 2
        assert all(a["primitives"] for a in result.actions)
        record = result.to_record()
        assert record == asdict(result)
        assert (json.dumps(record, indent=1, sort_keys=True)
                == json.dumps(asdict(result), indent=1, sort_keys=True))

    def test_grasp_miss_marks_failure(self):
        # a model that always picks the image corner (background) misses
        class CornerModel:
            class cfg:
                image_size = 112

            def forward(self, obs, subtask):
                from clothfold.perception.model import HeatmapPair
                from clothfold.sim.expert import PickPlaceAction
                q = np.zeros((112, 112))
                q[0, 0] = 1.0
                return HeatmapPair(q, q), PickPlaceAction((0, 0), (56, 56))

        env = sim.ClothSim.fresh("towel")
        result = run_episode("Fold the Towel in half diagonally", CornerModel(), env)
        assert not result.success
        assert result.failure_reason and "GraspMiss" in result.failure_reason


class TestBenchmark:
    def test_report_grid_shape(self):
        report = run_benchmark(None, BenchmarkConfig(episodes_per_cell=1, seed=0))
        expected_cells = {f"{c}/{f}" for c in ("SI", "UI", "UT")
                          for f in ("DSF", "DTF", "FCIF", "TF", "TSF")}
        assert set(report.cells) == expected_cells
        assert set(report.averages) == {"SI", "UI", "UT"}

    def test_deterministic_reports(self):
        a = run_benchmark(None, BenchmarkConfig(episodes_per_cell=2, seed=11))
        b = run_benchmark(None, BenchmarkConfig(episodes_per_cell=2, seed=11))
        assert a.to_csv() == b.to_csv()
        ja = a.to_json()
        jb = b.to_json()
        # wall times differ; strip them before comparing
        import json as _json
        pa = _json.loads(ja)
        pb = _json.loads(jb)
        for p in (pa, pb):
            for e in p["episodes"]:
                e.pop("wall_time_s")
        assert pa == pb

    def test_aggregates_recomputable_from_episodes(self):
        report = run_benchmark(None, BenchmarkConfig(episodes_per_cell=2, seed=3))
        for key, cell in report.cells.items():
            cond, fam = key.split("/")
            eps = [e for e in report.episodes
                   if e.condition == cond and e.family == fam]
            assert cell["episodes"] == len(eps)
            assert cell["sr_percent"] == pytest.approx(
                100.0 * sum(e.success for e in eps) / len(eps))
            assert cell["mean_mpd_m"] == pytest.approx(
                float(np.mean([e.mpd for e in eps])))

    def test_csv_schema(self):
        report = run_benchmark(None, BenchmarkConfig(episodes_per_cell=1, seed=0))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "condition,family,episodes,sr_percent,mean_mpd_m,miou_percent"
        assert len(lines) == 1 + 15 + 3

    def test_ui_uses_unseen_variants(self):
        report = run_benchmark(None, BenchmarkConfig(episodes_per_cell=2, seed=0))
        from clothfold.planner import command_bank
        for e in report.episodes:
            bank = command_bank(e.family)[e.family]
            variant = bank.index(e.command)
            if e.condition == "UI":
                assert variant in (2, 3)
            else:
                assert variant in (0, 1)
