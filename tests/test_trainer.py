"""Heatmap targets, BCE losses, dataset generation/replay, and training."""

import hashlib
import importlib
import json
import logging
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from clothfold import autodiff as ad
from clothfold import images, sim
from clothfold.perception import ModelConfig, PerceptionModel
from clothfold.planner import decompose
from clothfold.planner.templates import FAMILY_KIND
from clothfold.trainer import (CropError, DatasetFormatError, TrainConfig,
                               TrainingDivergedError, action_to_heatmap, bce,
                               generate_dataset, load_dataset, total_loss, train)
from clothfold.trainer.heatmaps import BCE_CLAMP
from clothfold.trainer.train import clip_gradients, prepare_sample
from conftest import finite_difference, rel_err

# The module; ``clothfold.trainer.train`` as an attribute is the function.
train_module = importlib.import_module("clothfold.trainer.train")


class TestActionToHeatmap:
    def test_peak_value_one(self):
        hm = action_to_heatmap((10, 20), 4.0, 32, 32)
        assert hm[10, 20] == 1.0
        assert hm.max() == 1.0

    def test_radial_symmetry(self):
        hm = action_to_heatmap((16, 16), 3.0, 33, 33)
        assert hm[16, 20] == pytest.approx(hm[16, 12])
        assert hm[20, 16] == pytest.approx(hm[12, 16])
        assert hm[16, 20] == pytest.approx(hm[20, 16])

    def test_gaussian_value_at_distance(self):
        sigma = 4.0
        hm = action_to_heatmap((16, 16), sigma, 33, 33)
        assert hm[16, 19] == pytest.approx(math.exp(-9 / (2 * sigma * sigma)))

    def test_small_sigma_one_hot(self):
        hm = action_to_heatmap((3, 5), 0.1, 8, 8)
        assert hm[3, 5] == 1.0
        assert hm.sum() == 1.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            action_to_heatmap((40, 2), 4.0, 32, 32)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            action_to_heatmap((1, 1), 0.0, 8, 8)


class TestBce:
    def test_perfect_binary_prediction_near_zero(self):
        gt = np.zeros((16, 16))
        gt[4, 4] = 1.0
        loss = bce(ad.Tensor(gt), gt).item()
        assert loss <= 16 * 16 * 1.1e-7 * 16

    def test_uniform_half_closed_form(self):
        gt = (np.arange(64).reshape(8, 8) % 2).astype(float)
        q = ad.Tensor(np.full((8, 8), 0.5))
        assert bce(q, gt).item() == pytest.approx(64 * math.log(2), rel=1e-12)

    def test_clamp_prevents_infinities(self):
        gt = np.ones((4, 4))
        q = ad.Tensor(np.zeros((4, 4)))
        loss = bce(q, gt).item()
        assert math.isfinite(loss)
        assert loss == pytest.approx(16 * -math.log(BCE_CLAMP), rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            bce(ad.Tensor(np.zeros((4, 4))), np.zeros((4, 5)))

    def test_gradient_vs_finite_differences(self, rng):
        gt = rng.uniform(0, 1, size=(6, 6))
        q = ad.Tensor(rng.uniform(0.2, 0.8, size=(6, 6)), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(bce(q, gt))
        (fd,) = finite_difference(lambda: bce(ad.Tensor(q.data), gt).item(), [q])
        assert rel_err(q.grad, fd) < 1e-6


class TestTotalLoss:
    def test_perfect_predictions_near_zero(self):
        gt = np.zeros((8, 8))
        gt[2, 2] = 1.0
        assert total_loss(ad.Tensor(gt), ad.Tensor(gt), gt, gt).item() < 1e-4

    def test_additivity(self, rng):
        qp = ad.Tensor(rng.uniform(0.1, 0.9, (8, 8)))
        ql = ad.Tensor(rng.uniform(0.1, 0.9, (8, 8)))
        gp = rng.uniform(0, 1, (8, 8))
        gl = rng.uniform(0, 1, (8, 8))
        assert total_loss(qp, ql, gp, gl).item() == pytest.approx(
            bce(qp, gp).item() + bce(ql, gl).item(), rel=1e-12)

    def test_swap_symmetry(self, rng):
        qp = ad.Tensor(rng.uniform(0.1, 0.9, (8, 8)))
        ql = ad.Tensor(rng.uniform(0.1, 0.9, (8, 8)))
        gp = rng.uniform(0, 1, (8, 8))
        gl = rng.uniform(0, 1, (8, 8))
        assert total_loss(qp, ql, gp, gl).item() == pytest.approx(
            total_loss(ql, qp, gl, gp).item(), rel=1e-12)


def _dir_hash(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestDatasetGeneration:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_dataset(a, seed=3, episodes_per_family=2)
        generate_dataset(b, seed=3, episodes_per_family=2)
        assert _dir_hash(a) == _dir_hash(b)

    def test_counts_consistent(self, tmp_path):
        manifest = generate_dataset(tmp_path / "d", seed=1, episodes_per_family=2)
        c = manifest.counts
        assert c["total"] == len(manifest.demos)
        assert sum(c["by_split"].values()) == c["total"]
        assert sum(c["by_condition"].values()) == c["total"]
        assert sum(c["by_family"].values()) == c["total"]

    def test_proportional_split_at_desk_scale(self, tmp_path):
        # 42 episodes/family yields 504 demos, split 480/24 = exactly 21:1;
        # verified here at reduced scale through the same assignment rule.
        from clothfold.trainer.dataset import _episode_variants
        assignments = _episode_variants(42, held_out=False)
        n_test = sum(1 for _, _, split in assignments if split == "test")
        assert n_test == 2
        plan_lengths = {"DSF": 2, "DTF": 1, "FCIF": 4, "TF": 2, "TSF": 3}
        total = sum(42 * n for n in plan_lengths.values())
        test = sum(2 * n for n in plan_lengths.values())
        assert total == 504 and test == 24
        assert test * 21 == total

    def test_layout_is_the_manifest_and_two_frames_per_demo(self, tmp_path):
        manifest = generate_dataset(tmp_path, seed=1, episodes_per_family=1)
        files = sorted(p.relative_to(tmp_path).as_posix()
                       for p in tmp_path.rglob("*") if p.is_file())
        frames = [(d.rgb_file, d.depth_file) for d in manifest.demos]
        assert files == sorted(["manifest.json", *(f for pair in frames for f in pair)])
        assert all(rgb.endswith(".rgb.png") and depth.endswith(".depth.pgm")
                   and rgb.removesuffix(".rgb.png") == depth.removesuffix(".depth.pgm")
                   for rgb, depth in frames)

    def test_expert_failure_skips_the_episode(self, tmp_path, monkeypatch, caplog):
        from clothfold.trainer import dataset
        expert, calls = dataset.scripted_expert, []

        def fail_first_call(*args):
            calls.append(args)
            if len(calls) == 1:
                raise sim.ExpertError("landmark not found")
            return expert(*args)

        monkeypatch.setattr(dataset, "scripted_expert", fail_first_call)
        with caplog.at_level(logging.WARNING, logger="clothfold.trainer.dataset"):
            manifest = generate_dataset(tmp_path, seed=1, episodes_per_family=1)
        assert manifest.skipped_episodes == 1
        assert "skipping episode 0 (DSF): landmark not found" in caplog.text
        assert sorted({d.episode_id for d in manifest.demos}) == [1, 2, 3, 4]
        assert not list((tmp_path / "demos").glob("ep00000_*"))
        loaded, demos = load_dataset(tmp_path)
        assert loaded.skipped_episodes == 1
        assert [d.demo.rgb_file for d in demos] == [d.rgb_file for d in manifest.demos]

    def test_dataset_with_label_sidecars_loads_unchanged(self, tmp_path):
        """Datasets written with a JSON copy of each demo's manifest record
        next to its frames load as if the copies were not there."""
        generate_dataset(tmp_path / "d", seed=1, episodes_per_family=1)
        shutil.copytree(tmp_path / "d", tmp_path / "old")
        manifest, demos = load_dataset(tmp_path / "d")
        for d in manifest.demos:
            stem = d.rgb_file.removesuffix(".rgb.png")
            with open(tmp_path / "old" / f"{stem}.json", "w") as f:
                json.dump(d.to_record(), f, indent=1, sort_keys=True)
        old_manifest, old_demos = load_dataset(tmp_path / "old")
        assert old_manifest == manifest and len(old_demos) == len(demos) > 0
        for a, b in zip(demos, old_demos):
            assert a.demo == b.demo
            assert a.observation.rgb.tobytes() == b.observation.rgb.tobytes()
            assert a.observation.depth.tobytes() == b.observation.depth.tobytes()

    @pytest.mark.parametrize("which", ["rgb_file", "depth_file"])
    def test_frame_of_another_size_is_a_format_error(self, tmp_path, which):
        manifest = generate_dataset(tmp_path, seed=1, episodes_per_family=1)
        name = getattr(manifest.demos[-1], which)
        if which == "rgb_file":
            levels = images.read_png_rgb(tmp_path / name).levels()
            images.write_png_rgb(tmp_path / name, levels[:100] / 255.0)
        else:
            images.write_pgm16(tmp_path / name, images.read_pgm16(tmp_path / name)[:, 8:])
        size = "100x224" if which == "rgb_file" else "224x216"
        with pytest.raises(DatasetFormatError,
                           match=rf"{re.escape(name)}: a {size} frame, not the camera's 224x224"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("version", [99, 0, True, 1.0, "1", None])
    def test_manifest_of_another_version_is_a_format_error(self, version):
        from clothfold.trainer.dataset import DatasetManifest
        manifest = DatasetManifest(1, 0, 1, None, sim.default_camera(), [], [], {}, 0)
        assert DatasetManifest.from_json(manifest.to_json()) == manifest
        raw = json.loads(manifest.to_json())
        raw["version"] = version
        with pytest.raises(DatasetFormatError, match=re.escape(f"'version' must be the int 1, "
                                                              f"got {version!r}")):
            DatasetManifest.from_json(json.dumps(raw))

    def test_full_scale_protocol_documented(self, tmp_path):
        manifest = generate_dataset(tmp_path / "d", seed=1, episodes_per_family=1)
        raw = (tmp_path / "d" / "manifest.json").read_text()
        assert '"total": 15750' in raw
        assert '"train": 15000' in raw
        assert '"test": 750' in raw

    def test_held_out_family_tagged_ut(self, tmp_path):
        manifest = generate_dataset(tmp_path / "d", seed=1, episodes_per_family=2,
                                    held_out_family="DTF")
        for d in manifest.demos:
            if d.family == "DTF":
                assert d.condition == "UT" and d.split == "test"
            else:
                assert d.condition in ("SI", "UI")

    def test_pick_pixel_matches_projection_oracle(self, tmp_path):
        manifest, demos = load_dataset(
            generate_and_return(tmp_path / "d", seed=2, episodes_per_family=1))
        camera = manifest.camera
        for item in demos[:6]:
            x, y = item.demo.pick_world
            # project at any plausible layer height: sub-pixel either way
            u, v = camera.world_to_pixel(x, y, 0.002)
            assert abs(item.demo.pick_pixel[0] - v) <= 0.5 + 1e-9
            assert abs(item.demo.pick_pixel[1] - u) <= 0.5 + 1e-9

    @pytest.mark.parametrize("fail_call", [None, 4], ids=["all_kept", "one_skipped"])
    def test_replay_equality(self, tmp_path, monkeypatch, fail_call):
        """Every stored (sub-task, pick, place) is re-derivable from the expert:
        each episode is replayed from the manifest seed, drawing its pose in
        episode order, skipped episodes included, and every demo's pixels and
        world points equal the scripted expert's on the replayed mesh. No seed
        tried skips an episode, so one case makes the expert's fourth call fail
        as a landmark off the image would."""
        if fail_call is not None:
            calls = []

            def failing(mesh, subtask, camera):
                calls.append(subtask)
                if len(calls) == fail_call:
                    raise sim.ExpertError("landmark projects outside the image")
                return sim.scripted_expert(mesh, subtask, camera)

            monkeypatch.setattr(importlib.import_module("clothfold.trainer.dataset"),
                                "scripted_expert", failing)
        manifest, _ = load_dataset(
            generate_and_return(tmp_path / "d", seed=4, episodes_per_family=2))
        monkeypatch.undo()
        assert manifest.skipped_episodes == (fail_call is not None)
        by_episode = {}
        for d in manifest.demos:
            by_episode.setdefault(d.episode_id, []).append(d)
        rng = np.random.default_rng(manifest.seed)
        families = [f for f in manifest.families for _ in range(manifest.episodes_per_family)]
        for eid, family in enumerate(families):
            env = sim.jittered_sim(FAMILY_KIND[family], rng, manifest.camera)
            demos = sorted(by_episode.pop(eid, []), key=lambda d: d.step_index)
            if not demos:
                continue                  # a skipped episode still drew its pose
            plan = decompose(demos[0].command)
            assert [s.text for s in plan] == [d.subtask for d in demos]
            for subtask, d in zip(plan, demos):
                assert (d.family, d.cloth_kind) == (family, env.mesh.kind)
                action = sim.scripted_expert(env.mesh, subtask, manifest.camera)
                assert action.pick_pixel == d.pick_pixel
                assert action.place_pixel == d.place_pixel
                assert tuple(float(v) for v in action.pick_world[:2]) == d.pick_world
                assert tuple(float(v) for v in action.place_world[:2]) == d.place_world
                env.step(action.pick_world, action.place_world)
        assert by_episode == {}

    def test_observation_roundtrip_exact(self, tmp_path):
        out = generate_and_return(tmp_path / "d", seed=5, episodes_per_family=1)
        manifest, demos = load_dataset(out)
        camera = manifest.camera
        rng = np.random.default_rng(manifest.seed)
        # regenerate the first episode's first observation and compare
        first = manifest.demos[0]
        env = sim.jittered_sim(first.cloth_kind, rng, camera)
        obs = env.observe()
        np.testing.assert_array_equal(obs.rgb, demos[0].observation.rgb)
        np.testing.assert_array_equal(obs.depth, demos[0].observation.depth)


def generate_and_return(path, **kw):
    generate_dataset(path, **kw)
    return path


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "tiny"
    generate_dataset(root, seed=9, episodes_per_family=1)
    return load_dataset(root)


class TestTrain:
    def test_zero_epochs_keeps_initialization(self, tiny_dataset):
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        model = PerceptionModel(cfg)
        before = {k: t.data.copy() for k, t in model.trainable_parameters().items()}
        result = train(demos[:4], model, TrainConfig(epochs=0, batch_size=2))
        for k, t in model.trainable_parameters().items():
            np.testing.assert_array_equal(before[k], t.data)
        assert result.loss_curve == []

    def test_short_run_decreases_loss_and_freezes_towers(self, tiny_dataset):
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        model = PerceptionModel(cfg)
        frozen_before = {k: t.data.copy() for k, t in model.frozen_parameters().items()}
        result = train(demos[:6], model,
                       TrainConfig(epochs=5, batch_size=2, learning_rate=1e-3,
                                   val_fraction=0.0))
        assert result.loss_curve[-1]["train_loss"] < result.loss_curve[0]["train_loss"]
        for k, t in model.frozen_parameters().items():
            assert np.array_equal(frozen_before[k], t.data), k

    def test_best_validation_state_restored(self, tiny_dataset):
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        model = PerceptionModel(cfg)
        result = train(demos[:10], model,
                       TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3,
                                   val_fraction=0.2))
        assert result.n_val == 2
        assert result.best_epoch >= 0
        assert result.best_val_loss < math.inf

    def test_divergence_aborts(self, tiny_dataset):
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        model = PerceptionModel(cfg)
        model.fusion.w_p.data[:] = float("nan")
        with pytest.raises(TrainingDivergedError):
            train(demos[:4], model, TrainConfig(epochs=1, batch_size=2))

    def test_frozen_weight_written_during_training_aborts(self, tiny_dataset,
                                                          frozen_write_on_step):
        _, demos = tiny_dataset
        model = PerceptionModel(ModelConfig(embed_dim=16, depth=1, patch_size=16,
                                            image_size=112, seed=1))
        with pytest.raises(TrainingDivergedError, match="frozen weight .* changed"):
            train(demos[:2], model, TrainConfig(epochs=1, batch_size=2, val_fraction=0.0))

    def test_infinite_gradient_aborts_before_the_step(self, tiny_dataset, monkeypatch):
        """A finite loss whose gradient is infinite on the only step of a run
        with no validation slice: the step would write NaN weights."""
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        model = PerceptionModel(cfg)
        p = model.fusion.ln_g
        p.data[:] = 0.0
        monkeypatch.setattr(train_module, "sample_loss", lambda m, s, w=1.0, weights=None: ad.scale(
            ad.sum_all(ad.pow_const(p, 0.5)), w))
        before = {k: t.data.copy() for k, t in model.trainable_parameters().items()}
        with np.errstate(divide="ignore"), \
                pytest.raises(TrainingDivergedError, match="gradient norm"):
            train(demos[:1], model, TrainConfig(epochs=1, batch_size=1, val_fraction=0.0))
        for k, t in model.trainable_parameters().items():
            assert np.array_equal(before[k], t.data), k

    def test_demo_outside_the_crop_names_demo_and_pixel(self, tiny_dataset):
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=16, seed=1)
        with pytest.raises(CropError, match=r"episode \d+ step \d+: (pick|place) pixel "
                                            r"\(\d+, \d+\) lies outside the 16x16"):
            train(demos, PerceptionModel(cfg), TrainConfig(epochs=1, batch_size=2))

    def test_crop_without_cloth_is_a_crop_error(self, tmp_path):
        # Seed 5, episode 3 step 1: the 8x8 centre crop holds no cloth, so
        # segmenting it first would end in EmptyMaskError instead.
        generate_dataset(tmp_path, seed=5, episodes_per_family=1)
        _, demos = load_dataset(tmp_path)
        (demo,) = [d for d in demos if (d.demo.episode_id, d.demo.step_index) == (3, 1)]
        assert not demo.observation.cloth_mask[108:116, 108:116].any()
        cfg = ModelConfig(embed_dim=8, depth=1, patch_size=4, image_size=8, seed=1)
        with pytest.raises(CropError, match=r"episode 3 step 1: pick pixel \(153, 129\) "
                                            r"lies outside the 8x8 centre crop at \(108, 108\)"):
            train([demo], PerceptionModel(cfg), TrainConfig(epochs=1, batch_size=1))

    def test_frame_smaller_than_the_crop_is_a_crop_error_before_any_pixel(
            self, tmp_path, monkeypatch):
        # Frames made at sim.resolution 100 and read at model.image_size 112:
        # the message names both sizes, and no pixel of the frame is read.
        generate_dataset(tmp_path, seed=0, episodes_per_family=1,
                         camera=sim.default_camera(100))
        _, demos = load_dataset(tmp_path)

        def no_read(*args):
            raise AssertionError("a pixel was read")

        monkeypatch.setattr(importlib.import_module("clothfold.sim.render"), "_as_float",
                            no_read)
        model = PerceptionModel(ModelConfig(embed_dim=8, depth=1, patch_size=16,
                                            image_size=112, seed=1))
        with pytest.raises(CropError) as err:
            prepare_sample(model, demos[0], 4.0)
        assert str(err.value) == ("its 100x100 frame is smaller than the centre crop "
                                  "of model.image_size 112")

    @pytest.mark.parametrize("field,pixel", [("pick_pixel", [500, 500]),
                                             ("pick_pixel", [-1, 120]),
                                             ("place_pixel", [120, 224])])
    def test_label_pixel_outside_the_frame_names_the_demo(self, tmp_path, field, pixel):
        generate_dataset(tmp_path, seed=0, episodes_per_family=1)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        d = manifest["demos"][3]
        d[field] = pixel
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        what = field.split("_")[0]
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"demo of episode {d['episode_id']} step {d['step_index']}: {what} pixel "
                f"{tuple(pixel)} lies outside the camera's 224x224 frame")):
            load_dataset(tmp_path)

    def test_frame_without_cloth_names_the_demo(self, tmp_path):
        manifest = generate_dataset(tmp_path, seed=5, episodes_per_family=1)
        d = manifest.demos[2]
        images.write_png_rgb(tmp_path / d.rgb_file, np.zeros((224, 224, 3)))
        _, demos = load_dataset(tmp_path)
        cfg = ModelConfig(embed_dim=8, depth=1, patch_size=16, image_size=112, seed=1)
        with pytest.raises(DatasetFormatError,
                           match=rf"episode {d.episode_id} step {d.step_index}: "
                                 r"no cloth pixels in the centre crop"):
            train(demos[2:3], PerceptionModel(cfg), TrainConfig(epochs=1, batch_size=1))

    def test_prepare_sample_scales_one_depth_window_in_segmentation(self, tiny_dataset,
                                                                    monkeypatch):
        """A loaded frame builds a float depth frame on each read of ``depth``,
        so ``prepare_sample`` reads none: ``segment_workspace`` scales only the
        window of the stored counts it crops, once."""
        _, demos = tiny_dataset
        depth, crop = sim.Observation.depth, sim.Observation.crop
        reads = []

        def counting(obs):
            reads.append((obs, "depth", sys._getframe(1).f_code.co_name))
            return depth.fget(obs)

        def counting_crop(obs, window):
            reads.append((obs, "crop", sys._getframe(1).f_code.co_name))
            return crop(obs, window)

        monkeypatch.setattr(sim.Observation, "depth", property(counting))
        monkeypatch.setattr(sim.Observation, "crop", counting_crop)
        model = PerceptionModel(ModelConfig(embed_dim=8, depth=1, patch_size=16,
                                            image_size=112, seed=1))
        for demo in demos[:3]:
            reads.clear()
            prepare_sample(model, demo, 4.0)
            assert [(what, where) for obs, what, where in reads
                    if obs is demo.observation] == [("crop", "segment_workspace")]

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        with pytest.raises(ValueError):
            train([], PerceptionModel(cfg), TrainConfig())

    def test_epoch_log_reports_rate_norm_and_clips(self, tiny_dataset, caplog):
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        with caplog.at_level(logging.INFO, logger="clothfold.trainer.train"):
            train(demos[:5], PerceptionModel(cfg),
                  TrainConfig(epochs=2, batch_size=2, val_fraction=0.0, clip_norm=1e-9))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "clothfold.trainer.train"]
        assert len(lines) == 2
        for epoch, line in enumerate(lines):
            m = re.fullmatch(r"epoch (\d+): train \S+ val -; ([\d.]+) s, ([\d.]+) "
                             r"samples/s, max grad norm (\S+), clipped (\d+) of (\d+) steps",
                             line)
            assert m, line
            assert int(m[1]) == epoch
            assert float(m[3]) > 0 and float(m[4]) > 1e-9
            assert int(m[5]) == int(m[6]) == 3        # 5 samples in batches of 2

    def test_curve_csv_schema(self, tiny_dataset):
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=1)
        model = PerceptionModel(cfg)
        result = train(demos[:4], model,
                       TrainConfig(epochs=2, batch_size=2, val_fraction=0.0))
        lines = result.curve_csv().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3


class TestClipGradients:
    def test_scales_to_max_norm(self):
        p = ad.Tensor(np.zeros(2), requires_grad=True)
        q = ad.Tensor(np.zeros(1), requires_grad=True)
        opt = ad.Adam([p, q])
        p.grad, q.grad = np.array([3.0, 0.0]), np.array([4.0])
        assert clip_gradients(opt, 1.0) == 5.0
        np.testing.assert_allclose(np.concatenate([p.grad, q.grad]), [0.6, 0.0, 0.8])

    @pytest.mark.parametrize("max_norm", [100.0, 0.0])
    def test_non_finite_norm_raises(self, max_norm):
        p = ad.Tensor(np.array([0.0, 1.0]), requires_grad=True)
        opt = ad.Adam([p])
        with ad.Tape() as tape, np.errstate(divide="ignore"):
            loss = ad.sum_all(ad.pow_const(p, 0.5))
            tape.backward(loss)
        assert loss.item() == 1.0
        assert p.grad.tolist() == [math.inf, 0.5]
        with pytest.raises(TrainingDivergedError):
            clip_gradients(opt, max_norm)
        assert p.grad.tolist() == [math.inf, 0.5]
        p.grad = np.array([math.nan, 0.0])
        with pytest.raises(TrainingDivergedError):
            clip_gradients(opt, max_norm)


class TestGradCheck:
    def test_report_deterministic_and_excludes_frozen(self, tiny_dataset):
        from clothfold.trainer import grad_check, prepare_sample
        _, demos = tiny_dataset
        cfg = ModelConfig(embed_dim=8, depth=1, patch_size=56, image_size=112,
                          dora_rank=2, seed=6)
        sample = prepare_sample(PerceptionModel(cfg), demos[0], 4.0)
        reports = []
        for _ in range(2):
            model = PerceptionModel(cfg)
            reports.append(grad_check(model, sample, seed=3))
        a, b = reports
        assert a.max_rel_err == b.max_rel_err
        assert a.per_group == b.per_group
        assert a.n_scalars == b.n_scalars == PerceptionModel(
            cfg).parameter_census()["trainable"]
        assert set(a.per_group) == {"adapter", "fusion", "tokens", "decoder"}


class TestAblation:
    def test_scores_with_the_runs_benchmark_record(self, monkeypatch):
        """Every combination is scored with the given benchmark record, on seen
        instructions only, its other settings kept; no model trains here."""
        from types import SimpleNamespace

        from clothfold.evaluation import BenchmarkConfig
        from clothfold.trainer import ablate
        trained, scored = [], []
        cell = {"sr_percent": 0.0, "mean_mpd_m": 0.0, "miou_percent": 0.0}

        def fake_train(demos, model, cfg):
            trained.append(cfg)
            return SimpleNamespace(final_train_loss=0.0)

        def fake_run_benchmark(model, config, camera):
            scored.append((config, camera))
            return SimpleNamespace(averages={"SI": cell}, cells={"SI/DTF": cell})

        monkeypatch.setattr(ablate, "train", fake_train)
        monkeypatch.setattr(ablate, "run_benchmark", fake_run_benchmark)
        bench = BenchmarkConfig(episodes_per_cell=2, seed=5, mask_only=True)
        tc, camera = TrainConfig(epochs=1), sim.default_camera()
        report = ablate.run_ablation([], ModelConfig(embed_dim=8, depth=1, patch_size=16),
                                     tc, camera, bench)
        assert len(report.rows) == len(trained) == len(scored) == 8
        assert all(cfg is tc for cfg in trained)
        for config, cam in scored:
            assert config == BenchmarkConfig(episodes_per_cell=2, seed=5, mask_only=True,
                                             conditions=("SI",))
            assert cam is camera
