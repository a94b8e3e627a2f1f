"""Checkpoint persistence, run configuration validation, and CLI behavior."""

import http.server
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from clothfold import checkpoint as ck
from clothfold import images
from clothfold.evaluation import BenchmarkConfig
from clothfold.perception import ModelConfig, PerceptionModel
from clothfold.runconfig import ConfigError, load_config, parse_config
from clothfold.cli import main as cli_main
from clothfold.sim import default_camera


@pytest.fixture
def model():
    return PerceptionModel(ModelConfig(embed_dim=16, depth=1, patch_size=16,
                                       image_size=112, seed=8))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, model, rng):
        for t in model.trainable_parameters().values():
            t.data[:] = rng.normal(size=t.shape)
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model, metadata={"note": "test"})
        loaded = ck.load_checkpoint(path)
        named = model.named_parameters()
        assert set(loaded.tensors) == set(named)
        for name, t in named.items():
            assert np.array_equal(loaded.tensors[name], t.data), name
        assert loaded.metadata["note"] == "test"

    def test_load_into_fresh_model(self, tmp_path, model, rng):
        for t in model.trainable_parameters().values():
            t.data[:] = rng.normal(size=t.shape)
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model)
        other = ck.model_from_checkpoint(ck.load_checkpoint(path))
        for name, t in model.named_parameters().items():
            assert np.array_equal(other.named_parameters()[name].data, t.data)

    def test_shape_mismatch_names_tensor(self, tmp_path, model):
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model)
        bigger = PerceptionModel(ModelConfig(embed_dim=32, depth=1, patch_size=16,
                                             image_size=112, seed=8))
        loaded = ck.load_checkpoint(path)
        with pytest.raises(ck.CheckpointError) as e:
            ck.load_into_model(loaded, bigger)
        assert "config" in str(e.value)
        # A table that gives one tensor another shape of the same size, under
        # the model's own config, gets past the load to the shape check.
        forged = tmp_path / "forged.cfck"
        forged.write_bytes(_forged_checkpoints(model, tmp_path)["tensor_reshaped"])
        reshaped = ck.load_checkpoint(forged)
        name = sorted(reshaped.tensors)[0]
        with pytest.raises(ck.CheckpointError) as e2:
            ck.load_into_model(reshaped, model)
        assert "shape" in str(e2.value) and repr(name) in str(e2.value)

    def test_header_with_null_optimizer_key_loads(self, tmp_path, model, rng):
        """Earlier writers put ``"optimizer": null`` in every header; such files
        still load bit-exact."""
        for t in model.trainable_parameters().values():
            t.data[:] = rng.normal(size=t.shape)
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len])
        assert "optimizer" not in header
        text = json.dumps({**header, "optimizer": None}, sort_keys=True).encode()
        path.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text
                         + blob[16 + header_len:])
        loaded = ck.load_checkpoint(path)
        for name, t in model.named_parameters().items():
            assert np.array_equal(loaded.tensors[name], t.data), name

    def test_header_with_derived_config_keys_loads(self, tmp_path, model, rng):
        """Earlier writers put the derived ``head_dim`` and ``vocab_size`` in
        the model config; such files load bit-exact into the same model."""
        for t in model.trainable_parameters().values():
            t.data[:] = rng.normal(size=t.shape)
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len])
        assert not {"head_dim", "vocab_size"} & set(header["model_config"])
        header["model_config"].update(head_dim=16, vocab_size=66)
        text = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text
                         + blob[16 + header_len:])
        loaded = ck.load_checkpoint(path)
        for name, t in model.named_parameters().items():
            assert loaded.tensors[name].tobytes() == t.data.tobytes(), name
        fresh = PerceptionModel(model.cfg)
        ck.load_into_model(loaded, fresh)
        for name, t in model.named_parameters().items():
            assert fresh.named_parameters()[name].data.tobytes() == t.data.tobytes(), name

    def test_truncated_file_rejected(self, tmp_path, model):
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ck.CheckpointError):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, model, value):
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model)
        last = sorted(model.named_parameters())[-1]   # its payload comes last
        path.write_bytes(path.read_bytes()[:-8] + np.array([value], "<f8").tobytes())
        with pytest.raises(ck.CheckpointError, match=f"tensor {last!r} holds NaN or infinity"):
            ck.load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "x.cfck"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ck.CheckpointError):
            ck.load_checkpoint(p)

    def test_version_check(self, tmp_path, model):
        path = tmp_path / "m.cfck"
        ck.save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ck.CheckpointError):
            ck.load_checkpoint(path)

    def test_save_load_save_bytes_stable(self, tmp_path, model):
        p1 = tmp_path / "a.cfck"
        p2 = tmp_path / "b.cfck"
        ck.save_checkpoint(p1, model)
        other = ck.model_from_checkpoint(ck.load_checkpoint(p1))
        ck.save_checkpoint(p2, other)
        assert p1.read_bytes() == p2.read_bytes()


class TestRunConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.model.embed_dim == 64
        assert cfg.train.batch_size == 16

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"sed": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {"embedding": 64}})
        with pytest.raises(ConfigError):
            parse_config({"sim": {"reso": 224}})
        for raw in ({"model": {"head_dim": 64}}, {"model": {"vocab_size": 66}},
                    {"sim": {"camera_height": 1.0}}):     # each had one working value
            with pytest.raises(ConfigError, match="unknown keys"):
                parse_config(raw)

    def test_adapter_axis_owned_by_model(self):
        cfg = parse_config({"model": {"adapter": "lora"}})
        assert cfg.model.adapter == "lora"
        assert not {"adapter", "fusion"} & set(cfg.train.to_record())

    def test_conflicting_axes_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {"adapter": "lora"},
                          "train": {"adapter": "dora"}})

    def test_hash_stable_and_sensitive(self):
        a = parse_config({"seed": 1})
        b = parse_config({"seed": 1})
        c = parse_config({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_backend_built_on_load(self):
        cfg = parse_config({"planner": {"backend": {"endpoint_url": "http://x/v1"}}})
        assert cfg.backend.endpoint_url == "http://x/v1"
        assert cfg.planner == {"backend": {"endpoint_url": "http://x/v1"}}
        assert parse_config({}).backend is None

    def test_camera_and_benchmark_built_on_load(self):
        cfg = parse_config({"seed": 4, "sim": {"resolution": 160},
                            "data": {"held_out_family": "TF"},
                            "benchmark": {"episodes_per_cell": 2, "mask_only": True}})
        assert cfg.camera == default_camera(160)
        assert cfg.bench == BenchmarkConfig(episodes_per_cell=2, seed=4,
                                            held_out_family="TF", mask_only=True)
        assert load_config(None).bench == BenchmarkConfig()
        assert load_config(None).camera == default_camera()

    def test_readme_configs_parse(self):
        """Every JSON block in README is a config ``parse_config`` accepts, so a
        removed key cannot linger in the docs."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```json\n")[1:]
        assert len(blocks) >= 2
        for block in blocks:
            parse_config(json.loads(block.split("```")[0]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(p)


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A tiny dataset + config shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "seed": 5,
        "model": {"embed_dim": 16, "depth": 1, "patch_size": 16},
        "train": {"epochs": 1, "batch_size": 4, "learning_rate": 1e-3},
        "data": {"episodes_per_family": 1},
        "benchmark": {"episodes_per_cell": 1},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    data_dir = root / "data"
    rc = cli_main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)])
    assert rc == 0
    return root, cfg_path, data_dir


class TestCli:
    def test_plan_prints_subtasks(self, capsys):
        rc = cli_main(["plan", "--command",
                       "Fold the Trousers in half from left to right"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 2
        assert out[0]["pick_landmark"] == "left waist"

    def test_planning_error_exit_code(self, capsys):
        rc = cli_main(["plan", "--command", "Do nothing"])
        assert rc == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown_key": 1}))
        rc = cli_main(["plan", "--config", str(bad), "--command", "Fold the T-Shirt"])
        assert rc == 2

    def test_gen_data_deterministic(self, cli_env, tmp_path, capsys):
        root, cfg_path, data_dir = cli_env
        import hashlib
        from pathlib import Path

        def dir_hash(d):
            h = hashlib.sha256()
            for p in sorted(Path(d).rglob("*")):
                if p.is_file():
                    h.update(p.relative_to(d).as_posix().encode())
                    h.update(p.read_bytes())
            return h.hexdigest()

        other = tmp_path / "data2"
        rc = cli_main(["gen-data", "--config", str(cfg_path), "--out", str(other)])
        assert rc == 0
        assert dir_hash(data_dir) == dir_hash(other)

    def test_train_eval_run_chain(self, cli_env, capsys):
        root, cfg_path, data_dir = cli_env
        train_dir = root / "train"
        rc = cli_main(["train", "--config", str(cfg_path),
                       "--dataset", str(data_dir), "--out", str(train_dir)])
        assert rc == 0
        assert (train_dir / "model.cfck").exists()
        assert (train_dir / "loss_curve.csv").read_text().startswith("epoch,")

        # resume path: must accept its own checkpoint
        rc = cli_main(["train", "--config", str(cfg_path),
                       "--dataset", str(data_dir), "--out", str(root / "train2"),
                       "--resume", str(train_dir / "model.cfck")])
        assert rc == 0

        eval_dir = root / "eval"
        rc = cli_main(["eval", "--config", str(cfg_path),
                       "--checkpoint", str(train_dir / "model.cfck"),
                       "--out", str(eval_dir)])
        assert rc == 0
        report = json.loads((eval_dir / "report.json").read_text())
        assert len(report["cells"]) == 15
        # The episode records are the artifact index: nothing else lands there.
        listed = {f for e in report["episodes"] for f in e["artifact_files"]}
        assert listed
        assert {p.name for p in (eval_dir / "heatmaps").iterdir()} == listed
        # One config hash, the run's own.
        assert (eval_dir / "report.json").read_text().count('"config_hash"') == 1
        assert report["provenance"]["config_hash"] == load_config(cfg_path).config_hash()

        run_dir = root / "run"
        rc = cli_main(["run", "--config", str(cfg_path),
                       "--checkpoint", str(train_dir / "model.cfck"),
                       "--command", "Fold the Trousers in half from left to right",
                       "--out", str(run_dir)])
        assert rc == 0
        episode = json.loads((run_dir / "episode.json").read_text())
        assert len(episode["subtasks"]) == 2
        assert (run_dir / "before.rgb.png").exists()
        assert (run_dir / "after.rgb.png").exists()

    def test_eval_expert_mode_bypasses_model(self, cli_env, capsys):
        root, cfg_path, _ = cli_env
        out = root / "eval_expert"
        rc = cli_main(["eval", "--config", str(cfg_path), "--expert",
                       "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        # the scripted expert succeeds everywhere
        assert all(cell["sr_percent"] == 100.0 for cell in report["cells"].values())

    def test_eval_expert_mask_only(self, cli_env, tmp_path, capsys):
        _, cfg_path, _ = cli_env
        cfg = json.loads(cfg_path.read_text())
        cfg["benchmark"]["mask_only"] = True
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = cli_main(["eval", "--config", str(tmp_path / "cfg.json"), "--expert",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["mask_only"] is True
        for key, cell in report["cells"].items():
            eps = [e for e in report["episodes"] if f"{e['condition']}/{e['family']}" == key]
            wins = sum(e["miou"] > 0.8 and e["failure_reason"] is None for e in eps)
            assert cell["sr_percent"] == 100.0 * wins / len(eps), key

    def test_run_expert_mode(self, cli_env, capsys):
        root, cfg_path, _ = cli_env
        out = root / "run_expert"
        rc = cli_main(["run", "--config", str(cfg_path), "--expert",
                       "--command", "Fold the Towel in half diagonally",
                       "--out", str(out)])
        assert rc == 0
        episode = json.loads((out / "episode.json").read_text())
        assert episode["success"] is True

    def test_run_expert_kindless_sentence_takes_its_one_cloth(self, cli_env, capsys):
        """Only the trousers have both legs, so the sentence needs no cloth named."""
        root, cfg_path, _ = cli_env
        out = root / "run_kindless"
        rc = cli_main(["run", "--config", str(cfg_path), "--expert", "--command",
                       "Grasp the left leg and place it to the right leg",
                       "--out", str(out)])
        assert rc == 0
        episode = json.loads((out / "episode.json").read_text())
        assert episode["steps"] == 1 and episode["failure_reason"] is None

    def test_run_atomic_instruction_single_step(self, cli_env, capsys):
        root, cfg_path, _ = cli_env
        out = root / "run_atomic"
        rc = cli_main(["run", "--config", str(cfg_path), "--expert",
                       "--command",
                       "Grasp the top edge of the Towel and place it to the bottom edge",
                       "--out", str(out)])
        assert rc == 0
        episode = json.loads((out / "episode.json").read_text())
        assert episode["steps"] == 1 and len(episode["subtasks"]) == 1

    def test_resume_with_mismatched_model_config(self, cli_env, tmp_path, capsys):
        root, cfg_path, data_dir = cli_env
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({
            "seed": 5,
            "model": {"embed_dim": 32, "depth": 1, "patch_size": 16},
            "train": {"epochs": 1, "batch_size": 4},
            "data": {"episodes_per_family": 1},
        }))
        rc = cli_main(["train", "--config", str(other_cfg),
                       "--dataset", str(data_dir), "--out", str(tmp_path / "t"),
                       "--resume", str(root / "train" / "model.cfck")])
        assert rc == 4

    def test_zero_epochs_writes_valid_json(self, cli_env, tmp_path, capsys):
        """With no epoch run, the final train loss is JSON null, not Infinity."""
        _, _, data_dir = cli_env
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({
            "model": {"embed_dim": 16, "depth": 1, "patch_size": 16},
            "train": {"epochs": 0}}))
        out = tmp_path / "t"
        rc = cli_main(["train", "--config", str(cfg), "--dataset", str(data_dir),
                       "--out", str(out)])
        assert rc == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")
        for text in (capsys.readouterr().out, (out / "train_meta.json").read_text()):
            meta = json.loads(text, parse_constant=reject)
            assert meta["final_train_loss"] is None and meta["best_val_loss"] is None
        blob = (out / "model.cfck").read_bytes()
        header = json.loads(blob[16:16 + int.from_bytes(blob[8:16], "little")],
                            parse_constant=reject)
        assert header["metadata"]["final_train_loss"] is None

    def test_grad_check_command(self, tmp_path, capsys):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({
            "seed": 1,
            "model": {"embed_dim": 8, "depth": 1, "patch_size": 56,
                      "dora_rank": 2}}))
        rc = cli_main(["grad-check", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max rel err" in out

    def test_grad_check_rejects_large_model(self, capsys):
        rc = cli_main(["grad-check"])      # default config: embed_dim 64
        assert rc == 2

    def test_ablate_command(self, cli_env, capsys):
        root, cfg_path, data_dir = cli_env
        out = root / "ablation"
        rc = cli_main(["ablate", "--config", str(cfg_path),
                       "--dataset", str(data_dir), "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "ablation.json").read_text())["rows"]
        assert len(rows) == 8
        csv = (out / "ablation.csv").read_text()
        assert csv.startswith("adapter,fusion,")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_frozen_weight_change_exits_4(self, command, cli_env, tmp_path,
                                          frozen_write_on_step, capsys):
        _, cfg_path, data_dir = cli_env
        rc = cli_main([command, "--config", str(cfg_path), "--dataset", str(data_dir),
                       "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "changed during training" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_io_error_exit_code(self, cli_env, tmp_path, capsys):
        root, cfg_path, _ = cli_env
        rc = cli_main(["eval", "--config", str(cfg_path),
                       "--checkpoint", str(tmp_path / "missing.cfck"),
                       "--out", str(tmp_path / "o")])
        assert rc == 5

    def test_artifacts_embed_provenance(self, cli_env):
        root, cfg_path, data_dir = cli_env
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert "config_hash" in manifest["provenance"]
        assert manifest["provenance"]["seed"] == 5

    def test_console_entrypoint(self):
        proc = subprocess.run([sys.executable, "-m", "clothfold", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout


def _forged_checkpoints(model, tmp_path):
    """Malformed checkpoint files keyed by what is wrong with them."""
    good = tmp_path / "good.cfck"
    ck.save_checkpoint(good, model)
    blob = good.read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    body = blob[16 + header_len:]

    def forged(edit):
        header = json.loads(blob[16:16 + header_len])
        edit(header, header["tensors"][sorted(header["tensors"])[0]])
        text = json.dumps(header, sort_keys=True).encode()
        return blob[:8] + len(text).to_bytes(8, "little") + text + body

    return {
        "shorter_than_16_bytes": blob[:12],
        "header_cut_off": blob[:16 + header_len // 2],
        "header_not_utf8": blob[:16] + b"\xff" * header_len + body,
        "header_not_json": blob[:16] + b"x" * header_len + body,
        "header_nested_too_deep": blob[:16] + b"[" * header_len + body,
        "header_not_an_object": blob[:16] + b"[]".ljust(header_len) + body,
        "shape_disagrees_with_nbytes": forged(lambda h, t: t["shape"].append(2)),
        "tensor_reshaped": forged(lambda h, t: t["shape"].insert(0, 1)),
        "tensor_renamed": forged(lambda h, t: h["tensors"].update(
            {"renamed": h["tensors"].pop(sorted(h["tensors"])[0])})),
        "tensor_without_offset": forged(lambda h, t: t.pop("offset")),
        "model_config_invalid": forged(lambda h, t: h["model_config"].update(embed_dim=-3)),
        "tensor_not_finite": blob[:-8] + np.array([np.nan], "<f8").tobytes(),
    }


def _bad_dataset(case, data_dir, tmp_path):
    """A copy of the dataset with its manifest or first demo's image broken."""
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    first = manifest["demos"][0]
    png, pgm = bad / first["rgb_file"], bad / first["depth_file"]
    pgm_data = pgm.read_bytes().split(b"\n", 3)[3]
    if case in _BAD_DEMO_FIELDS:
        key, value = _BAD_DEMO_FIELDS[case]
        first[key] = value
        (bad / "manifest.json").write_text(json.dumps(manifest))
    elif case.startswith("png_cut_to_"):
        png.write_bytes(png.read_bytes()[:int(case.split("_")[-2])])
    elif case in _PNG_FLIPS:
        blob = bytearray(png.read_bytes())
        blob[_PNG_FLIPS[case](blob)] ^= 0x01
        png.write_bytes(bytes(blob))
    elif case in _PNG_IHDR_EDITS:             # CRC intact
        blob = png.read_bytes()
        at = blob.index(b"IHDR") + 4
        offset, value = _PNG_IHDR_EDITS[case]
        ihdr = blob[at:at + offset] + value + blob[at + offset + len(value):at + 13]
        png.write_bytes(blob[:at] + ihdr + zlib.crc32(b"IHDR" + ihdr).to_bytes(4, "big")
                        + blob[at + 17:])
    elif case == "pgm_size_not_numeric":
        pgm.write_bytes(b"P5\nwide tall\n65535\n" + pgm_data)
    elif case == "pgm_size_negative":
        pgm.write_bytes(b"P5\n-224 224\n65535\n" + pgm_data)
    elif case == "pgm_data_odd_length":
        pgm.write_bytes(b"P5\n224 224\n65535\n" + pgm_data[:101])
    elif case == "manifest_not_json":
        (bad / "manifest.json").write_text("{not json")
    elif case == "png_resized":               # a valid PNG of the frame's centre
        images.write_png_rgb(png, images.read_png_rgb(png).levels()[62:162, 62:162] / 255.0)
    elif case == "pgm_resized":               # a valid PGM 24 rows short
        images.write_pgm16(pgm, images.read_pgm16(pgm)[12:212])
    elif case == "png_all_background":        # a valid PNG with no cloth
        images.write_png_rgb(png, np.zeros((224, 224, 3)))
    else:
        if case == "manifest_key_missing":
            del first["rgb_file"]
        elif case == "manifest_camera_key_missing":
            del manifest["camera"]["fx"]
        elif case in _BAD_CAMERA_FIELDS:
            key, value = _BAD_CAMERA_FIELDS[case]
            manifest["camera"][key] = value
        elif case == "manifest_demos_not_a_list":
            manifest["demos"] = {"0": first}
        elif case == "manifest_version_unknown":
            manifest["version"] = 99
        elif case in _NO_TRAIN_SPLIT:
            manifest["demos"] = []
        (bad / "manifest.json").write_text(json.dumps(manifest))
    return bad


_BAD_DEMO_FIELDS = {          # first demo record's field -> a mistyped or out-of-range value
    "demo_rgb_file_a_number": ("rgb_file", 5),
    "demo_pick_pixel_a_string": ("pick_pixel", "ab"),
    "demo_pick_pixel_one_item": ("pick_pixel", [1]),
    # a label pixel outside the manifest camera's 224x224 frame
    "demo_pick_pixel_outside_frame": ("pick_pixel", [500, 500]),
    "demo_pick_pixel_negative_row": ("pick_pixel", [-1, 120]),
    "demo_subtask_null": ("subtask", None),
    "demo_split_a_number": ("split", 3),
    # a sub-task the model cannot split at its conjunction
    "subtask_without_words": ("subtask", "!!"),
    "subtask_without_conjunction": ("subtask", "fold the towel"),
    "subtask_ending_in_and": ("subtask", "grasp the left edge and"),
}

_PNG_FLIPS = {                # PNG bytes -> the offset of the byte to flip
    "png_ihdr_crc_flipped": lambda blob: blob.index(b"IHDR") + 4 + 13,   # after the payload
    "png_idat_byte_flipped": lambda blob: blob.index(b"IDAT") + 4 + 50,
}

_PNG_IHDR_EDITS = {           # IHDR payload offset -> the bytes written there
    "png_grey_colour_type": (9, b"\x00"),
    "png_taller_than_its_data": (4, (225).to_bytes(4, "big")),
    # an inflate buffer sized from this IHDR alone would not fit in memory
    "png_2_31_minus_1_square": (0, (2**31 - 1).to_bytes(4, "big") * 2),
}

_BAD_CAMERA_FIELDS = {        # manifest camera record's field -> a value no camera has
    "manifest_camera_fx_nan": ("fx", math.nan),
    "manifest_camera_mount_height_negative": ("mount_height", -1),
    "manifest_camera_width_float": ("width", 224.0),
}

# A dataset with no demo, so no train split, and the command that reads it;
# ``ablate`` reads the bad cameras, ``train`` the other bad datasets.
_NO_TRAIN_SPLIT = {"train_without_train_split": "train",
                   "ablate_without_train_split": "ablate"}
_DATASET_COMMANDS = {**_NO_TRAIN_SPLIT, **dict.fromkeys(_BAD_CAMERA_FIELDS, "ablate")}

_BAD_DATASETS = ("png_cut_to_100_bytes", "png_cut_to_10_bytes", *_PNG_FLIPS,
                 *_PNG_IHDR_EDITS,
                 "pgm_size_not_numeric", "pgm_size_negative", "pgm_data_odd_length",
                 "manifest_not_json", "manifest_key_missing", "manifest_camera_key_missing",
                 "manifest_demos_not_a_list", "manifest_version_unknown", *_BAD_DEMO_FIELDS,
                 *_BAD_CAMERA_FIELDS, "png_resized", "pgm_resized", "png_all_background",
                 *_NO_TRAIN_SPLIT)


def _train_on_cli_data(section, **values):
    """A small-model config with ``values`` set in ``section``, run by
    ``train`` on the CLI test dataset."""
    cfg = {"model": {"embed_dim": 16, "depth": 1, "patch_size": 16},
           "train": {"epochs": 1, "batch_size": 4}}
    cfg[section] = {**cfg[section], **values}
    return cfg, ["train"]


_BAD_CONFIGS = {              # config (or the file's raw bytes) -> the command that reads it
    "config_not_utf8": (b'{"x": "\xff"}', ["eval", "--expert"]),
    "config_nested_too_deep": (b"[" * 100_000, ["eval", "--expert"]),
    "config_root_a_list": (b"[]", ["eval", "--expert"]),
    "section_a_number": ({"benchmark": 5}, ["eval", "--expert"]),
    "held_out_family": ({"data": {"held_out_family": "XYZ"}}, ["gen-data"]),
    "sim_resolution_not_int": ({"sim": {"resolution": "abc"}}, ["eval", "--expert"]),
    "sim_resolution_zero": ({"sim": {"resolution": 0}}, ["eval", "--expert"]),
    "sim_camera_height_negative": ({"sim": {"camera_height": -1}}, ["eval", "--expert"]),
    "benchmark_episodes_per_cell_not_int": ({"benchmark": {"episodes_per_cell": "x"}},
                                            ["eval", "--expert"]),
    "benchmark_mask_only_not_bool": ({"benchmark": {"mask_only": "yes"}},
                                     ["eval", "--expert"]),
    "data_episodes_per_family_not_int": ({"data": {"episodes_per_family": "x"}},
                                         ["gen-data"]),
    "train_adapter_key": ({"train": {"adapter": "dora"}}, ["eval", "--expert"]),
    "train_epochs_float": _train_on_cli_data("train", epochs=1.5),
    "train_epochs_bool": _train_on_cli_data("train", epochs=True),
    "train_batch_size_float": _train_on_cli_data("train", batch_size=2.5),
    "train_seed_string": _train_on_cli_data("train", seed="x"),
    "train_clip_norm_string": _train_on_cli_data("train", clip_norm="x"),
    "train_learning_rate_nan": _train_on_cli_data("train", learning_rate=math.nan),
    "train_learning_rate_infinite": _train_on_cli_data("train", learning_rate=math.inf),
    "train_clip_norm_nan": _train_on_cli_data("train", clip_norm=math.nan),
    "train_clip_norm_infinite": _train_on_cli_data("train", clip_norm=math.inf),
    "train_clip_norm_negative": _train_on_cli_data("train", clip_norm=-1.0),
    "train_sigma_hm_nan": _train_on_cli_data("train", sigma_hm=math.nan),
    "train_sigma_hm_infinite": _train_on_cli_data("train", sigma_hm=math.inf),
    "model_embed_dim_float": _train_on_cli_data("model", embed_dim=16.0),
    "model_seed_string": _train_on_cli_data("model", seed="x"),
    "model_patch_size_zero": _train_on_cli_data("model", patch_size=0),
    "model_image_size_zero": _train_on_cli_data("model", image_size=0),
    "model_image_size_above_resolution": _train_on_cli_data("model", image_size=232,
                                                            patch_size=8),
    "model_max_text_len_zero": _train_on_cli_data("model", max_text_len=0),
    "model_mlp_ratio_zero": _train_on_cli_data("model", mlp_ratio=0),
    "model_image_size_not_patch_multiple": _train_on_cli_data("model", image_size=100),
    "model_adapter_unknown": _train_on_cli_data("model", adapter="qlora"),
    "model_fusion_unknown": _train_on_cli_data("model", fusion="concat"),
    "train_val_fraction_one": _train_on_cli_data("train", val_fraction=1.0),
    "model_seed_negative": _train_on_cli_data("model", seed=-1),
    "train_seed_negative": _train_on_cli_data("train", seed=-1),
    "model_vocab_size_wrong": _train_on_cli_data("model", vocab_size=5),
    "model_head_dim_key": _train_on_cli_data("model", head_dim=16),
    "model_max_text_len_below_subtask": _train_on_cli_data("model", max_text_len=3),
    "model_max_text_len_below_subtask_grad_check": (
        {"model": {"embed_dim": 8, "depth": 1, "patch_size": 56, "max_text_len": 3}},
        ["grad-check"]),
    "model_patch_size_one": _train_on_cli_data("model", patch_size=1),
    "model_image_size_cuts_off_demos": _train_on_cli_data("model", image_size=16),
    "seed_negative": ({"seed": -1}, ["gen-data"]),
    "seed_bool": ({"seed": True}, ["eval", "--expert"]),
    "planner_timeout_nan": ({"planner": {"backend": {
        "endpoint_url": "http://127.0.0.1:9/v1", "timeout_s": math.nan}}},
        ["plan", "--command", "Roll the scarf into a tube"]),
    "planner_timeout_infinite": ({"planner": {"backend": {
        "endpoint_url": "http://127.0.0.1:9/v1", "timeout_s": math.inf}}},
        ["plan", "--command", "Roll the scarf into a tube"]),
    "planner_api_key_env_not_str": ({"planner": {"backend": {
        "endpoint_url": "http://127.0.0.1:9/v1", "api_key_env": 5}}},
        ["plan", "--command", "Roll the scarf into a tube"]),
    "planner_backend_invalid_on_gen_data": ({"data": {"episodes_per_family": 1},
                                             "planner": {"backend": {
                                                 "endpoint_url": "ftp://x", "bogus": 1}}},
                                            ["gen-data"]),
}


# Commands reading a dataset of 100x100 frames at the default model.image_size
# 112: the crop does not fit the frames.
_SMALL_FRAME_RUNS = {"train_on_frames_smaller_than_crop": "train",
                     "ablate_on_frames_smaller_than_crop": "ablate"}


@pytest.fixture(scope="module")
def small_frame_dataset(tmp_path_factory):
    """A dataset generated at sim.resolution 100 (model.image_size 64)."""
    root = tmp_path_factory.mktemp("small_frames")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"resolution": 100}, "model": {"image_size": 64},
                               "data": {"episodes_per_family": 1}}))
    assert cli_main(["gen-data", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root / "data"


def _response(body: bytes, length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode() + body)


def _completion(content) -> bytes:
    return _response(json.dumps({"choices": [{"message": {"content": content}}]}).encode())


# Two lines that each parse alone, one on the T-shirt, one only on trousers.
_MIXED_CLOTH_PLAN = ("Grasp the left sleeve of the T-Shirt and place it to the left middle part\n"
                     "Grasp the left leg and place it to the right leg")

_BAD_COMPLETIONS = {          # raw HTTP response of the LLM endpoint
    "llm_line_fails_grammar": _completion("Wave the cloth"),
    "llm_lines_fit_different_cloths": _completion(_MIXED_CLOTH_PLAN),
    "llm_lines_fit_different_cloths_run_expert": _completion(_MIXED_CLOTH_PLAN),
    "llm_content_null": _completion(None),
    "llm_content_a_list": _completion(["Wave the cloth"]),
    "llm_body_not_utf8": _response(b"\xff\xfe{}"),
    "llm_body_nested_too_deep": _response(b"[" * 100_000),
    "llm_body_cut_short": _response(b'{"choices"', length=1000),
    "llm_connection_dropped": b"",
    "llm_line_fits_no_one_cloth": _completion(
        "Grasp the left leg and place it to the left sleeve"),
}
# Planned by ``run --expert``, which must stop at planning, before the expert
# looks up a landmark the T-shirt does not have; the rest by ``plan``.
_RUN_EXPERT_COMPLETIONS = ("llm_lines_fit_different_cloths_run_expert",)


@pytest.fixture(scope="module")
def llm_endpoint():
    """A local chat-completions endpoint answering ``POST /<case>`` with that
    case's raw response from ``_BAD_COMPLETIONS``, then closing."""
    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.wfile.write(_BAD_COMPLETIONS[self.path.strip("/")])
            self.close_connection = True

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


# Bad config values whose error names the field and the value.
_NAMED_FIELDS = {"seed_negative": ("seed", -1), "seed_bool": ("seed", True),
                 "held_out_family": ("held_out_family", "XYZ"),
                 "benchmark_episodes_per_cell_not_int": ("episodes_per_cell", "x"),
                 "benchmark_mask_only_not_bool": ("mask_only", "yes")}

_BAD_ARGS = {                 # command line -> its exit code and what stderr says
    "plan_empty_command": (["plan", "--command", ""], 3, "empty command"),
    "eval_without_checkpoint_or_expert": (["eval"], 2, "eval needs --checkpoint"),
    "run_without_checkpoint_or_expert": (
        ["run", "--command", "Fold the Towel in half diagonally"], 2,
        "run needs --checkpoint"),
    "run_expert_without_cloth_kind": (       # every cloth has a center
        ["run", "--expert", "--command",
         "Grasp the center and place it to the center"], 3,
        "could not infer the cloth kind"),
    "plan_parts_of_two_cloths": (
        ["plan", "--command", "Grasp the left leg and place it to the left sleeve"], 3,
        "no cloth has both 'left leg' and 'left sleeve'"),
    "eval_checkpoint_and_expert": (
        ["eval", "--checkpoint", "missing.cfck", "--expert"], 2,
        "not allowed with argument"),
    "run_checkpoint_and_expert": (
        ["run", "--checkpoint", "missing.cfck", "--expert", "--command",
         "Fold the Towel in half diagonally"], 2, "not allowed with argument"),
}

_BAD_INPUTS = [(case, 2) for case in (*_BAD_CONFIGS, *_SMALL_FRAME_RUNS)] + [
    (case, 4) for case in ("shorter_than_16_bytes", "header_cut_off", "header_not_utf8",
                           "header_not_json", "header_nested_too_deep",
                           "header_not_an_object", "shape_disagrees_with_nbytes",
                           "tensor_without_offset", "tensor_renamed",
                           "model_config_invalid", "tensor_not_finite")] + [
    (case, 5) for case in _BAD_DATASETS] + [
    (case, 3) for case in _BAD_COMPLETIONS] + [
    (case, exit_code) for case, (_, exit_code, _) in _BAD_ARGS.items()]


@pytest.mark.parametrize("case,exit_code", _BAD_INPUTS)
def test_bad_input_exits_with_its_code_and_no_traceback(case, exit_code, model, cli_env,
                                                        llm_endpoint, tmp_path, request):
    cfg = tmp_path / "cfg.json"
    if case in _BAD_CONFIGS:
        section, command = _BAD_CONFIGS[case]
        cfg.write_bytes(section if isinstance(section, bytes) else json.dumps(section).encode())
        argv = [*command, "--config", str(cfg)]
        if command[0] not in ("plan", "grad-check"):   # the commands with no output dir
            argv += ["--out", str(tmp_path / "o")]
        if command == ["train"]:
            argv += ["--dataset", str(cli_env[2])]
    elif case in _SMALL_FRAME_RUNS:
        cfg.write_text("{}")
        argv = [_SMALL_FRAME_RUNS[case], "--config", str(cfg), "--dataset",
                str(request.getfixturevalue("small_frame_dataset")),
                "--out", str(tmp_path / "o")]
    elif case in _BAD_COMPLETIONS:
        cfg.write_text(json.dumps({"planner": {"backend": {
            "endpoint_url": f"{llm_endpoint}/{case}", "timeout_s": 30.0}}}))
        argv = ["plan", "--config", str(cfg), "--command", "Roll the scarf into a tube"]
        if case in _RUN_EXPERT_COMPLETIONS:
            argv = ["run", "--expert", *argv[1:], "--out", str(tmp_path / "o")]
    elif case in _BAD_ARGS:
        argv = _BAD_ARGS[case][0]
        if argv[0] != "plan":
            argv = [*argv, "--out", str(tmp_path / "o")]
    elif case in _BAD_DATASETS:
        _, cfg_path, data_dir = cli_env
        argv = [_DATASET_COMMANDS.get(case, "train"), "--config", str(cfg_path),
                "--dataset", str(_bad_dataset(case, data_dir, tmp_path)),
                "--out", str(tmp_path / "t")]
    else:
        bad = tmp_path / "bad.cfck"
        bad.write_bytes(_forged_checkpoints(model, tmp_path)[case])
        argv = ["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")]
    src = str(Path(ck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "clothfold", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()
    if case in _BAD_CONFIGS:
        assert proc.stderr.startswith("config error:"), proc.stderr
    if case in _NAMED_FIELDS:
        field, value = _NAMED_FIELDS[case]
        assert field in proc.stderr and repr(value) in proc.stderr, proc.stderr
    if case in _BAD_ARGS:
        assert _BAD_ARGS[case][2] in proc.stderr
    if case.startswith("llm_lines_fit_different_cloths"):
        assert "'left leg' is not a cloth part of 't-shirt'" in proc.stderr, proc.stderr
        assert not (tmp_path / "o").exists()
    if case == "llm_line_fits_no_one_cloth":
        assert "no cloth has both 'left leg' and 'left sleeve'" in proc.stderr, proc.stderr
    if case in _NO_TRAIN_SPLIT:
        assert f"dataset {tmp_path / 'data'} holds no train-split demo" in proc.stderr
    if case in _SMALL_FRAME_RUNS:
        assert "its 100x100 frame is smaller than the centre crop of model.image_size 112" \
            in proc.stderr
        assert "raise model.image_size" not in proc.stderr
