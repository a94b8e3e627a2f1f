"""Command-line entry points around the folding pipeline.

Exit codes: 0 success, 2 configuration, 3 planning, 4 training, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from . import evaluation, images
from .planner import BackendError, PlanningError, decompose, llm_decompose
from .perception import PerceptionModel, TokenizeError
from .runconfig import ConfigError, RunConfig, load_config
from .sim import default_camera, jittered_sim
from .trainer import (CropError, DatasetFormatError, TrainingDivergedError,
                      generate_dataset, grad_check, load_dataset, prepare_sample,
                      run_ablation, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLANNING = 3
EXIT_TRAINING = 4
EXIT_IO = 5


def _camera_for(cfg: RunConfig):
    return default_camera(cfg.sim["resolution"])


def _plan_subtasks(cfg: RunConfig, command: str):
    if cfg.backend is not None:
        return llm_decompose(command.strip(), cfg.backend)
    return decompose(command.strip())


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    manifest = generate_dataset(args.out, seed=cfg.seed,
                                episodes_per_family=cfg.data["episodes_per_family"],
                                held_out_family=cfg.data["held_out_family"],
                                camera=_camera_for(cfg),
                                provenance=cfg.provenance())
    summary = {"out": str(args.out), "counts": manifest.counts,
               "skipped_episodes": manifest.skipped_episodes,
               **cfg.provenance()}
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    manifest, demos = load_dataset(args.dataset)
    train_demos = [d for d in demos if d.demo.split == "train"]
    model = PerceptionModel(cfg.model)
    if args.resume:
        ckpt = ckpt_io.load_checkpoint(args.resume)
        ckpt_io.load_into_model(ckpt, model)
    frozen_before = {k: t.data.copy() for k, t in model.frozen_parameters().items()}
    result = train(train_demos, model, cfg.train)
    for k, t in model.frozen_parameters().items():
        if not np.array_equal(frozen_before[k], t.data):
            raise TrainingDivergedError(f"frozen weight {k!r} changed during training")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {**cfg.provenance(), "dataset_seed": manifest.seed,
            "n_train": result.n_train, "n_val": result.n_val,
            "best_epoch": result.best_epoch,
            "best_val_loss": (None if result.best_val_loss == float("inf")
                              else result.best_val_loss),
            "final_train_loss": result.final_train_loss}
    ckpt_io.save_checkpoint(out / "model.cfck", model, metadata=meta)
    (out / "loss_curve.csv").write_text(result.curve_csv())
    (out / "train_meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    print(json.dumps(meta, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    model = None
    if not args.expert:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint (or --expert)")
        model = ckpt_io.model_from_checkpoint(ckpt_io.load_checkpoint(args.checkpoint))
    bench = evaluation.BenchmarkConfig(
        episodes_per_cell=cfg.benchmark["episodes_per_cell"], seed=cfg.seed,
        held_out_family=cfg.data["held_out_family"],
        mask_only=cfg.benchmark["mask_only"])
    report = evaluation.run_benchmark(model, bench, camera=_camera_for(cfg),
                                      artifacts_dir=(Path(args.out) / "heatmaps"
                                                     if not args.expert else None))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.loads(report.to_json())
    payload["provenance"] = cfg.provenance()
    (out / "report.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
    (out / "report.csv").write_text(report.to_csv())
    print(report.to_csv())
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    model = None
    if not args.expert:
        if not args.checkpoint:
            raise ConfigError("run needs --checkpoint (or --expert)")
        model = ckpt_io.model_from_checkpoint(ckpt_io.load_checkpoint(args.checkpoint))
    subtasks = _plan_subtasks(cfg, args.command)
    kind = subtasks[0].cloth_kind
    if kind is None:
        raise PlanningError(f"could not infer the cloth kind from {args.command!r}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    env = jittered_sim(kind, rng, _camera_for(cfg))
    images.write_png_rgb(out / "before.rgb.png", env.observe().rgb)
    result = evaluation.run_episode(args.command, model, env,
                                    artifacts_dir=out, episode_tag="run_",
                                    plan=subtasks)
    images.write_png_rgb(out / "after.rgb.png", env.observe().rgb)
    payload = result.to_record()
    payload["provenance"] = cfg.provenance()
    (out / "episode.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(json.dumps({k: payload[k] for k in
                      ("command", "subtasks", "mpd", "miou", "success", "steps")},
                     indent=1, sort_keys=True))
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = load_config(args.config)
    subtasks = _plan_subtasks(cfg, args.command)
    print(json.dumps([s.to_record() for s in subtasks], indent=1, sort_keys=True))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    cfg = load_config(args.config)
    from .trainer.train import GRAD_CHECK_MAX_DIM
    if cfg.model.embed_dim > GRAD_CHECK_MAX_DIM:
        raise ConfigError(
            f"grad-check runs two forward passes per trainable scalar; "
            f"configure model.embed_dim <= {GRAD_CHECK_MAX_DIM} "
            f"(got {cfg.model.embed_dim})")
    model = PerceptionModel(cfg.model)
    rng = np.random.default_rng(cfg.seed)
    env = jittered_sim("towel", rng, _camera_for(cfg))
    from .trainer.dataset import Demonstration, LoadedDemo
    from .sim import scripted_expert
    subtask = decompose("Fold the Towel in half diagonally")[0]
    action = scripted_expert(env.mesh, subtask, env.camera)
    demo = Demonstration(0, 0, "DTF", 0, "SI", "train", "towel",
                         "Fold the Towel in half diagonally", subtask.text,
                         action.pick_pixel, action.place_pixel,
                         tuple(action.pick_world[:2]), tuple(action.place_world[:2]))
    sample = prepare_sample(model, LoadedDemo(demo, env.observe()), cfg.train.sigma_hm)
    report = grad_check(model, sample, seed=cfg.seed)
    print(report.summary())
    return EXIT_OK if report.max_rel_err < 1e-4 else EXIT_TRAINING


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    manifest, demos = load_dataset(args.dataset)
    train_demos = [d for d in demos if d.demo.split == "train"]
    report = run_ablation(train_demos, cfg.model, cfg.train, manifest.camera,
                          episodes_per_cell=cfg.benchmark["episodes_per_cell"],
                          benchmark_seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.loads(report.to_json())
    payload["provenance"] = cfg.provenance()
    (out / "ablation.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
    (out / "ablation.csv").write_text(report.to_csv())
    print(report.to_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clothfold",
        description="Language-guided cloth folding: plan, perceive, fold, score.")
    p.add_argument("--verbose", action="store_true", help="debug logging")
    sub = p.add_subparsers(dest="command_name", required=True)

    sp = sub.add_parser("gen-data", help="generate an expert demonstration dataset")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train the perception model")
    sp.add_argument("--config", default=None)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--resume", default=None,
                    help="checkpoint whose weights training starts from "
                         "(Adam moments and epochs restart)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="run the task x condition benchmark")
    sp.add_argument("--config", default=None)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--expert", action="store_true",
                    help="scripted-expert actions instead of the model")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("run", help="run one command as a full episode")
    sp.add_argument("--config", default=None)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--expert", action="store_true")
    sp.add_argument("--command", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("plan", help="decompose a command into sub-tasks")
    sp.add_argument("--config", default=None)
    sp.add_argument("--command", required=True)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("grad-check", help="verify gradients on the configured model")
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_grad_check)

    sp = sub.add_parser("ablate", help="adapter x fusion ablation sweep")
    sp.add_argument("--config", default=None)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, CropError, TokenizeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlanningError, BackendError) as e:
        print(f"planning error: {e}", file=sys.stderr)
        return EXIT_PLANNING
    except (TrainingDivergedError, ckpt_io.CheckpointError) as e:
        print(f"training error: {e}", file=sys.stderr)
        return EXIT_TRAINING
    except (OSError, images.ImageFormatError, DatasetFormatError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
