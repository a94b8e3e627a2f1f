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
from .perception.model import crop_origin
from .runconfig import ConfigError, RunConfig, load_config
from .sim import jittered_sim, scripted_expert
from .trainer import (CropError, DatasetFormatError, Demonstration, LoadedDemo,
                      TrainingDivergedError, generate_dataset, grad_check, load_dataset,
                      prepare_sample, run_ablation, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLANNING = 3
EXIT_TRAINING = 4
EXIT_IO = 5

GRAD_CHECK_MAX_DIM = 32      # the widest model.embed_dim grad-check accepts


def _plan_subtasks(cfg: RunConfig, command: str):
    if cfg.backend is not None:
        return llm_decompose(command.strip(), cfg.backend)
    return decompose(command.strip())


def _policy(args, cfg: RunConfig):
    """``--checkpoint``'s model, its crop fitting the camera's frame, or None for ``--expert``."""
    if args.expert:
        return None
    if not args.checkpoint:
        raise ConfigError(f"{args.command_name} needs --checkpoint (or --expert)")
    model = ckpt_io.model_from_checkpoint(ckpt_io.load_checkpoint(args.checkpoint))
    crop_origin((cfg.camera.intrinsics.height, cfg.camera.intrinsics.width), model.cfg.image_size)
    return model


def _train_split(dataset):
    """The manifest and the train-split demos of ``dataset``; only they stay held."""
    manifest, demos = load_dataset(dataset)
    demos = [d for d in demos if d.demo.split == "train"]
    if not demos:
        raise DatasetFormatError(f"dataset {dataset} holds no train-split demo")
    return manifest, demos


def _dump(value) -> str:
    """The canonical JSON of every file and summary a command writes itself."""
    return json.dumps(value, indent=1, sort_keys=True)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, stem: str, report, cfg: RunConfig) -> None:
    """``<stem>.json`` (the report and the run's provenance) and
    ``<stem>.csv`` under ``out``; the CSV is printed too."""
    payload = {**json.loads(report.to_json()), "provenance": cfg.provenance()}
    (out / f"{stem}.json").write_text(_dump(payload))
    csv = report.to_csv()
    (out / f"{stem}.csv").write_text(csv)
    print(csv)


def cmd_gen_data(args, cfg: RunConfig) -> int:
    manifest = generate_dataset(args.out, seed=cfg.seed,
                                episodes_per_family=cfg.episodes_per_family,
                                held_out_family=cfg.bench.held_out_family,
                                camera=cfg.camera,
                                provenance=cfg.provenance())
    print(_dump({"out": str(args.out), "counts": manifest.counts,
                 "skipped_episodes": manifest.skipped_episodes,
                 **cfg.provenance()}))
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    manifest, demos = _train_split(args.dataset)
    model = PerceptionModel(cfg.model)
    if args.resume:
        ckpt_io.load_into_model(ckpt_io.load_checkpoint(args.resume), model)
    result = train(demos, model, cfg.train)

    out = _out_dir(args)
    meta = {**cfg.provenance(), "dataset_seed": manifest.seed,
            "n_train": result.n_train, "n_val": result.n_val,
            "best_epoch": result.best_epoch,
            "best_val_loss": (None if result.best_val_loss == float("inf")
                              else result.best_val_loss),
            "final_train_loss": result.final_train_loss}
    ckpt_io.save_checkpoint(out / "model.cfck", model, metadata=meta)
    (out / "loss_curve.csv").write_text(result.curve_csv())
    (out / "train_meta.json").write_text(_dump(meta))
    print(_dump(meta))
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    model = _policy(args, cfg)
    report = evaluation.run_benchmark(model, cfg.bench, camera=cfg.camera,
                                      artifacts_dir=(Path(args.out) / "heatmaps"
                                                     if not args.expert else None))
    _write_report(_out_dir(args), "report", report, cfg)
    return EXIT_OK


def cmd_run(args, cfg: RunConfig) -> int:
    model = _policy(args, cfg)
    subtasks = _plan_subtasks(cfg, args.command)
    kind = subtasks[0].cloth_kind
    if kind is None:
        raise PlanningError(f"could not infer the cloth kind from {args.command!r}")

    out = _out_dir(args)
    rng = np.random.default_rng(cfg.seed)
    env = jittered_sim(kind, rng, cfg.camera)
    images.write_png_rgb(out / "before.rgb.png", env.observe().rgb)
    result = evaluation.run_episode(args.command, model, env,
                                    artifacts_dir=out, episode_tag="run_",
                                    plan=subtasks)
    images.write_png_rgb(out / "after.rgb.png", env.observe().rgb)
    payload = {**result.to_record(), "provenance": cfg.provenance()}
    (out / "episode.json").write_text(_dump(payload))
    print(_dump({k: payload[k] for k in
                 ("command", "subtasks", "mpd", "miou", "success", "steps")}))
    return EXIT_OK


def cmd_plan(args, cfg: RunConfig) -> int:
    print(_dump([s.to_record() for s in _plan_subtasks(cfg, args.command)]))
    return EXIT_OK


def cmd_grad_check(args, cfg: RunConfig) -> int:
    if cfg.model.embed_dim > GRAD_CHECK_MAX_DIM:
        raise ConfigError(
            f"grad-check runs two forward passes per trainable scalar; "
            f"configure model.embed_dim <= {GRAD_CHECK_MAX_DIM} "
            f"(got {cfg.model.embed_dim})")
    model = PerceptionModel(cfg.model)
    rng = np.random.default_rng(cfg.seed)
    env = jittered_sim("towel", rng, cfg.camera)
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


def cmd_ablate(args, cfg: RunConfig) -> int:
    manifest, demos = _train_split(args.dataset)
    report = run_ablation(demos, cfg.model, cfg.train, manifest.camera, cfg.bench)
    _write_report(_out_dir(args), "ablation", report, cfg)
    return EXIT_OK


def _add_policy_flags(sp: argparse.ArgumentParser) -> None:
    """``--checkpoint`` or ``--expert``, not both; ``_policy`` reads them."""
    policy = sp.add_mutually_exclusive_group()
    policy.add_argument("--checkpoint", default=None)
    policy.add_argument("--expert", action="store_true",
                        help="scripted-expert actions instead of the model")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clothfold",
        description="Language-guided cloth folding: plan, perceive, fold, score.")
    p.add_argument("--verbose", action="store_true", help="debug logging")
    sub = p.add_subparsers(dest="command_name", required=True)

    def command(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", default=None)
        sp.set_defaults(func=func)
        return sp

    sp = command("gen-data", cmd_gen_data, "generate an expert demonstration dataset")
    sp.add_argument("--out", required=True)

    sp = command("train", cmd_train, "train the perception model")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--resume", default=None,
                    help="checkpoint whose weights training starts from "
                         "(Adam moments and epochs restart)")

    sp = command("eval", cmd_eval, "run the task x condition benchmark")
    _add_policy_flags(sp)
    sp.add_argument("--out", required=True)

    sp = command("run", cmd_run, "run one command as a full episode")
    _add_policy_flags(sp)
    sp.add_argument("--command", required=True)
    sp.add_argument("--out", required=True)

    sp = command("plan", cmd_plan, "decompose a command into sub-tasks")
    sp.add_argument("--command", required=True)

    command("grad-check", cmd_grad_check, "verify gradients on the configured model")

    sp = command("ablate", cmd_ablate, "adapter x fusion ablation sweep")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args, load_config(args.config))
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
