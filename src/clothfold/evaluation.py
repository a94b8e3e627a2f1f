"""Episode metrics (mean particle distance, mask IoU, success rate), the
perception-in-the-loop episode runner, and the task x condition benchmark."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import geometry, images
from .perception.model import (EmptyMaskError, PerceptionModel,
                               segment_workspace)
from .planner import decompose
from .planner.templates import (FAMILY_KIND, SEEN_VARIANTS, TASK_FAMILIES,
                                UNSEEN_VARIANTS, command_bank)
from .sim import (ClothSim, GraspMissError, SimCamera, default_camera,
                  jittered_sim, render, scripted_expert)
from .sim.mesh import ClothMesh, FoldError, fold

SUCCESS_MPD_THRESHOLD = 0.0125    # meters
MASK_ONLY_MIOU_THRESHOLD = 0.8

CONDITIONS = ("SI", "UI", "UT")


class MetricError(ValueError):
    pass


def mpd(final: ClothMesh, target: ClothMesh) -> float:
    """Mean Euclidean distance between corresponding active particles."""
    if final.kind != target.kind or final.active.shape != target.active.shape:
        raise MetricError(f"cannot compare {final.kind}{final.active.shape} "
                          f"with {target.kind}{target.active.shape}")
    dx, dy = (final.active_positions() - target.active_positions()).T
    return float(np.sqrt(dx * dx + dy * dy).mean())    # np.linalg.norm's bits


def miou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Intersection over union of two boolean masks; both-empty counts as 1."""
    if mask_a.shape != mask_b.shape:
        raise MetricError(f"mask shapes differ: {mask_a.shape} vs {mask_b.shape}")
    union = np.count_nonzero(np.logical_or(mask_a, mask_b))
    if union == 0:
        return 1.0
    return float(np.count_nonzero(np.logical_and(mask_a, mask_b)) / union)


def success(mpd_value: float) -> bool:
    """Strict inequality: exactly the threshold is a failure."""
    if mpd_value < 0:
        raise MetricError(f"negative distance {mpd_value}")
    return mpd_value < SUCCESS_MPD_THRESHOLD


@dataclass
class EpisodeResult:
    command: str
    condition: str
    family: str
    subtasks: list[str]
    actions: list[dict]
    mpd: float
    miou: float
    success: bool
    steps: int
    failure_reason: Optional[str]
    wall_time_s: float
    artifact_files: list[str] = field(default_factory=list)

    def to_record(self) -> dict:
        return dict(vars(self))        # every field, its lists shared, not deep-copied


def expert_rollout(env: ClothSim, plan) -> ClothMesh:
    """Fold along exact landmark points; defines the target configuration."""
    mesh = env.mesh.copy()
    for subtask in plan:
        mesh = fold(mesh, mesh.landmark_point(subtask.pick_landmark),
                    mesh.landmark_point(subtask.place_landmark))
    return mesh


def pixel_to_base(pixel: tuple[int, int], obs, camera: SimCamera) -> np.ndarray:
    """Full-frame (row, col) -> base-frame point via the measured depth."""
    row, col = pixel
    x, y, z = geometry.pixel_to_camera(col, row, obs.depth_at(row, col), camera.intrinsics)
    return np.array([x, 0.0 - y, camera.height - z])   # 0.0 - y: +0.0 on the principal row


def run_episode(command: str, model: Optional[PerceptionModel],
                env: ClothSim, condition: str = "SI", family: str = "",
                artifacts_dir=None, episode_tag: str = "",
                plan=None) -> EpisodeResult:
    """Algorithm: decompose once, then per sub-task segment the workspace,
    predict (or script) an action, translate pixels to the base frame, fold,
    and observe the new state. Each cloth state is rendered once: the
    post-fold observation is the next step's input, the ``after`` artifact
    and the source of the final mask. The final state is scored against the
    expert-defined target. Grasp misses and empty masks terminate the
    episode as failures.

    ``plan`` overrides the template decomposition (e.g. a plan produced by a
    remote backend); it must be a list of validated sub-tasks.
    """
    t0 = time.perf_counter()
    if plan is None:
        plan = decompose(command)
    target_mesh = expert_rollout(env, plan)
    target_mask = render(target_mesh, env.camera).cloth_mask

    actions: list[dict] = []
    artifact_files: list[str] = []
    failure: Optional[str] = None
    obs = env.observe()
    for t, subtask in enumerate(plan):
        try:
            if model is None:
                pick_full, place_full, _, _ = scripted_expert(env.mesh, subtask, env.camera)
            else:
                image4, (r0, c0) = segment_workspace(obs, model.cfg.image_size)
                (q_pick, q_place), (pick_px, place_px) = model.forward(image4, subtask)
                pick_full = (pick_px[0] + r0, pick_px[1] + c0)
                place_full = (place_px[0] + r0, place_px[1] + c0)
                if artifacts_dir is not None:
                    for tag, q in (("pick", q_pick), ("place", q_place)):
                        fname = f"{episode_tag}step{t}_{tag}.pgm"
                        images.write_heatmap_pgm(Path(artifacts_dir) / fname, q)
                        artifact_files.append(fname)
            pick_base = pixel_to_base(pick_full, obs, env.camera)
            place_base = pixel_to_base(place_full, obs, env.camera)
            primitives = geometry.action_to_primitives(pick_base, place_base)
            obs = env.step(pick_base[:2], place_base[:2])
            actions.append({"subtask": subtask.text,
                            "pick_pixel": list(pick_full),
                            "place_pixel": list(place_full),
                            "pick_base": [float(v) for v in pick_base],
                            "place_base": [float(v) for v in place_base],
                            "primitives": [w.to_record() for w in primitives]})
            if artifacts_dir is not None:
                fname = f"{episode_tag}step{t}_after.rgb.png"
                images.write_png_rgb(Path(artifacts_dir) / fname, obs.rgb)
                artifact_files.append(fname)
        except (GraspMissError, EmptyMaskError, FoldError,
                geometry.WorkspaceError) as e:
            failure = f"{type(e).__name__}: {e}"
            break

    final_mpd = mpd(env.mesh, target_mesh)
    final_miou = miou(obs.cloth_mask, target_mask)
    return EpisodeResult(
        command=command, condition=condition, family=family,
        subtasks=[s.text for s in plan], actions=actions,
        mpd=final_mpd, miou=final_miou,
        success=success(final_mpd) and failure is None,
        steps=len(actions), failure_reason=failure,
        wall_time_s=time.perf_counter() - t0, artifact_files=artifact_files)


@dataclass
class BenchmarkConfig:
    episodes_per_cell: int = 3
    seed: int = 0
    families: tuple = TASK_FAMILIES
    conditions: tuple = CONDITIONS
    # UT protocol metadata: the family the model never trained on. The grid
    # still covers all families; only that row is a true unseen-task score.
    held_out_family: Optional[str] = None
    mask_only: bool = False          # score by mask IoU > 0.8 instead of MPD

    def __post_init__(self):
        if type(self.episodes_per_cell) is not int or self.episodes_per_cell < 1:
            raise ValueError(f"episodes_per_cell must be a positive integer, "
                             f"got {self.episodes_per_cell!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name, allowed in (("families", TASK_FAMILIES), ("conditions", CONDITIONS)):
            value = getattr(self, name)
            if not value or not set(value) <= set(allowed):
                raise ValueError(f"{name} must be a non-empty subset of {allowed}, got {value!r}")
        if self.held_out_family not in (None, *TASK_FAMILIES):
            raise ValueError(f"held_out_family must be None or one of {TASK_FAMILIES}, "
                             f"got {self.held_out_family!r}")
        if type(self.mask_only) is not bool:
            raise ValueError(f"mask_only must be true or false, got {self.mask_only!r}")

    def to_record(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _condition_variant(condition: str, i: int) -> int:
    pool = UNSEEN_VARIANTS if condition == "UI" else SEEN_VARIANTS
    return pool[i % len(pool)]


@dataclass
class BenchmarkReport:
    config: dict
    cells: dict                 # "family/condition" -> aggregates
    averages: dict              # condition -> aggregates
    episodes: list[EpisodeResult]
    mpd_convention: str = "averages include failed episodes"

    def to_json(self) -> str:
        return json.dumps({
            "config": self.config, "cells": self.cells, "averages": self.averages,
            "mpd_convention": self.mpd_convention,
            "episodes": [e.to_record() for e in self.episodes],
        }, indent=1, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["condition,family,episodes,sr_percent,mean_mpd_m,miou_percent"]
        for key in sorted(self.cells):
            c = self.cells[key]
            cond, fam = key.split("/")
            lines.append(f"{cond},{fam},{c['episodes']},{c['sr_percent']:.2f},"
                         f"{c['mean_mpd_m']:.6f},{c['miou_percent']:.2f}")
        for cond in sorted(self.averages):
            a = self.averages[cond]
            lines.append(f"{cond},AVG,{a['episodes']},{a['sr_percent']:.2f},"
                         f"{a['mean_mpd_m']:.6f},{a['miou_percent']:.2f}")
        return "\n".join(lines) + "\n"


def aggregate(results: list[EpisodeResult], mask_only: bool = False) -> dict:
    n = len(results)
    if mask_only:
        wins = sum(r.miou > MASK_ONLY_MIOU_THRESHOLD and r.failure_reason is None
                   for r in results)
    else:
        wins = sum(r.success for r in results)
    return {"episodes": n,
            "sr_percent": 100.0 * wins / n,
            "mean_mpd_m": float(np.mean([r.mpd for r in results])),
            "miou_percent": 100.0 * float(np.mean([r.miou for r in results]))}


def run_benchmark(model: Optional[PerceptionModel], config: BenchmarkConfig,
                  camera: Optional[SimCamera] = None,
                  artifacts_dir=None) -> BenchmarkReport:
    """Fixed-seed episode grid over (family, condition); ``model=None`` runs
    the scripted expert (the oracle closure over sim+planner+geometry)."""
    camera = camera or default_camera()
    if artifacts_dir is not None:
        Path(artifacts_dir).mkdir(parents=True, exist_ok=True)

    episodes: list[EpisodeResult] = []
    cells: dict[str, dict] = {}
    for condition in config.conditions:
        for family in config.families:
            cell_key = f"{config.seed}/{condition}/{family}".encode()
            rng = np.random.default_rng(
                int.from_bytes(hashlib.sha256(cell_key).digest()[:8], "big"))
            bank = command_bank(family)
            cell_results = []
            for i in range(config.episodes_per_cell):
                variant = _condition_variant(condition, i)
                command = bank[variant]
                env = jittered_sim(FAMILY_KIND[family], rng, camera)
                tag = f"{condition}_{family}_ep{i}_"
                result = run_episode(command, model, env, condition, family,
                                     artifacts_dir=artifacts_dir, episode_tag=tag)
                cell_results.append(result)
                episodes.append(result)
            cells[f"{condition}/{family}"] = aggregate(cell_results, config.mask_only)

    averages = {}
    for condition in config.conditions:
        cond_eps = [e for e in episodes if e.condition == condition]
        averages[condition] = aggregate(cond_eps, config.mask_only)
    return BenchmarkReport(config.to_record(), cells, averages, episodes)
