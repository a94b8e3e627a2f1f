"""Expert demonstration dataset: generation, on-disk format, loading.

Each demonstration is one (observation, sub-task, pick pixel, place pixel)
tuple recorded before the fold executes; pixels are in the full camera frame.
The directory layout is a manifest.json, which holds every demo's labels,
plus a PNG (RGB) and a PGM (depth) per demo. Generation is deterministic
under the seed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .. import images
from ..perception.config import typed_fields
from ..planner import GrammarError, decompose, split_at_conjunction, tokenize_text
from ..planner.templates import (FAMILY_KIND, SEEN_VARIANTS, TASK_FAMILIES,
                                 UNSEEN_VARIANTS, command_bank)
from ..sim import (ClothSim, ExpertError, GraspMissError, Observation,
                   SimCamera, default_camera, jittered_sim, scripted_expert)
from ..geometry import CameraIntrinsics

log = logging.getLogger(__name__)

DATASET_VERSION = 1

# Full-scale protocol: 15,750 demonstrations, 15,000 train / 750 test.
FULL_SCALE_TOTAL = 15750
FULL_SCALE_TRAIN = 15000
FULL_SCALE_TEST = 750
TEST_FRACTION = FULL_SCALE_TEST / FULL_SCALE_TOTAL      # exactly 1/21


class DatasetFormatError(RuntimeError):
    """A manifest that is not UTF-8 JSON, misses a key, is not of version
    DATASET_VERSION, whose demos are not a list of records, whose demo fields
    have the wrong JSON type or a pixel off the camera's frame, or whose
    sub-task the model cannot split at its conjunction; a demo frame not of
    the camera's size, or with no cloth; a dataset with no demo to train on."""


@dataclass(frozen=True)
class Demonstration:
    episode_id: int
    step_index: int
    family: str
    variant: int
    condition: str               # SI | UI | UT
    split: str                   # train | test
    cloth_kind: str
    command: str
    subtask: str
    pick_pixel: tuple[int, int]      # (row, col) in the full camera frame
    place_pixel: tuple[int, int]
    pick_world: tuple[float, float]
    place_world: tuple[float, float]
    rgb_file: str = ""
    depth_file: str = ""

    def to_record(self) -> dict:
        return dict(vars(self))        # every field; JSON writes the tuples as lists

    @classmethod
    def from_record(cls, rec: dict) -> "Demonstration":
        """Raises KeyError for a missing field, TypeError for a mistyped one and
        DatasetFormatError for a sub-task the model cannot split at its 'and'."""
        demo = cls(*typed_fields(cls, rec))
        try:
            split_at_conjunction(tokenize_text(demo.subtask))
        except GrammarError as e:
            raise DatasetFormatError(f"demo of episode {demo.episode_id} step "
                                     f"{demo.step_index}: sub-task {demo.subtask!r}: {e}") from e
        return demo


@dataclass
class DatasetManifest:
    version: int
    seed: int
    episodes_per_family: int
    held_out_family: Optional[str]
    camera: SimCamera
    cloth_kinds: list[str]
    families: list[str]
    counts: dict
    skipped_episodes: int
    demos: list[Demonstration] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {**vars(self), "camera": camera_record(self.camera),
                   "demos": [d.to_record() for d in self.demos],
                   "full_scale_protocol": {"total": FULL_SCALE_TOTAL,
                                           "train": FULL_SCALE_TRAIN,
                                           "test": FULL_SCALE_TEST}}
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "DatasetManifest":
        try:
            raw = json.loads(text)
            if type(raw["version"]) is not int or raw["version"] != DATASET_VERSION:
                raise ValueError(f"version {raw['version']!r}, not {DATASET_VERSION}")
            if not isinstance(raw["demos"], list):
                raise TypeError(f"'demos' is a {type(raw['demos']).__name__}, not a list")
            demos = [Demonstration.from_record(r) for r in raw["demos"]]
            return cls(raw["version"], raw["seed"], raw["episodes_per_family"],
                       raw["held_out_family"], camera_from_record(raw["camera"]),
                       raw["cloth_kinds"], raw["families"], raw["counts"],
                       raw["skipped_episodes"], demos, raw.get("provenance", {}))
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            raise DatasetFormatError(f"malformed dataset manifest: {e!r}") from e


def camera_record(camera: SimCamera) -> dict:
    k = camera.intrinsics
    return {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
            "width": k.width, "height": k.height, "mount_height": camera.height}


def camera_from_record(rec: dict) -> SimCamera:
    return SimCamera(CameraIntrinsics(rec["fx"], rec["fy"], rec["cx"], rec["cy"],
                                      rec["width"], rec["height"]),
                     rec["mount_height"])


def _episode_variants(n_episodes: int, held_out: bool) -> list[tuple[int, str, str]]:
    """Per-episode (variant, condition, split) assignments for one family.

    Held-out families become test-only unseen-task episodes. Otherwise about
    1/21 of episodes are held back for testing (half of them with unseen
    paraphrase variants), mirroring the full-scale train/test proportion.
    """
    if held_out:
        return [(SEEN_VARIANTS[i % 2], "UT", "test") for i in range(n_episodes)]
    n_test = max(1, round(n_episodes * TEST_FRACTION)) if n_episodes > 1 else 0
    out = []
    for i in range(n_episodes):
        if i < n_test:
            if i % 2 == 0:
                out.append((UNSEEN_VARIANTS[(i // 2) % 2], "UI", "test"))
            else:
                out.append((SEEN_VARIANTS[(i // 2) % 2], "SI", "test"))
        else:
            out.append((SEEN_VARIANTS[i % 2], "SI", "train"))
    return out


def generate_dataset(out_dir, seed: int = 0, episodes_per_family: int = 42,
                     held_out_family: Optional[str] = None,
                     camera: Optional[SimCamera] = None,
                     provenance: Optional[dict] = None) -> DatasetManifest:
    """Roll out the scripted expert over jittered episodes and write the
    dataset to ``out_dir``. Expert failures skip the episode and are logged."""
    out = Path(out_dir)
    (out / "demos").mkdir(parents=True, exist_ok=True)
    camera = camera or default_camera()
    rng = np.random.default_rng(seed)

    demos: list[Demonstration] = []
    skipped = 0
    episode_id = 0
    for family in TASK_FAMILIES:
        kind = FAMILY_KIND[family]
        bank = command_bank(family)
        assignments = _episode_variants(episodes_per_family,
                                        family == held_out_family)
        for variant, condition, split in assignments:
            command = bank[variant]
            plan = decompose(command)
            env = jittered_sim(kind, rng, camera)
            try:
                records = _run_expert_episode(env, plan, camera)
            except (ExpertError, GraspMissError) as e:
                log.warning("skipping episode %d (%s): %s", episode_id, family, e)
                skipped += 1
                episode_id += 1
                continue
            for step, (obs, subtask, action) in enumerate(records):
                stem = f"ep{episode_id:05d}_s{step}"
                rgb_file = f"demos/{stem}.rgb.png"
                depth_file = f"demos/{stem}.depth.pgm"
                images.write_png_rgb(out / rgb_file, obs.rgb)
                images.write_depth_pgm(out / depth_file, obs.depth)
                demos.append(Demonstration(
                    episode_id, step, family, variant, condition, split, kind,
                    command, subtask.text,
                    action.pick_pixel, action.place_pixel,
                    tuple(float(v) for v in action.pick_world[:2]),
                    tuple(float(v) for v in action.place_world[:2]),
                    rgb_file, depth_file))
            episode_id += 1

    counts = {
        "total": len(demos),
        "by_split": _count(demos, lambda d: d.split),
        "by_condition": _count(demos, lambda d: d.condition),
        "by_family": _count(demos, lambda d: d.family),
    }
    manifest = DatasetManifest(DATASET_VERSION, seed, episodes_per_family,
                               held_out_family, camera,
                               sorted({d.cloth_kind for d in demos}),
                               list(TASK_FAMILIES), counts, skipped, demos,
                               provenance or {})
    with open(out / "manifest.json", "w") as f:
        f.write(manifest.to_json())
    return manifest


def _count(demos, key) -> dict:
    out: dict[str, int] = {}
    for d in demos:
        out[key(d)] = out.get(key(d), 0) + 1
    return dict(sorted(out.items()))


def _run_expert_episode(env: ClothSim, plan, camera):
    """Execute a plan with the scripted expert, returning per-step records."""
    records = []
    for subtask in plan:
        obs = env.observe()
        action = scripted_expert(env.mesh, subtask, camera)
        records.append((obs, subtask, action))
        env.step(action.pick_world, action.place_world)
    return records


@dataclass
class LoadedDemo:
    demo: Demonstration
    observation: Observation


def load_dataset(dataset_dir) -> tuple[DatasetManifest, list[LoadedDemo]]:
    """The manifest and each demo's frames, which must be the camera's size and
    hold its labels, kept as the files store them: PNG and uint16 depth counts."""
    root = Path(dataset_dir)
    manifest = DatasetManifest.from_json((root / "manifest.json").read_bytes())
    camera = manifest.camera
    shape = camera.intrinsics.height, camera.intrinsics.width
    loaded = []
    for d in manifest.demos:
        for what, (r, c) in (("pick", d.pick_pixel), ("place", d.place_pixel)):
            if not (0 <= r < shape[0] and 0 <= c < shape[1]):
                raise DatasetFormatError(f"demo of episode {d.episode_id} step {d.step_index}: "
                                         f"{what} pixel {(r, c)} lies outside the camera's "
                                         f"{shape[0]}x{shape[1]} frame")
        png = images.read_png_rgb(root / d.rgb_file)
        counts = images.read_pgm16(root / d.depth_file)
        for name, frame in ((d.rgb_file, png), (d.depth_file, counts)):
            if frame.shape[:2] != shape:
                raise DatasetFormatError(f"{root / name}: a {frame.shape[0]}x{frame.shape[1]} "
                                         f"frame, not the camera's {shape[0]}x{shape[1]}")
        loaded.append(LoadedDemo(d, Observation(png, counts, camera)))
    return manifest, loaded
