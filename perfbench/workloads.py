"""The benchmark's workloads: inputs made from the seed, set-up, one measured
iteration, and the output checks that count toward the error rate.

Every workload is a closed loop with one client: the next iteration starts
when the previous one returns. Each iteration repeats the same inputs, so
its checks can also require the bytes and quality figures of the warm-up
iteration to repeat exactly.

- ``expert``: ``generate_dataset`` -> ``load_dataset`` -> the scripted-expert
  grid of ``clothfold eval --expert``. Runs the simulator and the image
  codecs with no perception and no tape.
- ``train``: ``trainer.train`` with the default model and ``TrainConfig``
  on a dataset made during set-up. Forward under the tape, backward and Adam
  do the work; the simulator runs only in set-up.
- ``eval``: the model-in-the-loop grid of ``clothfold eval --checkpoint``,
  artifacts included, with a D=32 model trained, saved and reloaded during
  set-up. Perception runs without a tape.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clothfold import checkpoint, evaluation, images
from clothfold.perception import ModelConfig, PerceptionModel
from clothfold.planner.templates import TASK_FAMILIES
from clothfold.sim import default_camera
from clothfold.sim.render import DEPTH_QUANTUM
from clothfold.trainer import TrainConfig, generate_dataset, load_dataset, train

# Outcomes of a model-driven episode; none of them is a failed operation.
EPISODE_OUTCOMES = ("GraspMissError", "FoldError", "EmptyMaskError", "WorkspaceError")

LOAD_REPEATS = 5


@dataclass(frozen=True)
class Size:
    expert_episodes_per_family: int   # dataset made and read per expert iteration
    expert_episodes_per_cell: int     # expert grid: 5 families x 3 conditions x this
    data_episodes_per_family: int     # train/eval set-up dataset (4 -> 36 train demos)
    train_embed_dim: int
    train_epochs: int
    eval_embed_dim: int
    eval_train_epochs: int
    eval_episodes_per_cell: int
    repeat_setup: bool                # False: set up once (the tests' tiny size)


SIZES = {
    "full": Size(expert_episodes_per_family=2, expert_episodes_per_cell=1,
                 data_episodes_per_family=4, train_embed_dim=64, train_epochs=2,
                 eval_embed_dim=32, eval_train_epochs=20, eval_episodes_per_cell=2,
                 repeat_setup=True),
    # For the benchmark's own tests: every code path, a few seconds each.
    "tiny": Size(expert_episodes_per_family=1, expert_episodes_per_cell=1,
                 data_episodes_per_family=1, train_embed_dim=16, train_epochs=2,
                 eval_embed_dim=16, eval_train_epochs=2, eval_episodes_per_cell=1,
                 repeat_setup=False),
}


@dataclass(frozen=True)
class Inputs:
    dataset_seed: int
    train_seed: int
    bench_seed: int


def make_inputs(seed: int) -> Inputs:
    """The only values the program receives that depend on ``--seed``."""
    a, b, c = np.random.default_rng(seed).integers(0, 2**31 - 1, size=3)
    return Inputs(int(a), int(b), int(c))


@dataclass
class Outcome:
    """One set-up or iteration: timed seconds, the items and seconds behind
    each rate, operation counts, and the figures that must repeat exactly
    between runs of the same code."""
    seconds: float = 0.0
    timed: dict = field(default_factory=dict)    # rate name -> (items, seconds)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    record: dict = field(default_factory=dict)


# -- helpers ---------------------------------------------------------------

def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def report_digest(report) -> str:
    """SHA-256 of the benchmark report JSON without its wall times."""
    rec = json.loads(report.to_json())
    for e in rec["episodes"]:
        e.pop("wall_time_s")
    return sha256_json(rec)


def quality(report) -> dict:
    return {cond: {k: a[k] for k in ("sr_percent", "mean_mpd_m", "miou_percent")}
            for cond, a in sorted(report.averages.items())}


@contextmanager
def captured_writes():
    """Keep the arrays ``generate_dataset`` hands to the image writers, by
    file name, so the loaded dataset can be compared with them."""
    written = {}
    write_png, write_depth = images.write_png_rgb, images.write_depth_pgm

    def png(path, rgb01):
        written[Path(path).name] = rgb01
        return write_png(path, rgb01)

    def depth(path, depth_m):
        written[Path(path).name] = depth_m
        return write_depth(path, depth_m)

    images.write_png_rgb, images.write_depth_pgm = png, depth
    try:
        yield written
    finally:
        images.write_png_rgb, images.write_depth_pgm = write_png, write_depth


def _same_observation(demo, written) -> bool:
    rgb = written.get(Path(demo.demo.rgb_file).name)
    depth = written.get(Path(demo.demo.depth_file).name)
    if rgb is None or depth is None:
        return False
    obs = demo.observation
    return (np.array_equal(obs.rgb, rgb)
            and np.array_equal(np.round(obs.depth / DEPTH_QUANTUM),
                               np.round(depth / DEPTH_QUANTUM)))


def gen_and_load(root: Path, seed: int, episodes_per_family: int):
    """Generate a dataset, read it back, and check the read arrays equal the
    generated observations. Operations: one per episode, one per demo read."""
    shutil.rmtree(root, ignore_errors=True)
    out = Outcome()
    with captured_writes() as written:
        t0 = time.perf_counter()
        manifest = generate_dataset(root, seed=seed,
                                    episodes_per_family=episodes_per_family)
        t_gen = time.perf_counter() - t0
    # A load takes a tenth of a second, so it is timed several times; set-up
    # time counts one load, as a command makes one.
    t_loads = []
    bad = 0
    n_demos = len(manifest.demos)
    loaded = []
    for _ in range(LOAD_REPEATS):
        del loaded[:]                # hold one copy at a time, as a command does
        t0 = time.perf_counter()
        _, loaded = load_dataset(root)
        t_loads.append(time.perf_counter() - t0)
        bad += sum(not _same_observation(d, written) for d in loaded)
        bad += abs(n_demos - len(loaded))

    out.attempted = len(TASK_FAMILIES) * episodes_per_family + LOAD_REPEATS * n_demos
    out.failed = manifest.skipped_episodes + bad
    if manifest.skipped_episodes:
        out.problems.append(f"{manifest.skipped_episodes} expert episodes skipped")
    if bad:
        out.problems.append(f"{bad} loaded demos differ from the generated ones")
    out.seconds = t_gen + t_loads[0]
    out.timed = {"gen_demos_per_s": (n_demos, t_gen),
                 "load_demos_per_s": (LOAD_REPEATS * n_demos, sum(t_loads))}
    out.record = {"dataset_sha256": dir_digest(root), "demos": n_demos}
    return out, loaded


def train_problems(result, model, frozen_before) -> list[str]:
    """The checks ``clothfold train`` makes, plus finite, falling losses."""
    problems = []
    curve = result.loss_curve
    losses = [r["train_loss"] for r in curve]
    losses += [r["val_loss"] for r in curve if r["val_loss"] is not None]
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss")
    elif not curve[-1]["train_loss"] < curve[0]["train_loss"]:
        problems.append("final epoch loss not below epoch 0")
    for k, t in model.frozen_parameters().items():
        if not np.array_equal(frozen_before[k], t.data):
            problems.append(f"frozen weight {k} changed")
            break
    return problems


def frozen_copy(model) -> dict:
    return {k: t.data.copy() for k, t in model.frozen_parameters().items()}


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    headline = ""          # what ``items_per_s`` counts in this workload
    setup_reps = 5         # set-ups per run; setup_s is their median

    def __init__(self, inputs: Inputs, size: Size, work: Path):
        self.inputs = inputs
        self.size = size
        self.work = work

    def setup(self) -> Outcome:
        return Outcome()

    def iterate(self) -> Outcome:
        raise NotImplementedError


class Expert(Workload):
    name = "expert"
    headline = "expert_episodes_per_s"

    def iterate(self) -> Outcome:
        out, _ = gen_and_load(self.work / "dataset", self.inputs.dataset_seed,
                              self.size.expert_episodes_per_family)
        bench = evaluation.BenchmarkConfig(
            episodes_per_cell=self.size.expert_episodes_per_cell,
            seed=self.inputs.bench_seed)
        t0 = time.perf_counter()
        report = evaluation.run_benchmark(None, bench)
        dt = time.perf_counter() - t0

        # Criterion 5: the scripted expert succeeds on every episode.
        missed = sum(not e.success for e in report.episodes)
        if missed:
            out.problems.append(f"expert failed {missed} episodes")
        out.attempted += len(report.episodes)
        out.failed += missed
        out.seconds += dt
        out.timed["items_per_s"] = (len(report.episodes), dt)
        out.record.update(report_sha256=report_digest(report), quality=quality(report))
        return out


class Train(Workload):
    name = "train"
    headline = "train_samples_per_s"
    setup_reps = 5         # the gen and load rates come from the set-ups

    def setup(self) -> Outcome:
        self.demos = []    # a repeated set-up holds one dataset, as a first one does
        out, loaded = gen_and_load(self.work / "dataset", self.inputs.dataset_seed,
                                   self.size.data_episodes_per_family)
        self.demos = [d for d in loaded if d.demo.split == "train"]
        self.model_cfg = ModelConfig(embed_dim=self.size.train_embed_dim)
        self.train_cfg = TrainConfig(epochs=self.size.train_epochs,
                                     seed=self.inputs.train_seed)
        return out

    def iterate(self) -> Outcome:
        model = PerceptionModel(self.model_cfg)
        frozen = frozen_copy(model)
        cfg = self.train_cfg
        t0 = time.perf_counter()
        result = train(self.demos, model, cfg)
        dt = time.perf_counter() - t0

        out = Outcome(seconds=dt)
        steps = cfg.epochs * math.ceil(result.n_train / cfg.batch_size)
        out.attempted = steps
        out.problems = train_problems(result, model, frozen)
        out.failed = steps if out.problems else 0
        out.timed["items_per_s"] = (result.n_train * cfg.epochs, dt)
        out.record = {"loss_curve_sha256": sha256_json(result.loss_curve),
                      "final_train_loss": result.final_train_loss,
                      "best_val_loss": result.best_val_loss,
                      "n_train": result.n_train, "n_val": result.n_val}
        return out


class Eval(Workload):
    name = "eval"
    headline = "eval_episodes_per_s"
    setup_reps = 2         # each set-up trains a model for about 10 s
    # The model is trained on the inputs of seed 0 whatever the workload
    # seed, which then changes the episodes but not the policy. Trained per
    # seed, the model missed its grasp at step 0 on 4 to 19 of the 30
    # episodes, and the episode rate moved by a fifth between seeds.
    model_inputs = make_inputs(0)

    def setup(self) -> Outcome:
        """Make a dataset, fit a D=32 model on it (the learning-sanity
        recipe: lr 1e-3, batch 1, no validation slice), save it and load it
        back as ``clothfold eval --checkpoint`` does."""
        seeds = self.model_inputs
        self.model = None
        out, loaded = gen_and_load(self.work / "dataset", seeds.dataset_seed,
                                   self.size.data_episodes_per_family)
        demos = [d for d in loaded if d.demo.split == "train"]
        model = PerceptionModel(ModelConfig(embed_dim=self.size.eval_embed_dim, seed=3))
        frozen = frozen_copy(model)
        cfg = TrainConfig(epochs=self.size.eval_train_epochs, batch_size=1,
                          learning_rate=1e-3, val_fraction=0.0,
                          seed=seeds.train_seed)
        t0 = time.perf_counter()
        result = train(demos, model, cfg)
        t_train = time.perf_counter() - t0

        path = self.work / "model.cfck"
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(path, model, metadata={"seed": seeds.train_seed})
        self.model = checkpoint.model_from_checkpoint(checkpoint.load_checkpoint(path))
        t_ckpt = time.perf_counter() - t0
        out.seconds += t_train + t_ckpt

        trained = train_problems(result, model, frozen)
        round_trip = self._round_trip_problems(model, path)
        out.attempted += 2          # the training checks and the round trip
        out.failed += bool(trained) + bool(round_trip)
        out.problems += trained + round_trip
        out.record.update(loss_curve_sha256=sha256_json(result.loss_curve),
                          checkpoint_sha256=hashlib.sha256(path.read_bytes()).hexdigest())
        return out

    def _round_trip_problems(self, model, path: Path) -> list[str]:
        """Bit-exact: equal tensors, and saving the reloaded model again
        gives the same bytes."""
        saved = model.named_parameters()
        back = self.model.named_parameters()
        if saved.keys() != back.keys() or any(
                saved[k].data.tobytes() != back[k].data.tobytes() for k in saved):
            return ["checkpoint round trip changed a tensor"]
        again = path.with_suffix(".again")
        checkpoint.save_checkpoint(again, self.model,
                                   metadata={"seed": self.model_inputs.train_seed})
        if again.read_bytes() != path.read_bytes():
            return ["checkpoint round trip changed the file bytes"]
        return []

    def iterate(self) -> Outcome:
        out_dir = self.work / "eval_out"
        shutil.rmtree(out_dir, ignore_errors=True)
        bench = evaluation.BenchmarkConfig(
            episodes_per_cell=self.size.eval_episodes_per_cell,
            seed=self.inputs.bench_seed)
        t0 = time.perf_counter()
        report = evaluation.run_benchmark(self.model, bench, camera=default_camera(),
                                          artifacts_dir=out_dir / "heatmaps")
        (out_dir / "report.json").write_text(report.to_json())
        (out_dir / "report.csv").write_text(report.to_csv())
        dt = time.perf_counter() - t0

        out = Outcome(seconds=dt, attempted=len(report.episodes))
        reasons = Counter()
        for e in report.episodes:
            reason = "none" if e.failure_reason is None else e.failure_reason.split(":")[0]
            reasons[reason] += 1
            missing = [f for f in e.artifact_files
                       if not (out_dir / "heatmaps" / f).is_file()]
            if (reason != "none" and reason not in EPISODE_OUTCOMES) or missing:
                out.failed += 1
                out.problems.append(f"episode {e.command!r}: {reason}, "
                                    f"{len(missing)} artifacts missing")
        out.timed["items_per_s"] = (len(report.episodes), dt)
        out.record = {"report_sha256": report_digest(report), "quality": quality(report),
                      "steps": dict(sorted(Counter(str(e.steps) for e in report.episodes).items())),
                      "failure_reasons": dict(sorted(reasons.items()))}
        return out


WORKLOADS = {w.name: w for w in (Expert, Train, Eval)}
