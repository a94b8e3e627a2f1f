"""Training loop and gradient verification for the perception model."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .. import autodiff as ad
from ..perception.config import typed_fields
from ..perception.model import (EmptyMaskError, PerceptionModel, normalize_observation,
                                segment_workspace)
from .dataset import DatasetFormatError, LoadedDemo
from .heatmaps import action_to_heatmap, total_loss

log = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    pass


class CropError(ValueError):
    """A demonstration's action pixel lies outside the model's centre crop:
    ``model.image_size`` is too small for the data."""


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 1e-4
    sigma_hm: float = 4.0          # ground-truth heatmap width, pixels
    seed: int = 0
    clip_norm: float = 100.0       # global gradient-norm clip; 0 disables
    val_fraction: float = 0.1

    def __post_init__(self):
        typed_fields(type(self), vars(self))
        # NaN fails every test below: a JSON config may hold NaN and Infinity.
        if self.epochs < 0 or self.batch_size <= 0 or not 0 < self.learning_rate < math.inf:
            raise ValueError("epochs, batch size and a finite learning rate must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.sigma_hm < math.inf:
            raise ValueError("sigma_hm must be positive and finite")
        if not 0 <= self.clip_norm < math.inf:
            raise ValueError("clip_norm must be finite and >= 0 (0 disables the clip)")
        if not (0 <= self.val_fraction < 1):
            raise ValueError("val_fraction must be in [0, 1)")

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "TrainConfig":
        return cls(**rec)


@dataclass
class PreparedSample:
    image4: np.ndarray
    token_ids: list[int]
    gt_pick: np.ndarray
    gt_place: np.ndarray
    pick_crop: tuple[int, int]
    place_crop: tuple[int, int]


def prepare_sample(model: PerceptionModel, demo: LoadedDemo,
                   sigma_hm: float) -> PreparedSample:
    """Mask + crop the stored observation and build crop-frame targets. A pick
    or place pixel the crop cuts off raises CropError before segmentation; a
    crop with no cloth then raises DatasetFormatError."""
    size = model.cfg.image_size
    # Sized by the kept mask, which segmentation reads too; depth builds a frame per read
    r0, c0 = ((n - size) // 2 for n in demo.observation.cloth_mask.shape)
    d, crop, gt = demo.demo, [], []
    for what, (r, c) in (("pick", d.pick_pixel), ("place", d.place_pixel)):
        crop.append((r - r0, c - c0))
        try:
            gt.append(action_to_heatmap(crop[-1], sigma_hm, size, size))
        except ValueError as e:
            raise CropError(f"demo of episode {d.episode_id} step {d.step_index}: {what} "
                            f"pixel {(r, c)} lies outside the {size}x{size} centre crop "
                            f"at {(r0, c0)}; raise model.image_size") from e
    try:
        seg, _ = segment_workspace(demo.observation, size)
    except EmptyMaskError as e:
        raise DatasetFormatError(f"demo of episode {d.episode_id} step {d.step_index}: "
                                 f"{e}") from e
    return PreparedSample(normalize_observation(seg), model.tokenize(d.subtask), *gt, *crop)


def sample_loss(model: PerceptionModel, sample: PreparedSample,
                weight: float = 1.0) -> ad.Tensor:
    q_pick, q_place = model.forward_heatmaps(sample.image4, sample.token_ids)
    loss = total_loss(q_pick, q_place, sample.gt_pick, sample.gt_place)
    return ad.scale(loss, weight) if weight != 1.0 else loss


def clip_gradients(opt: ad.Adam, max_norm: float) -> float:
    """Scale the optimizer's gradients down to a global norm of ``max_norm``
    (0 disables the clip) and return the norm before clipping. A non-finite
    norm raises :class:`TrainingDivergedError`: scaling could not repair it,
    and the step would write NaN into the parameters. Each parameter's slice
    is summed on its own, for the bits of a per-tensor ``(g ** 2).sum()``."""
    sq = opt.grad * opt.grad
    total = math.sqrt(sum(float(sq[a:b].sum()) for a, b in opt.spans))
    if not math.isfinite(total):
        raise TrainingDivergedError(f"gradient norm became {total}")
    if max_norm > 0 and total > max_norm:
        opt.grad *= max_norm / total
    return total


@dataclass
class TrainResult:
    loss_curve: list[dict] = field(default_factory=list)   # epoch/train/val rows
    best_epoch: int = -1
    best_val_loss: float = math.inf
    final_train_loss: Optional[float] = None    # None until an epoch has run
    n_train: int = 0
    n_val: int = 0

    def curve_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss"]
        for row in self.loss_curve:
            val = "" if row["val_loss"] is None else f"{row['val_loss']:.6f}"
            lines.append(f"{row['epoch']},{row['train_loss']:.6f},{val}")
        return "\n".join(lines) + "\n"


def train(demos: Sequence[LoadedDemo], model: PerceptionModel,
          config: TrainConfig) -> TrainResult:
    """Epoch-shuffled minibatch Adam on the summed pick+place BCE.

    A deterministic validation slice is carved from the inputs; the model is
    left holding the best-by-validation parameters (or the final ones when
    the validation slice is empty). Frozen tower weights are never updated.
    """
    if not demos:
        raise ValueError("training needs a non-empty dataset")

    samples = [prepare_sample(model, d, config.sigma_hm) for d in demos]
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(samples))
    n_val = int(len(samples) * config.val_fraction)
    val_idx = order[:n_val]
    train_idx = order[n_val:]

    opt = ad.Adam(model.trainable_parameters().values(), lr=config.learning_rate)
    result = TrainResult(n_train=len(train_idx), n_val=len(val_idx))
    best_data: Optional[np.ndarray] = None

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        rng.shuffle(train_idx)
        epoch_total = 0.0
        max_grad_norm = 0.0
        clips = 0
        for start in range(0, len(train_idx), config.batch_size):
            batch = train_idx[start:start + config.batch_size]
            for j in batch:
                with ad.Tape() as tape:
                    loss = sample_loss(model, samples[j], 1.0 / len(batch))
                    tape.backward(loss)
                value = loss.item() * len(batch)
                if not math.isfinite(value):
                    raise TrainingDivergedError(
                        f"loss became {value} at epoch {epoch}")
                epoch_total += value
            grad_norm = clip_gradients(opt, config.clip_norm)
            max_grad_norm = max(max_grad_norm, grad_norm)
            clips += 0 < config.clip_norm < grad_norm
            opt.step()
        train_s = time.perf_counter() - t0
        train_loss = epoch_total / max(len(train_idx), 1)

        val_loss = None
        if len(val_idx):
            val_loss = float(np.mean([sample_loss(model, samples[j]).item()
                                      for j in val_idx]))
            if val_loss < result.best_val_loss:
                result.best_val_loss = val_loss
                result.best_epoch = epoch
                best_data = opt.data.copy()
        result.loss_curve.append({"epoch": epoch, "train_loss": train_loss,
                                  "val_loss": val_loss})
        result.final_train_loss = train_loss
        log.info("epoch %d: train %.2f val %s; %.2f s, %.1f samples/s, "
                 "max grad norm %.4g, clipped %d of %d steps", epoch, train_loss,
                 f"{val_loss:.2f}" if val_loss is not None else "-",
                 time.perf_counter() - t0, len(train_idx) / train_s,
                 max_grad_norm, clips, math.ceil(len(train_idx) / config.batch_size))

    if best_data is not None:
        opt.data[:] = best_data
    return result


# -- gradient verification ---------------------------------------------------

FD_STEP = 1e-5
# Gradients below this scale are compared at the absolute tolerance
# SMALL_GRAD_FLOOR * (relative tolerance): central differences on a loss of
# magnitude ~1e4 carry ~3e-7 of float64 noise, so purely relative comparison
# is meaningless for tiny entries.
SMALL_GRAD_FLOOR = 1e-2


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    per_group: dict
    directional: dict
    n_scalars: int

    def summary(self) -> str:
        lines = [f"gradient check over {self.n_scalars} trainable scalars",
                 f"max rel err {self.max_rel_err:.3e} ({self.worst_param})"]
        for group, err in sorted(self.per_group.items()):
            lines.append(f"  {group:<12s} per-scalar {err:.3e}  "
                         f"directional {self.directional[group]:.3e}")
        return "\n".join(lines)


GRAD_CHECK_MAX_DIM = 32


def grad_check(model: PerceptionModel, sample: PreparedSample,
               seed: int = 0, h: float = FD_STEP) -> GradCheckReport:
    """Compare tape gradients with central finite differences for every
    trainable scalar (the frozen towers are excluded by construction).

    Only small models are accepted: the cost is two forward passes per
    trainable scalar. Trainables are first moved to a generic random point:
    several adapter factors start at exactly zero where their true gradients
    vanish.
    """
    if model.cfg.embed_dim > GRAD_CHECK_MAX_DIM:
        raise ValueError(
            f"grad_check needs a small model (embed_dim <= {GRAD_CHECK_MAX_DIM}); "
            f"got {model.cfg.embed_dim}")
    rng = np.random.default_rng(seed)
    named = model.trainable_parameters()
    for name, p in named.items():
        base = 1.0 if name.endswith((".m", "ln.g")) else 0.0
        p.data[:] = base + rng.normal(0.0, 0.05, size=p.shape)

    with ad.Tape() as tape:
        loss = sample_loss(model, sample)
        tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in named.items()}
    for p in named.values():
        p.grad = None

    def loss_value() -> float:
        return sample_loss(model, sample).item()

    per_group: dict[str, float] = {}
    directional: dict[str, float] = {}
    worst = 0.0
    worst_param = ""
    n_scalars = 0
    for name, p in named.items():
        group = name.split(".", 1)[0]
        a = analytic[name]
        n_scalars += p.size
        for i in range(p.size):
            orig = p.data.flat[i]
            p.data.flat[i] = orig + h
            fp = loss_value()
            p.data.flat[i] = orig - h
            fm = loss_value()
            p.data.flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            err = abs(a.flat[i] - fd) / max(abs(a.flat[i]), abs(fd), SMALL_GRAD_FLOOR)
            if err > per_group.get(group, 0.0):
                per_group[group] = err
            if err > worst:
                worst, worst_param = err, f"{name}[{i}]"

        # Directional probe: the sign-matched direction maximizes |<g, u>|,
        # giving a well-conditioned relative check even when individual
        # entries are tiny.
        u = np.sign(a) + (a == 0)
        u /= np.linalg.norm(u.ravel())
        saved = p.data.copy()
        p.data[:] = saved + h * u
        fp = loss_value()
        p.data[:] = saved - h * u
        fm = loss_value()
        p.data[:] = saved
        fd_dir = (fp - fm) / (2.0 * h)
        an_dir = float((a * u).sum())
        dir_err = abs(an_dir - fd_dir) / max(abs(an_dir), abs(fd_dir), 1e-6)
        directional[group] = max(directional.get(group, 0.0), dir_err)

    return GradCheckReport(worst, worst_param, per_group, directional, n_scalars)
