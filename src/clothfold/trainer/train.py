"""Training loop and gradient verification for the perception model."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .. import autodiff as ad
from ..perception.model import PerceptionModel, normalize_observation, segment_workspace
from .dataset import LoadedDemo
from .heatmaps import action_to_heatmap, total_loss

log = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    pass


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
        if self.epochs < 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("epochs, batch size and learning rate must be positive")
        if self.sigma_hm <= 0:
            raise ValueError("sigma_hm must be positive")
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
    """Mask + crop the stored observation and build crop-frame targets."""
    size = model.cfg.image_size
    seg, (r0, c0) = segment_workspace(demo.observation, size)
    pick = (demo.demo.pick_pixel[0] - r0, demo.demo.pick_pixel[1] - c0)
    place = (demo.demo.place_pixel[0] - r0, demo.demo.place_pixel[1] - c0)
    return PreparedSample(normalize_observation(seg),
                          model.tokenize(demo.demo.subtask),
                          action_to_heatmap(pick, sigma_hm, size, size),
                          action_to_heatmap(place, sigma_hm, size, size),
                          pick, place)


def sample_loss(model: PerceptionModel, sample: PreparedSample,
                weight: float = 1.0) -> ad.Tensor:
    q_pick, q_place = model.forward_heatmaps(sample.image4, sample.token_ids)
    loss = total_loss(q_pick, q_place, sample.gt_pick, sample.gt_place)
    return ad.scale(loss, weight) if weight != 1.0 else loss


def clip_gradients(params: Sequence[ad.Tensor], max_norm: float) -> float:
    total = math.sqrt(sum(float((p.grad ** 2).sum())
                          for p in params if p.grad is not None))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


@dataclass
class TrainResult:
    loss_curve: list[dict] = field(default_factory=list)   # epoch/train/val rows
    best_epoch: int = -1
    best_val_loss: float = math.inf
    final_train_loss: float = math.inf
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

    params_by_name = model.trainable_parameters()
    params = list(params_by_name.values())
    opt = ad.Adam(params, lr=config.learning_rate)

    result = TrainResult(n_train=len(train_idx), n_val=len(val_idx))
    best_state: Optional[dict[str, np.ndarray]] = None

    for epoch in range(config.epochs):
        rng.shuffle(train_idx)
        epoch_total = 0.0
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
            clip_gradients(params, config.clip_norm)
            opt.step()
        train_loss = epoch_total / max(len(train_idx), 1)

        val_loss = None
        if len(val_idx):
            val_loss = float(np.mean([sample_loss(model, samples[j]).item()
                                      for j in val_idx]))
            if val_loss < result.best_val_loss:
                result.best_val_loss = val_loss
                result.best_epoch = epoch
                best_state = {k: p.data.copy() for k, p in params_by_name.items()}
        result.loss_curve.append({"epoch": epoch, "train_loss": train_loss,
                                  "val_loss": val_loss})
        result.final_train_loss = train_loss
        log.info("epoch %d: train %.2f val %s", epoch, train_loss,
                 f"{val_loss:.2f}" if val_loss is not None else "-")

    if best_state is not None:
        for k, p in params_by_name.items():
            p.data[:] = best_state[k]
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
