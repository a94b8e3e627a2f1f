"""Run configuration: one JSON file validated on load, unknown keys rejected,
hashed so every artifact can state exactly which configuration produced it.
Secrets (the LLM API key) stay in environment variables named by the config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .perception.config import ModelConfig
from .planner.templates import TASK_FAMILIES
from .trainer.train import TrainConfig


class ConfigError(ValueError):
    pass


_SIM_DEFAULTS = {
    "resolution": 224,
    "camera_height": 1.0,
}

_DATA_DEFAULTS = {
    "episodes_per_family": 42,
    "held_out_family": None,
}

_BENCH_DEFAULTS = {
    "episodes_per_cell": 3,
    "mask_only": False,
}

_PLANNER_DEFAULTS = {
    "backend": None,     # or {"endpoint_url", "model", "api_key_env", "timeout_s"}
}


def _merge_section(name: str, defaults: dict, override: Any) -> dict:
    if override is None:
        return dict(defaults)
    if not isinstance(override, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = sorted(set(override) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {unknown}")
    return {**defaults, **override}


@dataclass
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sim: dict = field(default_factory=lambda: dict(_SIM_DEFAULTS))
    data: dict = field(default_factory=lambda: dict(_DATA_DEFAULTS))
    benchmark: dict = field(default_factory=lambda: dict(_BENCH_DEFAULTS))
    planner: dict = field(default_factory=lambda: dict(_PLANNER_DEFAULTS))

    def to_record(self) -> dict:
        return {"seed": self.seed, "model": self.model.to_record(),
                "train": self.train.to_record(), "sim": dict(self.sim),
                "data": dict(self.data), "benchmark": dict(self.benchmark),
                "planner": dict(self.planner)}

    def config_hash(self) -> str:
        canon = json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def provenance(self) -> dict:
        return {"config_hash": self.config_hash(), "seed": self.seed}


_TOP_KEYS = ("seed", "model", "train", "sim", "data", "benchmark", "planner")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(_TOP_KEYS))
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")
    seed = raw.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    model_rec = _merge_section("model", {**ModelConfig().to_record(), "head_dim": 0},
                               raw.get("model"))      # head_dim 0: derived unless pinned
    train_rec = _merge_section("train", TrainConfig().to_record(), raw.get("train"))
    try:
        model = ModelConfig.from_record(model_rec)
        train = TrainConfig.from_record(train_rec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid model/train settings: {e}") from e

    sim = _merge_section("sim", _SIM_DEFAULTS, raw.get("sim"))
    data = _merge_section("data", _DATA_DEFAULTS, raw.get("data"))
    benchmark = _merge_section("benchmark", _BENCH_DEFAULTS, raw.get("benchmark"))
    for key, value in (("sim.resolution", sim["resolution"]),
                       ("data.episodes_per_family", data["episodes_per_family"]),
                       ("benchmark.episodes_per_cell", benchmark["episodes_per_cell"])):
        if type(value) is not int or value <= 0:
            raise ConfigError(f"{key} must be a positive integer, got {value!r}")
    height = sim["camera_height"]
    if type(height) not in (int, float) or not 0 < height < math.inf:
        raise ConfigError(f"sim.camera_height must be a positive number, got {height!r}")
    if model.image_size > sim["resolution"]:
        raise ConfigError(f"model.image_size {model.image_size} exceeds "
                          f"sim.resolution {sim['resolution']}")
    if type(benchmark["mask_only"]) is not bool:
        raise ConfigError(f"benchmark.mask_only must be true or false, "
                          f"got {benchmark['mask_only']!r}")
    if data["held_out_family"] not in (None, *TASK_FAMILIES):
        raise ConfigError(f"data.held_out_family {data['held_out_family']!r} "
                          f"is not null or one of {list(TASK_FAMILIES)}")
    return RunConfig(seed=seed, model=model, train=train, sim=sim, data=data,
                     benchmark=benchmark,
                     planner=_merge_section("planner", _PLANNER_DEFAULTS, raw.get("planner")))


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(Path(path).read_bytes().decode("utf-8"))
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"config file {path} is not UTF-8 JSON: {e}") from e
    return parse_config(raw)
