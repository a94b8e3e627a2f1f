"""Run configuration: one JSON file validated on load, unknown keys rejected,
hashed so every artifact can state exactly which configuration produced it.
Secrets (the LLM API key) stay in environment variables named by the config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .evaluation import BenchmarkConfig
from .perception.config import ModelConfig
from .planner.llm import LlmBackendConfig
from .sim import SimCamera, default_camera
from .trainer.train import TrainConfig


class ConfigError(ValueError):
    pass


_SIM_DEFAULTS = {"resolution": 224}

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
    """The sections as read, which the hash covers, and the records built
    from them once, which the commands use."""
    seed: int
    model: ModelConfig
    train: TrainConfig
    sim: dict
    data: dict
    benchmark: dict
    planner: dict
    camera: SimCamera                        # built from sim["resolution"]
    bench: BenchmarkConfig                   # built from seed, data and benchmark
    backend: Optional[LlmBackendConfig]      # built from planner["backend"]

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

    model_rec = _merge_section("model", ModelConfig().to_record(), raw.get("model"))
    train_rec = _merge_section("train", TrainConfig().to_record(), raw.get("train"))
    try:
        model = ModelConfig(**model_rec)
        train = TrainConfig(**train_rec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid model/train settings: {e}") from e

    sim = _merge_section("sim", _SIM_DEFAULTS, raw.get("sim"))
    data = _merge_section("data", _DATA_DEFAULTS, raw.get("data"))
    benchmark = _merge_section("benchmark", _BENCH_DEFAULTS, raw.get("benchmark"))
    try:
        camera = default_camera(sim["resolution"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid sim.resolution {sim['resolution']!r}: {e}") from e
    episodes = data["episodes_per_family"]
    if type(episodes) is not int or episodes <= 0:
        raise ConfigError(f"data.episodes_per_family must be a positive integer, "
                          f"got {episodes!r}")
    if model.image_size > sim["resolution"]:
        raise ConfigError(f"model.image_size {model.image_size} exceeds "
                          f"sim.resolution {sim['resolution']}")
    try:
        bench = BenchmarkConfig(episodes_per_cell=benchmark["episodes_per_cell"], seed=seed,
                                held_out_family=data["held_out_family"],
                                mask_only=benchmark["mask_only"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid seed/data/benchmark settings: {e}") from e
    planner = _merge_section("planner", _PLANNER_DEFAULTS, raw.get("planner"))
    rec = planner["backend"]
    try:
        backend = None if rec is None else LlmBackendConfig(**rec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid planner backend config: {e}") from e
    return RunConfig(seed=seed, model=model, train=train, sim=sim, data=data,
                     benchmark=benchmark, planner=planner, camera=camera, bench=bench,
                     backend=backend)


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return parse_config({})
    try:
        raw = json.loads(Path(path).read_bytes().decode("utf-8"))
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"config file {path} is not UTF-8 JSON: {e}") from e
    return parse_config(raw)
