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


# Each section's keys and their defaults; a config may override any of them.
_SECTIONS = {
    "model": ModelConfig().to_record(),
    "train": TrainConfig().to_record(),
    "sim": {"resolution": 224},
    "data": {"episodes_per_family": 42, "held_out_family": None},
    "benchmark": {"episodes_per_cell": 3, "mask_only": False},
    "planner": {"backend": None},  # or {"endpoint_url", "model", "api_key_env", "timeout_s"}
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
    """The records the commands use, built once from the merged config, and
    that config's hash."""
    seed: int
    model: ModelConfig
    train: TrainConfig
    camera: SimCamera                        # from sim.resolution
    bench: BenchmarkConfig                   # from seed, data and benchmark
    backend: Optional[LlmBackendConfig]      # from planner.backend
    episodes_per_family: int                 # data.episodes_per_family, for gen-data
    config_hash: str

    def provenance(self) -> dict:
        return {"config_hash": self.config_hash, "seed": self.seed}


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - {"seed", *_SECTIONS})
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")
    seed = raw.get("seed", 0)
    merged = {name: _merge_section(name, defaults, raw.get(name))
              for name, defaults in _SECTIONS.items()}
    sim, data, benchmark = merged["sim"], merged["data"], merged["benchmark"]

    try:
        model = ModelConfig(**merged["model"])
        train = TrainConfig(**merged["train"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid model/train settings: {e}") from e
    try:
        camera = default_camera(sim["resolution"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid sim.resolution {sim['resolution']!r}: {e}") from e
    episodes = data["episodes_per_family"]
    if type(episodes) is not int or episodes <= 0:
        raise ConfigError(f"data.episodes_per_family must be a positive integer, "
                          f"got {episodes!r}")
    try:
        bench = BenchmarkConfig(episodes_per_cell=benchmark["episodes_per_cell"], seed=seed,
                                held_out_family=data["held_out_family"],
                                mask_only=benchmark["mask_only"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid seed/data/benchmark settings: {e}") from e
    rec = merged["planner"]["backend"]
    try:
        backend = None if rec is None else LlmBackendConfig(**rec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid planner backend config: {e}") from e
    canon = json.dumps({"seed": seed, **merged}, sort_keys=True, separators=(",", ":"))
    return RunConfig(seed=seed, model=model, train=train, camera=camera, bench=bench,
                     backend=backend, episodes_per_family=episodes,
                     config_hash=hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16])


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
