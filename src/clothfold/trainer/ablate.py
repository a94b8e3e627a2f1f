"""Ablation harness: retrain and score every adapter x fusion combination on
the same data, emitting one comparable row per combination."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace, field
from typing import Sequence

from ..evaluation import BenchmarkConfig, run_benchmark
from ..perception.config import ADAPTER_TYPES, FUSION_TYPES, ModelConfig
from ..perception.model import PerceptionModel
from ..trainer.dataset import LoadedDemo, camera_from_record
from ..trainer.train import TrainConfig, train


@dataclass
class AblationReport:
    rows: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"rows": self.rows}, indent=1, sort_keys=True)

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        families = sorted(k.split("/", 1)[1] for k in self.rows[0]
                          if k.startswith("sr/"))
        header = ["adapter", "fusion", "trainable_params"]
        header += [f"sr_{f}" for f in families] + ["sr_avg", "mpd_avg", "miou_avg"]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [row["adapter"], row["fusion"], str(row["trainable_params"])]
            cells += [f"{row['sr/' + f]:.1f}" for f in families]
            cells += [f"{row['sr_avg']:.1f}", f"{row['mpd_avg']:.6f}",
                      f"{row['miou_avg']:.2f}"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def run_ablation(demos: Sequence[LoadedDemo], model_cfg: ModelConfig,
                 train_cfg: TrainConfig, camera_record: dict,
                 episodes_per_cell: int = 1,
                 benchmark_seed: int = 0) -> AblationReport:
    """Train each combination from the same seed and data, then benchmark it
    on seen instructions. Values are desk-scale; the row schema is the point.
    """
    camera = camera_from_record(camera_record)
    report = AblationReport()
    for adapter in ADAPTER_TYPES:
        for fusion in FUSION_TYPES:
            m_cfg = replace(model_cfg, adapter=adapter, fusion=fusion)
            model = PerceptionModel(m_cfg)
            result = train(demos, model, train_cfg)
            bench = run_benchmark(model, BenchmarkConfig(
                episodes_per_cell=episodes_per_cell, seed=benchmark_seed,
                conditions=("SI",)), camera=camera)
            row = {
                "adapter": adapter,
                "fusion": fusion,
                "trainable_params": model.parameter_census()["trainable"],
                "final_train_loss": result.final_train_loss,
                "sr_avg": bench.averages["SI"]["sr_percent"],
                "mpd_avg": bench.averages["SI"]["mean_mpd_m"],
                "miou_avg": bench.averages["SI"]["miou_percent"],
            }
            for key, cell in bench.cells.items():
                fam = key.split("/", 1)[1]
                row[f"sr/{fam}"] = cell["sr_percent"]
            report.rows.append(row)
    return report
