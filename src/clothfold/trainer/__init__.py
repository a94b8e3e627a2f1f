from .heatmaps import action_to_heatmap, bce, total_loss
from .dataset import (
    DatasetFormatError,
    DatasetManifest,
    Demonstration,
    LoadedDemo,
    generate_dataset,
    load_dataset,
)
from .train import (
    CropError,
    GradCheckReport,
    PreparedSample,
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    grad_check,
    prepare_sample,
    train,
)
from .ablate import AblationReport, run_ablation

__all__ = [
    "AblationReport", "CropError", "DatasetFormatError", "DatasetManifest", "Demonstration",
    "GradCheckReport", "LoadedDemo", "PreparedSample", "TrainConfig",
    "TrainResult", "TrainingDivergedError", "action_to_heatmap", "bce",
    "generate_dataset", "grad_check", "load_dataset", "prepare_sample",
    "run_ablation", "total_loss", "train",
]
