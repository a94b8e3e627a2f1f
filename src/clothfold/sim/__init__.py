from .mesh import (
    ClothMesh,
    FoldError,
    GraspMissError,
    LandmarkError,
    cloth_kinds,
    fold,
    init_cloth,
)
from .render import Observation, SimCamera, default_camera, render
from .expert import ExpertError, PickPlaceAction, scripted_expert
from .env import ClothSim, jittered_sim

__all__ = [
    "ClothMesh", "ClothSim", "ExpertError", "FoldError", "GraspMissError",
    "LandmarkError", "Observation", "PickPlaceAction", "SimCamera",
    "cloth_kinds", "default_camera", "fold", "init_cloth", "jittered_sim",
    "render", "scripted_expert",
]
