"""Stateful episode environment: mesh + camera with a fold/observe loop."""

from __future__ import annotations

import numpy as np

from .mesh import ClothMesh, fold, init_cloth
from .render import Observation, SimCamera, default_camera, render

JITTER_TRANSLATION = 0.015       # meters
JITTER_ROTATION = 0.14           # radians (~8 degrees)
DEFAULT_GRID = (25, 25)
DEFAULT_CLOTH_SIZE = 0.36        # meters; keeps jittered cloth inside the crop


class ClothSim:
    """Holds one cloth episode's state. Distinct instances are independent."""

    def __init__(self, mesh: ClothMesh, camera: SimCamera | None = None):
        self.mesh = mesh
        self.camera = camera or default_camera()

    @classmethod
    def fresh(cls, kind: str, grid_dims=(25, 25), size_m: float = 0.36,
              center=(0.0, 0.0), rotation_rad: float = 0.0,
              camera: SimCamera | None = None) -> "ClothSim":
        return cls(init_cloth(kind, grid_dims, size_m, center, rotation_rad), camera)

    def observe(self) -> Observation:
        return render(self.mesh, self.camera)

    def step(self, pick_w: np.ndarray, place_w: np.ndarray) -> Observation:
        """Execute one fold and return the new observation. Raises
        GraspMissError when nothing is within the picker radius."""
        self.mesh = fold(self.mesh, pick_w, place_w)
        return self.observe()


def jittered_sim(kind: str, rng: np.random.Generator,
                 camera: SimCamera | None = None) -> ClothSim:
    """Fresh episode with a randomized cloth pose (translation + rotation)."""
    center = rng.uniform(-JITTER_TRANSLATION, JITTER_TRANSLATION, size=2)
    rot = rng.uniform(-JITTER_ROTATION, JITTER_ROTATION)
    return ClothSim.fresh(kind, DEFAULT_GRID, DEFAULT_CLOTH_SIZE,
                          center=tuple(center), rotation_rad=rot, camera=camera)
