"""Scripted expert: resolves a sub-task's landmarks on the current mesh and
emits the pick/place action. This policy defines ground truth for both the
training data and the evaluation targets."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .mesh import LAYER_THICKNESS, ClothMesh, LandmarkError
from .render import SimCamera

if TYPE_CHECKING:  # avoid a runtime planner <-> sim cycle
    from ..planner.grammar import SubTask


class ExpertError(RuntimeError):
    """The expert could not resolve a sub-task on this mesh."""


class PickPlaceAction:
    """Pick/place pixels (row, col) with optional exact world-frame points."""

    __slots__ = ("pick_pixel", "place_pixel", "pick_world", "place_world")

    def __init__(self, pick_pixel, place_pixel, pick_world=None, place_world=None):
        self.pick_pixel = (int(pick_pixel[0]), int(pick_pixel[1]))
        self.place_pixel = (int(place_pixel[0]), int(place_pixel[1]))
        self.pick_world = None if pick_world is None else np.asarray(pick_world, float)
        self.place_world = None if place_world is None else np.asarray(place_world, float)

    def __repr__(self):
        return f"PickPlaceAction(pick={self.pick_pixel}, place={self.place_pixel})"


def project_landmark(mesh: ClothMesh, name: str, camera: SimCamera) -> tuple[int, int]:
    """Current pixel (row, col) of a landmark particle, at its layered height."""
    point = mesh.landmark_point(name)
    z_w = mesh.landmark_layer(name) * LAYER_THICKNESS
    u, v = camera.world_to_pixel(point[0], point[1], z_w)
    row, col = int(round(v)), int(round(u))
    h, w = camera.intrinsics.height, camera.intrinsics.width
    if not (0 <= row < h and 0 <= col < w):
        raise ExpertError(f"landmark {name!r} projects outside the image at ({row}, {col})")
    return row, col


def scripted_expert(mesh: ClothMesh, subtask: "SubTask", camera: SimCamera) -> PickPlaceAction:
    """Ground-truth action for one grammar-valid sub-task."""
    try:
        pick_w = mesh.landmark_point(subtask.pick_landmark)
        place_w = mesh.landmark_point(subtask.place_landmark)
        pick_px = project_landmark(mesh, subtask.pick_landmark, camera)
        place_px = project_landmark(mesh, subtask.place_landmark, camera)
    except LandmarkError as e:
        raise ExpertError(f"cannot resolve sub-task {subtask.text!r} on kind "
                          f"{mesh.kind!r}: {e}") from e
    return PickPlaceAction(pick_px, place_px, pick_world=pick_w, place_world=place_w)
