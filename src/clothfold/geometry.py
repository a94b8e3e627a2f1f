"""Pinhole back-projection of a pixel, and a pick/place's grasp / move / place primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidDepthError(ValueError):
    """Back-projection asked for with non-positive depth."""


class WorkspaceError(ValueError):
    """A requested waypoint lies outside the safe workspace."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:     # a bool is not a size
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name in ("fx", "fy"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(f"principal point must lie within the {self.width}x"
                             f"{self.height} image, got ({self.cx!r}, {self.cy!r})")


def pixel_to_camera(u: float, v: float, depth: float, k: CameraIntrinsics) -> np.ndarray:
    """Back-project pixel (u, v) with measured depth to a camera-frame point.

    u is the horizontal (column) coordinate, v the vertical (row) coordinate.
    """
    if depth <= 0:
        raise InvalidDepthError(f"depth must be positive, got {depth}")
    if not (0 <= u < k.width and 0 <= v < k.height):
        raise ValueError(f"pixel ({u}, {v}) outside {k.width}x{k.height} image")
    x = (u - k.cx) * depth / k.fx
    y = (v - k.cy) * depth / k.fy
    return np.array([x, y, depth])


@dataclass(frozen=True)
class Waypoint:
    kind: str                   # "grasp" | "move-to-position" | "place"
    position: np.ndarray        # base frame, meters
    gripper_closed: bool

    def to_record(self) -> dict:
        return {"kind": self.kind,
                "position": [float(x) for x in self.position],
                "gripper_closed": self.gripper_closed}


WORKSPACE_HALF = 0.5       # meters; the table, 1 m x 1 m, spans +/- this on x and y
TRANSPORT_HEIGHT = 0.15    # meters above the table (z = 0) while carrying


def action_to_primitives(pick_base: np.ndarray, place_base: np.ndarray) -> tuple[Waypoint, ...]:
    """Expand a pick/place pair into the fixed grasp -> move -> place sequence."""
    pick = np.asarray(pick_base, dtype=np.float64)
    place = np.asarray(place_base, dtype=np.float64)
    for name, p in (("pick", pick), ("place", place)):
        if abs(p[0]) > WORKSPACE_HALF or abs(p[1]) > WORKSPACE_HALF:
            raise WorkspaceError(f"{name} point {p[:2]} outside +/-{WORKSPACE_HALF} m workspace")
    mid = 0.5 * (pick + place)
    return (
        Waypoint("grasp", np.array([pick[0], pick[1], 0.0]), gripper_closed=True),
        Waypoint("move-to-position",
                 np.array([mid[0], mid[1], TRANSPORT_HEIGHT]), gripper_closed=True),
        Waypoint("place", np.array([place[0], place[1], 0.0]), gripper_closed=False),
    )
