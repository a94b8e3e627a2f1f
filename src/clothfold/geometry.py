"""Action translation: pixel + depth -> camera frame -> robot base frame,
and expansion of a pick/place pair into grasp / move / place primitives."""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie within the image")

    def project(self, point_cam: np.ndarray) -> tuple[float, float]:
        """Camera-frame 3D point -> (u, v) pixel coordinates."""
        x, y, z = point_cam
        if z <= 0:
            raise InvalidDepthError(f"point behind camera: z={z}")
        return (self.cx + self.fx * x / z, self.cy + self.fy * y / z)


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


_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation; maps points p -> R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError(f"bad transform shapes {r.shape}, {t.shape}")
        if not np.allclose(r.T @ r, np.eye(3), atol=_ORTHO_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(p, dtype=np.float64) + self.translation


def camera_to_base(point_cam: np.ndarray, base_from_camera: RigidTransform) -> np.ndarray:
    return base_from_camera.apply(point_cam)


@dataclass(frozen=True)
class Waypoint:
    kind: str                   # "grasp" | "move-to-position" | "place"
    position: np.ndarray        # base frame, meters
    gripper_closed: bool

    def to_record(self) -> dict:
        return {"kind": self.kind,
                "position": [float(x) for x in self.position],
                "gripper_closed": self.gripper_closed}


@dataclass
class PrimitiveSequence:
    waypoints: list[Waypoint] = field(default_factory=list)

    def to_records(self) -> list[dict]:
        return [w.to_record() for w in self.waypoints]


WORKSPACE_HALF = 0.5       # meters; the table, 1 m x 1 m, spans +/- this on x and y
TRANSPORT_HEIGHT = 0.15    # meters above the table (z = 0) while carrying


def action_to_primitives(pick_base: np.ndarray, place_base: np.ndarray) -> PrimitiveSequence:
    """Expand a pick/place pair into the fixed grasp -> move -> place sequence."""
    pick = np.asarray(pick_base, dtype=np.float64)
    place = np.asarray(place_base, dtype=np.float64)
    for name, p in (("pick", pick), ("place", place)):
        if abs(p[0]) > WORKSPACE_HALF or abs(p[1]) > WORKSPACE_HALF:
            raise WorkspaceError(f"{name} point {p[:2]} outside +/-{WORKSPACE_HALF} m workspace")
    mid = 0.5 * (pick + place)
    return PrimitiveSequence([
        Waypoint("grasp", np.array([pick[0], pick[1], 0.0]), gripper_closed=True),
        Waypoint("move-to-position",
                 np.array([mid[0], mid[1], TRANSPORT_HEIGHT]), gripper_closed=True),
        Waypoint("place", np.array([place[0], place[1], 0.0]), gripper_closed=False),
    ])
