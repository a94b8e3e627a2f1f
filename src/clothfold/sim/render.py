"""Top-down RGB-D rendering of cloth meshes through a fixed pinhole camera."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import CameraIntrinsics, RigidTransform
from .mesh import LAYER_THICKNESS, WORKSPACE_HALF, ClothMesh, cloth_color

BACKGROUND_RGB = np.zeros(3)          # black table; cloth colors are far from it
CLOTH_COLOR_MARGIN = 0.05             # min distance of any cloth color channel to bg
DEPTH_QUANTUM = 1e-4                  # depths snap to 0.1 mm so exports round-trip


def cloth_mask_from_rgb(rgb: np.ndarray) -> np.ndarray:
    """``rgb.max(axis=-1) > CLOTH_COLOR_MARGIN`` (NaN included), on channel planes."""
    return np.maximum(np.maximum(rgb[..., 0], rgb[..., 1]), rgb[..., 2]) > CLOTH_COLOR_MARGIN


@dataclass(frozen=True)
class SimCamera:
    """Overhead camera: optical axis straight down at the table center.

    Camera frame: x right (world +x), y toward image rows (world -y),
    z along the view direction (down), so depth = height above the table
    subtracted from the mount height.
    """

    intrinsics: CameraIntrinsics
    height: float = 1.0

    def __post_init__(self):
        # Built and checked once per camera; a rollout applies it twice per
        # step. Its arrays are read-only, as every caller shares them.
        rotation = np.diag([1.0, -1.0, -1.0])
        translation = np.array([0.0, 0.0, self.height])
        rotation.flags.writeable = translation.flags.writeable = False
        object.__setattr__(self, "_base_from_camera", RigidTransform(rotation, translation))

    def base_from_camera(self) -> RigidTransform:
        return self._base_from_camera

    def world_to_pixel(self, x: float, y: float, z_world: float = 0.0) -> tuple[float, float]:
        """World table point -> (u, v) pixel (u = column, v = row); takes
        scalars or equal-shaped arrays."""
        z_c = self.height - z_world
        u = self.intrinsics.cx + self.intrinsics.fx * x / z_c
        v = self.intrinsics.cy - self.intrinsics.fy * y / z_c
        return u, v

    @property
    def table_depth(self) -> float:
        return self.height


def default_camera(resolution: int = 224, height: float = 1.0) -> SimCamera:
    # Focal length chosen so the 1 m x 1 m workspace fills the image exactly.
    f = resolution / (2 * WORKSPACE_HALF)
    c = resolution / 2.0
    return SimCamera(CameraIntrinsics(f, f, c, c, resolution, resolution), height)


class Observation:
    """RGB-D image: rgb in [0,1] (quantized to the uint8 grid), depth in
    meters, cloth_mask the renderer's ground truth.

    ``Observation(rgb, depth, cloth_mask, camera)`` holds the frame it is
    given. ``render`` passes no frame but ``colors``, the (background, cloth)
    color pair: the frame is then built on the first read of ``rgb``, one
    gather of that pair by ``cloth_mask``, and kept, so every later read
    returns the same array. ``render`` returns the mask read-only, so the
    frame is the one of the mask as rendered.
    """

    def __init__(self, rgb: np.ndarray | None, depth: np.ndarray,
                 cloth_mask: np.ndarray, camera: SimCamera,
                 colors: np.ndarray | None = None):
        self._rgb = rgb              # [H, W, 3], or None until first read
        self.colors = colors         # [2, 3] (background, cloth), or None
        self.depth = depth           # [H, W]
        self.cloth_mask = cloth_mask  # [H, W] bool
        self.camera = camera

    @property
    def rgb(self) -> np.ndarray:
        if self._rgb is None:
            self._rgb = self.colors.take(self.cloth_mask.view(np.uint8), axis=0)
        return self._rgb


_DISK_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _splat_disk(r_px: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (dv, du) offsets of the pixels within ``r_px`` of a splat's
    centre; read-only, as every render of that radius shares them."""
    cached = _DISK_CACHE.get(r_px)
    if cached is not None:
        return cached
    offs = np.arange(-r_px, r_px + 1)
    dv, du = np.meshgrid(offs, offs, indexing="ij")
    disk = (du * du + dv * dv) <= r_px * r_px
    dv, du = dv[disk], du[disk]
    dv.flags.writeable = du.flags.writeable = False
    _DISK_CACHE[r_px] = dv, du
    return dv, du


def render(mesh: ClothMesh, camera: SimCamera) -> Observation:
    """Rasterize the mesh: each particle splats a disk at its projected pixel;
    the z-buffer keeps the top layer. Depth = mount height - layers * thickness.

    The disk footprints of all particles go into the depth buffer in one
    ``np.minimum.at``. That is exactly a per-particle z-buffer in any order:
    all particles share one color, so a pixel's color and mask only say
    whether some particle covers it, and its depth is the least quantized
    depth among those. ``np.rint`` rounds half to even like ``round``.

    The image bounds are checked once per particle: a particle whose centre
    pixel is at least ``r_px`` from every edge has its whole disk inside the
    image, so its pixels are its flat centre index plus the disk's flat
    offsets ``dv * w + du``. Only particles nearer an edge clip each pixel.

    Only depth and mask are built here. The RGB frame is built on the first
    read of ``obs.rgb`` and then kept: one gather of the (background, cloth)
    color pair by the mask as rendered, a new float64 [H, W, 3] array,
    C-contiguous and writable, that shares no memory with another frame.
    """
    h = camera.intrinsics.height
    w = camera.intrinsics.width
    depth = np.full((h, w), camera.table_depth)
    mask = np.zeros((h, w), dtype=bool)

    # Splat radius: ~3/4 cell spacing so neighboring disks overlap.
    scale_px = camera.intrinsics.fx / camera.height
    r_px = max(1, int(math.ceil(0.75 * mesh.spacing * scale_px)))
    dv, du = _splat_disk(r_px)

    x, y = mesh.positions[mesh.active].T
    z_w = mesh.layers[mesh.active] * LAYER_THICKNESS
    z_c = np.rint((camera.height - z_w) / DEPTH_QUANTUM) * DEPTH_QUANTUM
    u, v = camera.world_to_pixel(x, y, z_w)
    vi = np.rint(v).astype(np.int64)
    ui = np.rint(u).astype(np.int64)
    edge = (vi < r_px) | (vi >= h - r_px) | (ui < r_px) | (ui >= w - r_px)
    flat = ((vi * w + ui)[~edge, None] + (dv * w + du)).ravel()
    z_px = np.repeat(z_c[~edge], dv.size)
    if edge.any():
        rows = vi[edge, None] + dv
        cols = ui[edge, None] + du
        inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        flat = np.concatenate([flat, (rows * w + cols)[inside]])
        z_px = np.concatenate([z_px, np.broadcast_to(z_c[edge, None], rows.shape)[inside]])

    np.minimum.at(depth.reshape(-1), flat, z_px)
    mask.reshape(-1)[flat[z_px <= camera.table_depth]] = True
    mask.flags.writeable = False
    return Observation(None, depth, mask, camera,
                       colors=np.stack([BACKGROUND_RGB, cloth_color(mesh.kind)]))
