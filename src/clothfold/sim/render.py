"""Top-down RGB-D rendering of cloth meshes through a fixed pinhole camera."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..geometry import CameraIntrinsics, RigidTransform
from ..images import DEPTH_UNIT
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


class Splats(NamedTuple):
    """What ``render`` takes from the mesh: one disk per active particle."""

    vi: np.ndarray         # centre rows, int64
    ui: np.ndarray         # centre columns, int64
    z_c: np.ndarray        # depths, quantized to DEPTH_QUANTUM
    r_px: int              # disk radius in pixels
    colors: np.ndarray     # [2, 3] (background, cloth)


class Observation:
    """RGB-D image: rgb in [0,1] (quantized to the uint8 grid), depth in
    meters, and the cloth mask, built on first read and kept, read-only.

    ``Observation(rgb, depth, camera)`` holds the frame it is given: floats, or
    the files' uint8 levels and uint16 depth counts, which each read of ``rgb``
    or ``depth`` scales to a new float64 frame, kept by nobody. Its mask is
    ``cloth_mask_from_rgb(rgb)``. ``render`` gives it only ``splats``: the mask,
    depth and RGB frame are then each built from them on first read; depth and
    RGB are fresh, writable float64 arrays. ``depth_at`` builds nothing, and
    ``crop`` scales only its window of a stored frame.
    """

    def __init__(self, rgb: np.ndarray | None, depth: np.ndarray | None,
                 camera: SimCamera, splats: Splats | None = None):
        self._rgb, self._depth, self._mask = rgb, depth, None  # None until built
        self.camera = camera
        self._shape = camera.intrinsics.height, camera.intrinsics.width  # a rendered frame's
        self._splats = splats
        self._index = None       # the splat index, between the mask's build and the depth's

    @property
    def cloth_mask(self) -> np.ndarray:
        """[H, W] bool: cloth-coloured pixels, or those a splat covers not behind the table."""
        if self._mask is None:
            if self._splats is None:
                self._mask = cloth_mask_from_rgb(self.rgb)
            else:
                flat, z_px = self._take_index()
                self._mask = np.zeros(self._shape, dtype=bool)
                self._mask.reshape(-1)[flat[z_px <= self.camera.table_depth]] = True
            self._mask.flags.writeable = False
        return self._mask

    @property
    def depth(self) -> np.ndarray:
        """[H, W]: the least depth of the splats covering a pixel, else the table's."""
        if self._depth is None:
            flat, z_px = self._take_index()
            self._depth = depth = np.full(self._shape, self.camera.table_depth)
            np.minimum.at(depth.reshape(-1), flat, z_px)
        return _as_float(self._depth)

    @property
    def rgb(self) -> np.ndarray:
        """[H, W, 3]: the (background, cloth) color pair gathered by the mask."""
        if self._rgb is None:
            self._rgb = self._splats.colors.take(self.cloth_mask.view(np.uint8), axis=0)
        return _as_float(self._rgb)

    def crop(self, window: tuple[slice, slice]) -> tuple[np.ndarray, np.ndarray]:
        """``(self.rgb[window], self.depth[window])``. Of stored levels and
        counts only the window is scaled, to the same bits, as scaling is
        elementwise; a rendered frame is built whole, as on any read."""
        if self._splats is not None:
            return self.rgb[window], self.depth[window]
        return _as_float(self._rgb[window]), _as_float(self._depth[window])

    def depth_at(self, row: int, col: int) -> float:
        """``float(self.depth[row, col])``. Before the depth is built, the same
        rule at one pixel: the least ``z_c`` of the splats with
        ``(row - vi)**2 + (col - ui)**2 <= r_px**2``, else the table depth."""
        if self._depth is not None:
            return float(_as_float(self._depth[row, col]))
        h, w = self._shape
        if not (-h <= row < h and -w <= col < w):
            raise IndexError(f"pixel ({row}, {col}) is outside the {h}x{w} frame")
        s = self._splats
        dv, du = row % h - s.vi, col % w - s.ui
        covering = s.z_c[dv * dv + du * du <= s.r_px * s.r_px]
        return float(covering.min(initial=self.camera.table_depth))

    def _take_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat index and depth of every in-image pixel of every splat's disk,
        built for the first of mask and depth, handed to the second, dropped.
        ``np.minimum.at`` over it is exactly a per-particle z-buffer in any
        order, as all particles share one color. A particle whose centre is at
        least ``r_px`` from every edge has its whole disk inside the image: its
        pixels are its flat centre plus the disk's flat offsets ``dv * w + du``.
        Only particles nearer an edge clip each pixel."""
        if self._index is not None:
            index, self._index = self._index, None
            return index
        (h, w), (vi, ui, z_c, r_px, _) = self._shape, self._splats
        dv, du = _splat_disk(r_px)
        edge = (vi < r_px) | (vi >= h - r_px) | (ui < r_px) | (ui >= w - r_px)
        flat = ((vi * w + ui)[~edge, None] + (dv * w + du)).ravel()
        z_px = np.repeat(z_c[~edge], dv.size)
        if edge.any():
            rows = vi[edge, None] + dv
            cols = ui[edge, None] + du
            inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
            flat = np.concatenate([flat, (rows * w + cols)[inside]])
            z_px = np.concatenate([z_px, np.broadcast_to(z_c[edge, None], rows.shape)[inside]])
        self._index = flat, z_px
        return self._index


def _as_float(stored):
    """Stored uint8 levels or uint16 depth counts (an array or one pixel's)
    scaled afresh to float64, as the image files define them; floats as is."""
    if stored.dtype == np.uint8:
        return stored / 255.0
    if stored.dtype == np.uint16:
        return stored * DEPTH_UNIT
    return stored


@functools.cache
def _splat_disk(r_px: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (dv, du) offsets of the pixels within ``r_px`` of a splat's
    centre; read-only, as every render of that radius shares them."""
    offs = np.arange(-r_px, r_px + 1)
    dv, du = np.meshgrid(offs, offs, indexing="ij")
    disk = (du * du + dv * dv) <= r_px * r_px
    dv, du = dv[disk], du[disk]
    dv.flags.writeable = du.flags.writeable = False
    return dv, du


def render(mesh: ClothMesh, camera: SimCamera) -> Observation:
    """Top-down RGB-D frame: each active particle splats a disk (radius ~3/4
    cell spacing, so neighbors overlap) at its projected pixel; the z-buffer
    keeps the top layer. Depth = mount height - layers * thickness, quantized
    (``np.rint`` rounds half to even like ``round``). Only this projection
    runs now, into new arrays, so the frame shows the mesh as it is at this
    call; the Observation rasterizes on read."""
    scale_px = camera.intrinsics.fx / camera.height
    r_px = max(1, int(math.ceil(0.75 * mesh.spacing * scale_px)))
    x, y = mesh.positions[mesh.active].T
    z_w = mesh.layers[mesh.active] * LAYER_THICKNESS
    z_c = np.rint((camera.height - z_w) / DEPTH_QUANTUM) * DEPTH_QUANTUM
    u, v = camera.world_to_pixel(x, y, z_w)
    splats = Splats(np.rint(v).astype(np.int64), np.rint(u).astype(np.int64), z_c, r_px,
                    np.stack([BACKGROUND_RGB, cloth_color(mesh.kind)]))
    return Observation(None, None, camera, splats=splats)
