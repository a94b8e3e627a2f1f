"""Particle-grid cloth state and the geometric fold operator.

A fold reflects every particle strictly on the pick side of the perpendicular
bisector of the (grasped particle -> place point) segment. Layer counts grow
where reflected particles land on top of unmoved cloth. This replaces cloth
dynamics with an exactly checkable geometric rule.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..geometry import WORKSPACE_HALF

EPS_GRASP = 0.02              # picker attach radius, meters
LAYER_THICKNESS = 0.002       # meters of height per cloth layer
MIN_FOLD_SPAN = 0.01          # grasp-to-place spans below this are no-ops
_ON_LINE_TOL = 1e-12          # particles this close to the fold line stay put
_CELL_WIDTH = 1.001           # fold's landing-grid cells, in landing radii
_NEIGHBOURS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])  # 3x3 cells
_FAR = np.full((1, 2), np.inf)  # where the landing table's padding points


class GraspMissError(RuntimeError):
    """No cloth particle within the grasp radius of the pick point."""


class LandmarkError(KeyError):
    """Landmark name not in this cloth kind's table."""


class FoldError(ValueError):
    """Fold preconditions violated (e.g. place point outside the workspace)."""


def _load_shapes() -> dict:
    text = resources.files("clothfold.assets").joinpath("cloth_shapes.json").read_text()
    return json.loads(text)


_SHAPES = _load_shapes()


def cloth_kinds() -> list[str]:
    return sorted(_SHAPES["kinds"].keys())


def cloth_color(kind: str) -> np.ndarray:
    """Render color in [0,1], exactly representable as uint8/255."""
    rgb = _SHAPES["kinds"][kind]["color"]
    return np.array(rgb, dtype=np.float64) / 255.0


def _resample_mask(rows: list[str], n: int, m: int) -> np.ndarray:
    src = np.array([[ch == "#" for ch in row] for row in rows])
    sr, sc = src.shape
    ri = np.round(np.arange(n) * (sr - 1) / (n - 1)).astype(int)
    ci = np.round(np.arange(m) * (sc - 1) / (m - 1)).astype(int)
    return src[np.ix_(ri, ci)]


def _rescale_index(rc: tuple[int, int], authored: int, n: int, m: int) -> tuple[int, int]:
    r = int(round(rc[0] * (n - 1) / (authored - 1)))
    c = int(round(rc[1] * (m - 1) / (authored - 1)))
    return r, c


def _snap_to_active(active: np.ndarray, r: int, c: int) -> tuple[int, int]:
    if active[r, c]:
        return r, c
    rr, cc = np.nonzero(active)
    d = (rr - r) ** 2 + (cc - c) ** 2
    i = int(np.argmin(d))  # argmin is row-major deterministic on ties
    return int(rr[i]), int(cc[i])


@dataclass
class ClothMesh:
    """Cloth state: particle positions on the table plane plus layer counts."""

    kind: str
    n_rows: int
    n_cols: int
    size_m: float
    active: np.ndarray        # bool [n_rows, n_cols]
    positions: np.ndarray     # float [n_rows, n_cols, 2] (x, y) meters
    layers: np.ndarray        # int   [n_rows, n_cols], >= 1 where active
    landmarks: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def spacing(self) -> float:
        return self.size_m / (max(self.n_rows, self.n_cols) - 1)

    def copy(self) -> "ClothMesh":
        return ClothMesh(self.kind, self.n_rows, self.n_cols, self.size_m,
                         self.active.copy(), self.positions.copy(),
                         self.layers.copy(), dict(self.landmarks))

    def active_positions(self) -> np.ndarray:
        """(K, 2) positions of active particles in row-major grid order."""
        return self.positions[self.active]

    def landmark_names(self) -> list[str]:
        return sorted(self.landmarks.keys())

    def landmark_index(self, name: str) -> tuple[int, int]:
        """Grid (row, col) of a landmark, its name matched case- and space-blind."""
        key = name.strip().lower()
        if key not in self.landmarks:
            raise LandmarkError(f"{name!r} is not a landmark of kind {self.kind!r}; "
                                f"known: {self.landmark_names()}")
        return self.landmarks[key]

    def landmark_point(self, name: str) -> np.ndarray:
        r, c = self.landmark_index(name)
        return self.positions[r, c].copy()


def init_cloth(kind: str, grid_dims: tuple[int, int] = (25, 25), size_m: float = 0.36,
               center: tuple[float, float] = (0.0, 0.0),
               rotation_rad: float = 0.0) -> ClothMesh:
    """Create a flat cloth mesh centered at ``center`` on the table plane.
    The default 25x25 grid and 0.36 m size keep a jittered cloth inside the
    model's centre crop."""
    if kind not in _SHAPES["kinds"]:
        raise ValueError(f"unknown cloth kind {kind!r}; known: {cloth_kinds()}")
    n, m = grid_dims
    if n < 8 or m < 8:
        raise ValueError(f"grid dims must be at least 8x8, got {grid_dims}")
    if not (0 < size_m <= 2 * WORKSPACE_HALF):
        raise ValueError(f"cloth size {size_m} m does not fit the workspace")

    active, pts, layers, landmarks = _rest_cloth(kind, n, m, size_m)
    if rotation_rad != 0.0:
        ca, sa = np.cos(rotation_rad), np.sin(rotation_rad)
        rot = np.array([[ca, -sa], [sa, ca]])
        pts = pts @ rot.T
    else:
        pts = pts.copy()
    pts[..., 0] += center[0]
    pts[..., 1] += center[1]
    if np.abs(pts[active]).max() > WORKSPACE_HALF:
        raise ValueError("cloth placement leaves the workspace")
    return ClothMesh(kind, n, m, size_m, active.copy(), pts, layers.copy(), dict(landmarks))


@functools.cache
def _rest_cloth(kind: str, n: int, m: int, size_m: float):
    """(active, points, layers, landmarks) of an unrotated cloth centred at
    the origin: read-only arrays and a landmark tuple, as every
    ``init_cloth`` of that kind, grid and size starts from them."""
    spec = _SHAPES["kinds"][kind]
    active = _resample_mask(spec["silhouette"], n, m)
    cols = np.arange(m) / (m - 1) - 0.5
    rows = 0.5 - np.arange(n) / (n - 1)
    x = np.broadcast_to(cols[None, :] * size_m, (n, m))
    y = np.broadcast_to(rows[:, None] * size_m, (n, m))
    pts = np.stack([x, y], axis=-1).astype(np.float64)
    layers = np.where(active, 1, 0).astype(np.int64)
    landmarks = {}
    for name, rc in spec["landmarks"].items():
        r, c = _rescale_index(tuple(rc), _SHAPES["authored_grid"], n, m)
        landmarks[name] = _snap_to_active(active, r, c)
    active.flags.writeable = pts.flags.writeable = layers.flags.writeable = False
    return active, pts, layers, tuple(landmarks.items())


def nearest_particle(mesh: ClothMesh, point_w: np.ndarray) -> tuple[int, int, float]:
    """Nearest active particle to a world point: (row, col, distance)."""
    p = np.asarray(point_w, dtype=np.float64)[:2]
    dx = mesh.positions[..., 0] - p[0]
    dy = mesh.positions[..., 1] - p[1]
    d = np.sqrt(dx * dx + dy * dy)      # np.linalg.norm's bits, see fold
    d[~mesh.active] = np.inf
    i = int(np.argmin(d))
    r, c = divmod(i, mesh.n_cols)
    return r, c, float(d[r, c])


def fold(mesh: ClothMesh, pick_w, place_w) -> ClothMesh:
    """Execute one pick-and-place fold; returns a new mesh.

    The picker snaps to the nearest active particle within ``EPS_GRASP`` of
    ``pick_w``; the fold line is the perpendicular bisector of the segment
    from that particle to ``place_w``, so the grasped particle lands exactly
    on the place point. Particles on the line stay on the unmoved side.
    Spans below ``MIN_FOLD_SPAN`` (sub grid resolution) leave the mesh unchanged,
    covering both the degenerate pick == place case and already-satisfied
    steps reached through rounded pixel coordinates.

    Moved particles stack on whatever unmoved cloth they land above: each
    takes the layers of its nearest unmoved particle (the first on ties) if
    that one lies within the landing radius ``0.75 * spacing``. The nearest
    one is found in a table of grid cells a little wider than the radius:
    a cell's column lists the unmoved particles in it, padded with a particle
    at infinity, and each moved particle gathers the 3x3 cells around its
    own in one take. That search is exact. An unmoved particle within the
    radius is less than one cell width away on each axis, rounding included,
    so it lies in one of those nine cells; so do the nearest one and all its
    ties whenever it landed, and a moved particle with none in range lands
    on nothing.
    """
    pick = np.asarray(pick_w, dtype=np.float64)[:2]
    place = np.asarray(place_w, dtype=np.float64)[:2]
    if np.abs(place).max() > WORKSPACE_HALF:
        raise FoldError(f"place point {place} outside the workspace")
    if np.linalg.norm(place - pick) < _ON_LINE_TOL:
        return mesh.copy()  # degenerate fold line: defined as a no-op

    r0, c0, dist = nearest_particle(mesh, pick)
    if dist > EPS_GRASP:
        raise GraspMissError(
            f"no particle within {EPS_GRASP * 100:.1f} cm of pick point {pick} "
            f"(nearest at {dist * 100:.2f} cm)")
    snapped = mesh.positions[r0, c0].copy()
    delta = place - snapped
    span = np.linalg.norm(delta)
    if span < MIN_FOLD_SPAN:
        return mesh.copy()  # grasped particle already at the place point

    out = mesh.copy()
    u = delta / span
    mid = 0.5 * (snapped + place)
    signed = (out.positions - mid[None, None, :]) @ u  # [n, m]
    # Never empty: the grasped particle is active, at signed = -span / 2.
    leaves = out.active & (signed < -_ON_LINE_TOL)
    moved = leaves.reshape(-1).nonzero()[0]             # flat, row-major indices
    still = (out.active ^ leaves).reshape(-1).nonzero()[0]
    flat = out.positions.reshape(-1, 2)
    reflected = flat.take(moved, axis=0) - 2.0 * signed.reshape(-1).take(moved)[:, None] * u
    if np.abs(reflected).max() > WORKSPACE_HALF:
        raise FoldError("fold would carry cloth outside the workspace")
    flat[moved] = reflected

    # The distances are np.linalg.norm's, bit for bit (its size-2 axis
    # reduction is sqrt(dx*dx + dy*dy)). Cells count from the lowest corner
    # of all particles, so truncation floors them, and the table has an
    # empty cell beyond each side, so every moved particle has nine.
    if still.size:
        radius = 0.75 * out.spacing
        x, y = flat.T
        cx = ((x - x.min()) / (_CELL_WIDTH * radius)).astype(np.intp)
        cy = ((y - y.min()) / (_CELL_WIDTH * radius)).astype(np.intp)
        ny = cy.max() + 3
        key = cx * ny + cy + (ny + 1)
        keys = key.take(still)
        order = np.argsort(keys, kind="stable")
        keys = keys.take(order)
        slot = np.arange(len(keys)) - np.searchsorted(keys, keys)    # rank in its cell
        far = len(flat)                                              # index of _FAR
        table = np.full((slot.max() + 1, key.max() + ny + 2), far)
        table[slot, keys] = still.take(order)
        cand = table.take(key.take(moved) + (_NEIGHBOURS @ (ny, 1))[:, None], axis=1)
        cand = cand.reshape(-1, len(moved))                          # [candidates, moved]
        x, y = np.concatenate((flat, _FAR)).T
        d = x.take(cand)
        d -= reflected[:, 0]
        d *= d
        dy = y.take(cand)
        dy -= reflected[:, 1]
        dy *= dy
        d += dy
        np.sqrt(d, out=d)
        nearest = d.min(axis=0)
        first = cand.min(axis=0, where=d == nearest, initial=far)   # the least index of a tie
        lands = nearest <= radius
        out.layers.reshape(-1)[moved[lands]] += mesh.layers.reshape(-1).take(first[lands])
    return out
