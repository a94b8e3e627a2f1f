"""The vectorized renderer and fold landing against their per-particle loop
oracles: rgb, depth and mask bit for bit, fold positions and layers exactly."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import sim
from clothfold.geometry import CameraIntrinsics
from clothfold.sim.mesh import (_CELL_WIDTH, EPS_GRASP, LAYER_THICKNESS,
                                MIN_FOLD_SPAN, WORKSPACE_HALF, FoldError,
                                GraspMissError, cloth_color, nearest_particle)
from clothfold.sim.render import BACKGROUND_RGB, DEPTH_QUANTUM, SimCamera

_ON_LINE_TOL = 1e-12


def loop_render(mesh, camera):
    """Per-particle z-buffer splat: particles in stable layer order, each
    paints its disk where its quantized depth is not behind the buffer. The
    mask is painted with the RGB, not derived from it."""
    h = camera.intrinsics.height
    w = camera.intrinsics.width
    rgb = np.broadcast_to(BACKGROUND_RGB, (h, w, 3)).copy()
    depth = np.full((h, w), camera.table_depth)
    mask = np.zeros((h, w), dtype=bool)

    if mesh.active.any():
        color = cloth_color(mesh.kind)
        scale_px = camera.intrinsics.fx / camera.height
        r_px = max(1, int(math.ceil(0.75 * mesh.spacing * scale_px)))
        offs = np.arange(-r_px, r_px + 1)
        dv, du = np.meshgrid(offs, offs, indexing="ij")
        disk = (du * du + dv * dv) <= r_px * r_px

        rr, cc = np.nonzero(mesh.active)
        order = np.argsort(mesh.layers[rr, cc], kind="stable")  # top layers last
        for idx in order:
            r, c = rr[idx], cc[idx]
            x, y = mesh.positions[r, c]
            z_w = mesh.layers[r, c] * LAYER_THICKNESS
            z_c = round((camera.height - z_w) / DEPTH_QUANTUM) * DEPTH_QUANTUM
            u, v = camera.world_to_pixel(x, y, z_w)
            ui, vi = int(round(u)), int(round(v))
            u0, u1 = max(0, ui - r_px), min(w, ui + r_px + 1)
            v0, v1 = max(0, vi - r_px), min(h, vi + r_px + 1)
            if u0 >= u1 or v0 >= v1:
                continue
            sub = disk[v0 - (vi - r_px):v1 - (vi - r_px),
                       u0 - (ui - r_px):u1 - (ui - r_px)]
            tile = depth[v0:v1, u0:u1]
            hit = sub & (z_c <= tile)
            tile[hit] = z_c
            rgb[v0:v1, u0:u1][hit] = color
            mask[v0:v1, u0:u1][hit] = True

    return SimpleNamespace(rgb=rgb, depth=depth, cloth_mask=mask)


def loop_fold(mesh, pick_w, place_w, eps_grasp=EPS_GRASP, min_span=MIN_FOLD_SPAN):
    """Reflection fold whose layer landing searches the unmoved particles
    once per moved particle."""
    pick = np.asarray(pick_w, dtype=np.float64)[:2]
    place = np.asarray(place_w, dtype=np.float64)[:2]
    if np.abs(place).max() > WORKSPACE_HALF:
        raise FoldError(f"place point {place} outside the workspace")
    if np.linalg.norm(place - pick) < _ON_LINE_TOL:
        return mesh.copy()

    r0, c0, dist = nearest_particle(mesh, pick)
    if dist > eps_grasp:
        raise GraspMissError(f"nearest particle at {dist * 100:.2f} cm")
    snapped = mesh.positions[r0, c0].copy()
    delta = place - snapped
    span = np.linalg.norm(delta)
    if span < min_span:
        return mesh.copy()

    out = mesh.copy()
    u = delta / span
    mid = 0.5 * (snapped + place)
    signed = (out.positions - mid[None, None, :]) @ u
    moved = out.active & (signed < -_ON_LINE_TOL)
    if not moved.any():
        return out

    reflected = out.positions[moved] - 2.0 * signed[moved][:, None] * u[None, :]
    if np.abs(reflected).max() > WORKSPACE_HALF:
        raise FoldError("fold would carry cloth outside the workspace")
    out.positions[moved] = reflected

    unmoved = out.active & ~moved
    if unmoved.any():
        land_radius = 0.75 * out.spacing
        base_pos = out.positions[unmoved]
        base_layers = mesh.layers[unmoved]
        mr, mc = np.nonzero(moved)
        for r, c in zip(mr, mc):
            d = np.linalg.norm(base_pos - out.positions[r, c][None, :], axis=-1)
            j = int(np.argmin(d))
            if d[j] <= land_radius:
                out.layers[r, c] += int(base_layers[j])
    return out


def assert_same_render(mesh, camera):
    want = loop_render(mesh, camera)
    got = sim.render(mesh, camera)
    for field in ("rgb", "depth", "cloth_mask"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    return got


def assert_same_fold(mesh, pick, place):
    """Fold with both implementations; the same error or the same mesh."""
    try:
        want = loop_fold(mesh, pick, place)
    except (FoldError, GraspMissError) as e:
        with pytest.raises(type(e)):
            sim.fold(mesh, pick, place)
        return None
    got = sim.fold(mesh, pick, place)
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.layers.dtype == want.layers.dtype
    assert np.array_equal(got.layers, want.layers)
    assert np.array_equal(got.active, want.active)
    return got


@st.composite
def folded_meshes(draw):
    """A randomly posed, sized and gridded cloth of any kind and a camera."""
    kind = draw(st.sampled_from(sim.cloth_kinds()))
    dims = (draw(st.integers(8, 30)), draw(st.integers(8, 30)))
    size = draw(st.floats(0.15, 0.5))
    center = (draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)))
    rotation = draw(st.floats(-math.pi, math.pi))
    mesh = sim.init_cloth(kind, dims, size, center, rotation)
    camera = sim.default_camera(draw(st.sampled_from([64, 112, 224])),
                                draw(st.floats(0.8, 1.5)))
    names = mesh.landmark_names()
    folds = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          min_size=1, max_size=3))
    return mesh, camera, folds


class TestVectorizedAgainstLoops:
    @given(folded_meshes())
    @settings(max_examples=40, deadline=None)
    def test_random_landmark_folds(self, case):
        mesh, camera, folds = case
        assert_same_render(mesh, camera)
        for pick_name, place_name in folds:
            out = assert_same_fold(mesh, mesh.landmark_point(pick_name),
                                   mesh.landmark_point(place_name))
            if out is None:
                break
            mesh = out
            assert_same_render(mesh, camera)

    @pytest.mark.parametrize("kind", sim.cloth_kinds())
    def test_benchmark_pose_fold_sequence(self, kind):
        env = sim.jittered_sim(kind, np.random.default_rng(3))
        mesh = env.mesh
        names = mesh.landmark_names()
        for a, b in zip(names, reversed(names)):
            if a == b:
                continue
            out = assert_same_fold(mesh, mesh.landmark_point(a), mesh.landmark_point(b))
            if out is not None:
                mesh = out
                assert_same_render(mesh, env.camera)
        assert mesh.layers.max() >= 2

    def test_splats_clipped_at_the_image_border(self):
        # A narrow field of view: the cloth runs past two image edges.
        camera = SimCamera(CameraIntrinsics(400.0, 400.0, 112.0, 112.0, 224, 224), 1.0)
        mesh = sim.init_cloth("towel", (12, 12), 0.5, center=(0.12, -0.1))
        mesh = sim.fold(mesh, mesh.landmark_point("left edge"),
                        mesh.landmark_point("right edge"))
        obs = assert_same_render(mesh, camera)
        assert obs.cloth_mask[:, -1].any() and obs.cloth_mask[-1, :].any()
        assert not obs.cloth_mask.all()

    def test_half_pixel_centers_round_half_to_even(self):
        camera = sim.default_camera()
        z_w = LAYER_THICKNESS
        half = []                     # x with u exactly halfway between pixels
        for n in range(90, 140):
            x = (n + 0.5 - camera.intrinsics.cx) * (camera.height - z_w) / camera.intrinsics.fx
            if camera.world_to_pixel(x, 0.0, z_w)[0] == n + 0.5:
                half.append(x)
        assert len(half) >= 10
        mesh = sim.init_cloth("towel", (10, 10), 0.4)
        mesh.positions[..., 0] = np.resize(half, 10)[None, :]
        mesh.positions[..., 1] = -np.resize(half, 10)[:, None]
        assert_same_render(mesh, camera)

    def test_no_active_particle(self):
        mesh = sim.init_cloth("t-shirt", (10, 10), 0.4)
        mesh.active[:] = False
        obs = assert_same_render(mesh, sim.default_camera())
        assert not obs.cloth_mask.any()


def dyadic_towel():
    """An 8x8 towel on an exact lattice: spacing 1/32 m, so the landing
    radius 0.75 * spacing and every axis-aligned reflection are exact. Its
    layer counts differ between neighbours, so the particle a landing picks
    shows in the result."""
    mesh = sim.init_cloth("towel", (8, 8), 7 / 32)
    assert mesh.spacing == 1 / 32 and mesh.active.all()
    half = (np.arange(8) - 3.5) * mesh.spacing
    mesh.positions[..., 0] = half[None, :]
    mesh.positions[..., 1] = -half[:, None]
    mesh.layers[:] = 1 + np.arange(64).reshape(8, 8) % 5
    return mesh


class TestFoldLandingCases:
    """Layer landings where an approximate neighbour search would go wrong."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_ties_take_the_first_unmoved_particle(self, axis, k):
        # Folding an edge to a whole multiple of the spacing lands each moved
        # row or column exactly midway between two unmoved ones.
        mesh = dyadic_towel()
        s = mesh.spacing
        edge = mesh.positions[4, 0] if axis == 0 else mesh.positions[0, 4]
        place = np.zeros(2)
        place[axis] = k * s if axis == 0 else -k * s
        place[1 - axis] = edge[1 - axis]
        got = assert_same_fold(mesh, edge, place)
        # The grasped particle is 0.5 * s from the particles at k -/+ 0.5;
        # the one first in row-major order is the one at the lower index.
        j = int(k + 3)
        r, c = ((4, 0), (4, j)) if axis == 0 else ((0, 4), (j, 4))
        assert got.layers[r] == mesh.layers[r] + mesh.layers[c]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_landing_exactly_at_the_radius(self, axis):
        # The grasped edge lands 0.75 * spacing beyond the far edge: exactly at
        # the radius lands, one ulp farther does not.
        mesh = dyadic_towel()
        s = mesh.spacing
        edge = mesh.positions[4, 0] if axis == 0 else mesh.positions[0, 4]
        far = mesh.positions[4, 7] if axis == 0 else mesh.positions[7, 4]
        sign = 1.0 if axis == 0 else -1.0
        r, c = ((4, 0), (4, 7)) if axis == 0 else ((0, 4), (7, 4))
        for one_ulp_farther in (False, True):
            place = far.copy()
            place[axis] += sign * 0.75 * s
            if one_ulp_farther:
                place[axis] = np.nextafter(place[axis], sign)
            got = assert_same_fold(mesh, edge, place)
            dx, dy = got.positions[r] - mesh.positions[c]
            lands = not one_ulp_farther
            assert (np.sqrt(dx * dx + dy * dy) == 0.75 * s) == lands
            assert got.layers[r] == mesh.layers[r] + (mesh.layers[c] if lands else 0)

    @pytest.mark.parametrize("quarter", range(2, 14))
    def test_particles_on_cell_boundaries(self, quarter):
        # A lattice whose pitch is the landing-cell width puts the unmoved
        # particles on cell boundaries, to rounding either way, and the
        # folds land moved ones at every quarter cell around them.
        mesh = sim.init_cloth("towel", (12, 12), 0.3)
        width = _CELL_WIDTH * 0.75 * mesh.spacing
        mesh.positions[..., 0] = np.arange(12)[None, :] * width - 0.15
        mesh.positions[..., 1] = 0.15 - np.arange(12)[:, None] * width
        mesh.layers[:] = 1 + np.arange(144).reshape(12, 12) % 7
        edge = mesh.positions[5, 0]
        place = edge + [quarter * width / 4 + 3 * width, 0.3 * width]
        got = assert_same_fold(mesh, edge, place)
        assert (got.layers > mesh.layers).any()

    def test_four_stacked_folds(self):
        mesh = sim.init_cloth("towel")
        camera = sim.default_camera()
        for pick, place in (("left edge", "right edge"), ("top edge", "bottom edge"),
                            ("bottom-right corner", "center"),
                            ("left edge", "bottom edge")):
            mesh = assert_same_fold(mesh, mesh.landmark_point(pick),
                                    mesh.landmark_point(place))
            assert_same_render(mesh, camera)
        assert mesh.layers.max() == 16

    def test_landing_memory_stays_small(self):
        # The landing compares neighbouring cells, not every moved particle
        # with every unmoved one (two [moved, unmoved] buffers, ~1.7 MB).
        mesh = sim.init_cloth("towel")
        pick, place = mesh.landmark_point("left edge"), mesh.landmark_point("right edge")
        tracemalloc.start()
        try:
            sim.fold(mesh, pick, place)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestRenderAtImageEdges:
    """Splats of particles near an image edge are clipped per pixel, the
    others are not; both kinds in one frame."""

    # 400 px/m: the 224-pixel frame shows 0.56 m, splats are 11 px wide.
    NARROW = SimCamera(CameraIntrinsics(400.0, 400.0, 112.0, 112.0, 224, 224), 1.0)

    @pytest.mark.parametrize("center,edge", [((-0.15, 0.0), "left"),
                                             ((0.15, 0.0), "right"),
                                             ((0.0, 0.15), "top"),
                                             ((0.0, -0.15), "bottom")])
    def test_cloth_across_one_edge(self, center, edge):
        mesh = sim.init_cloth("towel", (12, 12), 0.4, center=center, rotation_rad=0.2)
        mesh = sim.fold(mesh, mesh.landmark_point("bottom-left corner"),
                        mesh.landmark_point("center"))
        mask = assert_same_render(mesh, self.NARROW).cloth_mask
        sides = {"left": mask[:, 0], "right": mask[:, -1],
                 "top": mask[0, :], "bottom": mask[-1, :]}
        assert [name for name, side in sides.items() if side.any()] == [edge]

    @pytest.mark.parametrize("edge", ["left", "right", "top", "bottom"])
    def test_centres_at_every_distance_from_an_edge(self, edge):
        # One row of particles, from one pixel outside the frame to two splat
        # radii in, spread along one edge; the rest of the frame stays empty,
        # so a splat that wrapped round a row or the frame would show.
        camera = sim.default_camera(64)
        mesh = sim.init_cloth("towel", (8, 8), 0.3)
        mesh.active[1:] = False
        r_px = math.ceil(0.75 * mesh.spacing * camera.intrinsics.fx / camera.height)
        inward = np.arange(-1, 2 * r_px + 1)
        assert len(inward) == 8
        across = 4 + 8 * np.arange(8)
        u, v = {"left": (inward, across), "right": (63 - inward, across),
                "top": (across, inward), "bottom": (across, 63 - inward)}[edge]
        z_c = camera.height - LAYER_THICKNESS
        mesh.positions[0, :, 0] = (u - camera.intrinsics.cx) * z_c / camera.intrinsics.fx
        mesh.positions[0, :, 1] = (camera.intrinsics.cy - v) * z_c / camera.intrinsics.fy
        assert_same_render(mesh, camera)
