"""The vectorized renderer and fold landing against their per-particle loop
oracles: rgb, depth and mask bit for bit, fold positions and layers exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import sim
from clothfold.geometry import CameraIntrinsics
from clothfold.sim.mesh import (EPS_GRASP, LAYER_THICKNESS, MIN_FOLD_SPAN,
                                WORKSPACE_HALF, FoldError, GraspMissError,
                                cloth_color, nearest_particle)
from clothfold.sim.render import (BACKGROUND_RGB, DEPTH_QUANTUM, Observation,
                                  SimCamera)

_ON_LINE_TOL = 1e-12


def loop_render(mesh, camera):
    """Per-particle z-buffer splat: particles in stable layer order, each
    paints its disk where its quantized depth is not behind the buffer."""
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

    return Observation(rgb, depth, mask, camera)


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
