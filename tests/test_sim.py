"""Cloth mesh construction, reflection folds vs the brute-force oracle,
rendering, landmarks, and the scripted expert."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import sim
from clothfold.geometry import CameraIntrinsics
from clothfold.planner import validate_subtask
from clothfold.sim.mesh import LAYER_THICKNESS, MIN_FOLD_SPAN, nearest_particle
from clothfold.sim.render import BACKGROUND_RGB, SimCamera


def reflect_oracle(mesh, pick_w, place_w, min_span=MIN_FOLD_SPAN):
    """Independent per-particle reflection: snap pick to the nearest active
    particle, reflect strict pick-side particles across the bisector."""
    pick = np.asarray(pick_w, float)
    place = np.asarray(place_w, float)
    best, best_d = None, np.inf
    for r in range(mesh.n_rows):
        for c in range(mesh.n_cols):
            if not mesh.active[r, c]:
                continue
            d = float(np.hypot(*(mesh.positions[r, c] - pick)))
            if d < best_d:
                best, best_d = (r, c), d
    snapped = mesh.positions[best]
    if np.linalg.norm(place - snapped) < min_span:
        return mesh.positions.copy()
    u = (place - snapped) / np.linalg.norm(place - snapped)
    mid = 0.5 * (snapped + place)
    out = mesh.positions.copy()
    for r in range(mesh.n_rows):
        for c in range(mesh.n_cols):
            if not mesh.active[r, c]:
                continue
            s = float((mesh.positions[r, c] - mid) @ u)
            if s < -1e-12:
                out[r, c] = mesh.positions[r, c] - 2 * s * u
    return out


class TestInitCloth:
    def test_square_towel_corners(self):
        m = sim.init_cloth("towel", (25, 25), 0.5)
        np.testing.assert_allclose(m.landmark_point("top-left corner"), [-0.25, 0.25])
        np.testing.assert_allclose(m.landmark_point("bottom-right corner"),
                                   [0.25, -0.25])

    def test_tshirt_has_sleeve_landmarks(self):
        m = sim.init_cloth("t-shirt")
        names = m.landmark_names()
        assert "left sleeve" in names and "right sleeve" in names

    def test_active_count_matches_silhouette(self):
        for kind in sim.cloth_kinds():
            m = sim.init_cloth(kind, (25, 25), 0.4)
            assert len(m.active_positions()) == int(m.active.sum()) > 0
            assert (m.layers[m.active] == 1).all()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sim.init_cloth("cape")

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            sim.init_cloth("towel", (4, 4))

    def test_landmarks_on_active_cells(self):
        for kind in sim.cloth_kinds():
            for dims in ((25, 25), (10, 10), (17, 17)):
                m = sim.init_cloth(kind, dims, 0.4)
                for name in m.landmark_names():
                    r, c = m.landmarks[name]
                    assert m.active[r, c], (kind, dims, name)


def norm_nearest(mesh, point_w):
    """Nearest active particle by np.linalg.norm over the whole grid."""
    p = np.asarray(point_w, dtype=np.float64)[:2]
    d = np.linalg.norm(mesh.positions - p[None, None, :], axis=-1)
    d = np.where(mesh.active, d, np.inf)
    r, c = divmod(int(np.argmin(d)), mesh.n_cols)
    return r, c, float(d[r, c])


@st.composite
def meshes_and_queries(draw):
    """A posed cloth after up to two landmark folds, some particles switched
    off, and a query at a particle, at the midpoint of two, or anywhere."""
    kind = draw(st.sampled_from(sim.cloth_kinds()))
    mesh = sim.init_cloth(kind, (draw(st.integers(8, 20)), draw(st.integers(8, 20))),
                          draw(st.floats(0.15, 0.5)),
                          (draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))),
                          draw(st.floats(-np.pi, np.pi)))
    names = mesh.landmark_names()
    for _ in range(draw(st.integers(0, 2))):
        try:
            mesh = sim.fold(mesh, mesh.landmark_point(draw(st.sampled_from(names))),
                            mesh.landmark_point(draw(st.sampled_from(names))))
        except (sim.FoldError, sim.GraspMissError):
            break
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh.active &= rng.random(mesh.active.shape) >= draw(st.sampled_from([0.0, 0.3, 0.9]))
    cells = mesh.positions.reshape(-1, 2)
    where = draw(st.sampled_from(["particle", "midpoint", "anywhere"]))
    a, b = rng.integers(len(cells), size=2)
    if where == "particle":
        point = cells[a].copy()
    elif where == "midpoint":
        point = 0.5 * (cells[a] + cells[b])
    else:
        point = rng.uniform(-0.5, 0.5, size=2)
    return mesh, point


class TestNearestParticle:
    @given(meshes_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_matches_norm_reference(self, case):
        mesh, point = case
        r, c, d = nearest_particle(mesh, point)
        wr, wc, wd = norm_nearest(mesh, point)
        assert (r, c) == (wr, wc)
        assert np.float64(d).tobytes() == np.float64(wd).tobytes()
        if mesh.active.any():
            assert mesh.active[r, c]

    def test_ties_resolve_to_the_first_particle(self):
        m = sim.init_cloth("towel", (10, 10), 0.4)
        point = 0.5 * (m.positions[4, 4] + m.positions[4, 5])
        assert nearest_particle(m, point)[:2] == norm_nearest(m, point)[:2] == (4, 4)

    def test_inactive_particle_never_chosen(self):
        m = sim.init_cloth("towel", (10, 10), 0.4)
        m.active[3, 3] = False
        r, c, d = nearest_particle(m, m.positions[3, 3])
        assert (r, c) != (3, 3) and m.active[r, c] and d > 0

    def test_no_active_particle_is_infinitely_far(self):
        m = sim.init_cloth("t-shirt", (10, 10), 0.4)
        m.active[:] = False
        assert nearest_particle(m, (0.0, 0.0))[2] == np.inf


class TestFold:
    def test_pick_equals_place_noop(self):
        m = sim.init_cloth("towel", (10, 10), 0.5)
        m2 = sim.fold(m, (0.1, 0.1), (0.1, 0.1))
        np.testing.assert_array_equal(m2.positions, m.positions)
        np.testing.assert_array_equal(m2.layers, m.layers)

    def test_diagonal_fold_matches_oracle(self):
        m = sim.init_cloth("towel", (25, 25), 0.5)
        folded = sim.fold(m, (-0.25, -0.25), (0.25, 0.25))
        expected = reflect_oracle(m, (-0.25, -0.25), (0.25, 0.25))
        assert np.abs(folded.positions - expected).max() < 1e-12

    def test_random_folds_match_oracle(self):
        # acceptance criterion: 10 random pick/place pairs on a 10x10 grid
        rng = np.random.default_rng(2024)
        m0 = sim.init_cloth("towel", (10, 10), 0.5)
        for _ in range(10):
            pts = m0.active_positions()
            pick = pts[rng.integers(len(pts))] + rng.uniform(-0.015, 0.015, 2)
            place = rng.uniform(-0.15, 0.15, 2)
            folded = sim.fold(m0, pick, place)
            expected = reflect_oracle(m0, pick, place)
            assert np.abs(folded.positions - expected).max() < 1e-12

    def test_two_half_folds_quarter_bbox(self):
        m = sim.init_cloth("towel", (25, 25), 0.5)
        m = sim.fold(m, m.landmark_point("left edge"), m.landmark_point("right edge"))
        m = sim.fold(m, m.landmark_point("top edge"), m.landmark_point("bottom edge"))
        pos = m.active_positions()
        assert pos[:, 0].min() >= -1e-9 and pos[:, 0].max() <= 0.25 + 1e-9
        assert pos[:, 1].min() >= -0.25 - 1e-9 and pos[:, 1].max() <= 1e-9

    def test_grasp_miss_raises(self):
        m = sim.init_cloth("towel", (10, 10), 0.4)
        with pytest.raises(sim.GraspMissError):
            sim.fold(m, (0.45, 0.45), (0.0, 0.0))

    def test_active_count_invariant(self):
        rng = np.random.default_rng(7)
        m = sim.init_cloth("trousers")
        n0 = int(m.active.sum())
        for _ in range(4):
            pts = m.active_positions()
            pick = pts[rng.integers(len(pts))]
            place = rng.uniform(-0.2, 0.2, 2)
            try:
                m = sim.fold(m, pick, place)
            except sim.GraspMissError:
                continue
            assert int(m.active.sum()) == n0

    def test_fold_isometry_on_moved_subset(self):
        m = sim.init_cloth("towel", (12, 12), 0.4)
        pick = m.landmark_point("left edge")
        place = m.landmark_point("right edge")
        folded = sim.fold(m, pick, place)
        moved = np.abs(folded.positions - m.positions).max(axis=-1) > 1e-12
        before = m.positions[moved]
        after = folded.positions[moved]
        d_before = np.linalg.norm(before[:, None] - before[None, :], axis=-1)
        d_after = np.linalg.norm(after[:, None] - after[None, :], axis=-1)
        assert np.abs(d_before - d_after).max() < 1e-12

    def test_reflection_involution_on_moved_subset(self):
        # Folding back along the reverse segment returns every particle the
        # first fold moved to its original position (other particles on that
        # side travel too; layers are not restored).
        m = sim.init_cloth("towel", (15, 15), 0.4)
        pick = m.landmark_point("left edge")
        place = m.landmark_point("right edge")
        folded = sim.fold(m, pick, place)
        moved = np.abs(folded.positions - m.positions).max(axis=-1) > 1e-12
        assert moved.any()
        restored = sim.fold(folded, place, pick)
        assert np.abs(restored.positions[moved] - m.positions[moved]).max() < 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_fold_never_duplicates_or_loses_particles(self, seed):
        rng = np.random.default_rng(seed)
        m = sim.init_cloth("towel", (10, 10), 0.4)
        pts = m.active_positions()
        pick = pts[rng.integers(len(pts))]
        place = rng.uniform(-0.2, 0.2, 2)
        try:
            folded = sim.fold(m, pick, place)
        except sim.FoldError:
            return  # place near the edge can push cloth out of the workspace
        assert int(folded.active.sum()) == int(m.active.sum())
        assert (folded.layers[folded.active] >= 1).all()

    def test_layers_stack_on_half_fold(self):
        m = sim.init_cloth("towel", (25, 25), 0.5)
        folded = sim.fold(m, m.landmark_point("left edge"),
                          m.landmark_point("right edge"))
        assert folded.layers.max() == 2

    def test_sub_resolution_span_is_noop(self):
        m = sim.init_cloth("towel", (10, 10), 0.5)
        p = m.positions[5, 5]
        m2 = sim.fold(m, p, p + np.array([MIN_FOLD_SPAN / 2, 0.0]))
        np.testing.assert_array_equal(m2.positions, m.positions)


class TestLandmarks:
    def test_fresh_towel_topleft(self):
        m = sim.init_cloth("towel", (25, 25), 0.5)
        np.testing.assert_allclose(m.landmark_point("top-left corner"),
                                   [-0.25, 0.25])

    def test_trousers_left_waist_defined(self):
        m = sim.init_cloth("trousers")
        assert m.landmark_point("left waist") is not None

    def test_landmark_name_is_case_and_space_blind(self):
        m = sim.init_cloth("trousers")
        assert m.landmark_index("  Left Waist ") == m.landmark_index("left waist")

    def test_towel_has_no_sleeve(self):
        m = sim.init_cloth("towel")
        with pytest.raises(sim.LandmarkError):
            m.landmark_point("left sleeve")

    def test_landmark_tracks_folds(self):
        m = sim.init_cloth("towel", (25, 25), 0.5)
        before = m.landmark_point("left edge")
        folded = sim.fold(m, before, m.landmark_point("right edge"))
        after = folded.landmark_point("left edge")
        np.testing.assert_allclose(after, m.landmark_point("right edge"), atol=1e-12)


class TestRender:
    def test_empty_mesh_pure_background(self):
        m = sim.init_cloth("towel", (10, 10), 0.4)
        m.active[:] = False
        obs = sim.render(m, sim.default_camera())
        assert not obs.cloth_mask.any()
        assert (obs.rgb == 0).all()
        assert (obs.depth == obs.camera.table_depth).all()

    def test_flat_mesh_uniform_depth(self):
        m = sim.init_cloth("towel")
        obs = sim.render(m, sim.default_camera())
        cam = obs.camera
        cloth_depths = np.unique(obs.depth[obs.cloth_mask])
        assert cloth_depths.size == 1
        assert cloth_depths[0] == pytest.approx(cam.table_depth - LAYER_THICKNESS)

    def test_half_fold_depth_two_layers(self):
        m = sim.init_cloth("towel")
        folded = sim.fold(m, m.landmark_point("left edge"),
                          m.landmark_point("right edge"))
        assert folded.layers.max() == 2
        obs = sim.render(folded, sim.default_camera())
        assert obs.depth[obs.cloth_mask].min() == pytest.approx(
            obs.camera.table_depth - 2 * LAYER_THICKNESS)

    def test_render_pure_function(self):
        m = sim.init_cloth("trousers")
        cam = sim.default_camera()
        a = sim.render(m, cam)
        b = sim.render(m, cam)
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.cloth_mask, b.cloth_mask)

    def test_rgb_is_a_fresh_writable_float_frame(self):
        # segment_workspace and the PNG writer take the frame as a float64
        # [H, W, 3] array that the caller owns.
        m = sim.init_cloth("t-shirt")
        m = sim.fold(m, m.landmark_point("left sleeve"), m.landmark_point("right sleeve"))
        cam = SimCamera(CameraIntrinsics(160.0, 160.0, 80.0, 48.0, 160, 96))
        a = sim.render(m, cam)
        b = sim.render(m, cam)
        for obs in (a, b):
            assert obs.rgb.dtype == np.float64 and obs.rgb.shape == (96, 160, 3)
            assert obs.rgb.flags.c_contiguous and obs.rgb.flags.writeable
        assert not np.shares_memory(a.rgb, b.rgb)
        want = b.rgb.tobytes()
        a.rgb[...] = 0.5
        assert b.rgb.tobytes() == want
        assert sim.render(m, cam).rgb.tobytes() == want
        assert (BACKGROUND_RGB == 0).all()

    def test_depth_positive(self):
        obs = sim.render(sim.init_cloth("t-shirt"), sim.default_camera())
        assert (obs.depth > 0).all()


class TestSimCamera:
    @pytest.mark.parametrize("height", [-1.0, 0.0, math.nan, math.inf])
    def test_mount_height_must_be_finite_and_positive(self, height):
        with pytest.raises(ValueError, match="^mount height must be finite and positive"):
            sim.default_camera(224, height)


class TestScriptedExpert:
    def test_trousers_waist_to_waist(self):
        cam = sim.default_camera()
        m = sim.init_cloth("trousers")
        st_ = validate_subtask(
            "Grasp the left waist of the Trousers and place it to the right waist")
        act = sim.scripted_expert(m, st_, cam)
        lw = m.landmark_point("left waist")
        rw = m.landmark_point("right waist")
        u, v = cam.world_to_pixel(lw[0], lw[1], LAYER_THICKNESS)
        assert act.pick_pixel == (int(round(v)), int(round(u)))
        u, v = cam.world_to_pixel(rw[0], rw[1], LAYER_THICKNESS)
        assert act.place_pixel == (int(round(v)), int(round(u)))

    def test_corner_to_center_place(self):
        cam = sim.default_camera()
        m = sim.init_cloth("towel")
        st_ = validate_subtask(
            "Grasp the top-left corner of the Towel and place it to the center")
        act = sim.scripted_expert(m, st_, cam)
        c = m.landmark_point("center")
        u, v = cam.world_to_pixel(c[0], c[1], LAYER_THICKNESS)
        assert act.place_pixel == (int(round(v)), int(round(u)))

    def test_pick_tracks_prior_fold(self):
        cam = sim.default_camera()
        m = sim.init_cloth("towel")
        st_ = validate_subtask(
            "Grasp the top-left corner of the Towel and place it to the center")
        before = sim.scripted_expert(m, st_, cam)
        folded = sim.fold(m, m.landmark_point("top-left corner"),
                          m.landmark_point("bottom-right corner"))
        after = sim.scripted_expert(folded, st_, cam)
        assert before.pick_pixel != after.pick_pixel
        np.testing.assert_allclose(after.pick_world,
                                   folded.landmark_point("top-left corner"))

    def test_unresolvable_on_wrong_kind(self):
        cam = sim.default_camera()
        m = sim.init_cloth("towel")
        st_ = validate_subtask(
            "Grasp the left waist of the Trousers and place it to the right waist")
        with pytest.raises(sim.ExpertError):
            sim.scripted_expert(m, st_, cam)
