"""The frame that ``render`` rasterizes on read: mask, depth and RGB built in
any order are byte-equal to the eager renderer they replaced, ``depth_at``
equals the eager depth at any pixel, and a scripted-expert episode builds
only the two masks its score reads. A frame given as arrays derives its mask
from its RGB, the same bytes as a rendered frame's splat mask, and builds it
once, when first read."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import evaluation, sim
from clothfold.geometry import CameraIntrinsics
from clothfold.images import DEPTH_UNIT
from clothfold.perception import segment_workspace
from clothfold.sim import env as sim_env
from clothfold.sim.mesh import LAYER_THICKNESS, cloth_color
from clothfold.sim.render import (BACKGROUND_RGB, Observation, SimCamera,
                                  Splats, cloth_mask_from_rgb, default_camera)
from clothfold.trainer import generate_dataset, load_dataset

# The module; ``clothfold.sim.render`` as an attribute is the function.
render_module = importlib.import_module("clothfold.sim.render")


def eager_render(mesh, camera):
    """The renderer before rasterizing on read: the disks of all particles
    go into the depth buffer in one ``np.minimum.at``, and the mask, depth
    and RGB frame are built at once. Returns them with the splat centres
    (rows, columns) and radius."""
    h = camera.intrinsics.height
    w = camera.intrinsics.width
    depth = np.full((h, w), camera.table_depth)
    mask = np.zeros((h, w), dtype=bool)
    r_px = max(1, int(math.ceil(0.75 * mesh.spacing * camera.intrinsics.fx / camera.height)))
    offs = np.arange(-r_px, r_px + 1)
    dv, du = np.meshgrid(offs, offs, indexing="ij")
    disk = (du * du + dv * dv) <= r_px * r_px
    dv, du = dv[disk], du[disk]

    x, y = mesh.positions[mesh.active].T
    z_w = mesh.layers[mesh.active] * LAYER_THICKNESS
    z_c = np.rint((camera.height - z_w) / DEPTH_UNIT) * DEPTH_UNIT
    u, v = camera.world_to_pixel(x, y, z_w)
    vi = np.rint(v).astype(np.int64)
    ui = np.rint(u).astype(np.int64)
    rows = vi[:, None] + dv
    cols = ui[:, None] + du
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    flat = (rows * w + cols)[inside]
    z_px = np.broadcast_to(z_c[:, None], rows.shape)[inside]
    np.minimum.at(depth.reshape(-1), flat, z_px)
    mask.reshape(-1)[flat[z_px <= camera.table_depth]] = True
    rgb = np.where(mask[..., None], cloth_color(mesh.kind), BACKGROUND_RGB)
    return rgb, depth, mask, (vi, ui, r_px)


def probe_pixels(h, w, centres):
    """In-image pixels where ``depth_at`` could go wrong: splat centres, the
    pixels on and just beyond each disk's rim, the image's corners and edge
    midpoints, and a band of pixels that is mostly bare table."""
    vi, ui, r = centres
    steps = [(0, 0), (r, 0), (-r, 0), (0, r), (0, -r), (r + 1, 0), (0, -r - 1),
             (r - 1, r - 1), (1 - r, r - 1)]
    pixels = {(int(a + dr), int(b + dc)) for a, b in zip(vi, ui) for dr, dc in steps}
    pixels |= {(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (0, w // 2), (h // 2, 0),
               (h - 1, w // 2), (h // 2, w - 1)}
    pixels |= {(1, c) for c in range(0, w, 7)}
    return sorted((a, b) for a, b in pixels if 0 <= a < h and 0 <= b < w)


@st.composite
def rendered_cases(draw):
    """A jittered cloth of any kind after random landmark folds, seen by a
    non-square camera."""
    kind = draw(st.sampled_from(sim.cloth_kinds()))
    width, height = draw(st.integers(40, 240)), draw(st.integers(40, 240))
    f = draw(st.floats(0.6, 1.4)) * max(width, height)
    camera = SimCamera(CameraIntrinsics(f, f, width / 2, height / 2, width, height),
                       draw(st.floats(0.8, 1.5)))
    mesh = sim.jittered_sim(kind, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                            camera).mesh
    names = mesh.landmark_names()
    for _ in range(draw(st.integers(0, 3))):
        try:
            mesh = sim.fold(mesh, mesh.landmark_point(draw(st.sampled_from(names))),
                            mesh.landmark_point(draw(st.sampled_from(names))))
        except (sim.FoldError, sim.GraspMissError):
            break
    return mesh, camera


READ_ORDERS = {
    "mask first": ("cloth_mask", "depth", "rgb", "depth_at"),
    "depth first": ("depth", "cloth_mask", "depth_at", "rgb"),
    "depth_at first": ("depth_at", "rgb", "depth", "cloth_mask"),
}


class TestLazyFrame:
    @given(rendered_cases())
    @settings(max_examples=40, deadline=None)
    def test_every_read_order_matches_the_eager_oracle(self, case):
        mesh, camera = case
        rgb, depth, mask, centres = eager_render(mesh, camera)
        pixels = probe_pixels(*depth.shape, centres)
        want = {"rgb": rgb, "depth": depth, "cloth_mask": mask}
        for order in READ_ORDERS.values():
            obs = sim.render(mesh, camera)
            for read in order:
                if read == "depth_at":
                    got = [obs.depth_at(r, c) for r, c in pixels]
                    assert got == [float(depth[r, c]) for r, c in pixels]
                    continue
                a = getattr(obs, read)
                assert a.dtype == want[read].dtype and a.shape == want[read].shape, read
                assert a.tobytes() == want[read].tobytes(), read
                assert getattr(obs, read) is a, read
            assert not obs.cloth_mask.flags.writeable
            assert obs.depth.flags.writeable and obs.rgb.flags.writeable
            # Mask and depth each build their pixels; no splat index is kept.
            assert set(vars(obs)) == {"_rgb", "_depth", "_mask", "camera", "_shape", "_splats"}

    @given(rendered_cases())
    @settings(max_examples=20, deadline=None)
    def test_frames_are_fresh_and_show_the_mesh_as_rendered(self, case):
        mesh, camera = case
        rgb, depth, _, _ = eager_render(mesh, camera)
        a = sim.render(mesh, camera)
        b = sim.render(mesh, camera)
        mesh.positions += 0.01               # after render: no frame sees it
        mesh.layers += 1
        a.rgb[...] = 0.5                     # before b's frames exist
        a.depth[...] = 0.5
        assert b.rgb.tobytes() == rgb.tobytes()
        assert b.depth.tobytes() == depth.tobytes()
        assert not np.shares_memory(a.depth, b.depth)

    def test_depth_at_raises_outside_the_frame_and_wraps_like_indexing(self):
        obs = sim.render(sim.init_cloth("towel"), sim.default_camera())
        _, depth, _, _ = eager_render(sim.init_cloth("towel"), sim.default_camera())
        for pixel in [(224, 0), (0, 224), (-225, 0), (0, -225)]:
            with pytest.raises(IndexError):
                obs.depth_at(*pixel)
        assert obs.depth_at(-112, -112) == float(depth[-112, -112])

    def test_rendered_mask_is_read_only(self):
        obs = sim.render(sim.init_cloth("towel"), sim.default_camera())
        with pytest.raises(ValueError):
            obs.cloth_mask[0, 0] = True

    def test_given_frame_is_held_as_is(self):
        obs = sim.render(sim.init_cloth("trousers"), sim.default_camera())
        rgb, depth = obs.rgb.copy(), obs.depth.copy()
        held = Observation(rgb, depth, obs.camera)
        assert held.rgb is rgb and held.depth is depth
        depth[100, 100] = 0.125
        assert held.depth_at(100, 100) == 0.125
        assert held.cloth_mask is held.cloth_mask and not held.cloth_mask.flags.writeable


@st.composite
def hand_built_splats(draw):
    """Splats on a small non-square frame: centres anywhere from a radius
    beyond each edge to a radius inside it, so disks straddle every edge, and
    depths on both sides of the table's, so some splats lie behind it."""
    h, w = draw(st.integers(6, 40)), draw(st.integers(6, 40))
    r_px = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    rows = st.integers(-r_px - 1, h + r_px)
    cols = st.integers(-r_px - 1, w + r_px)
    vi = np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.int64)
    ui = np.array(draw(st.lists(cols, min_size=n, max_size=n)), dtype=np.int64)
    camera = SimCamera(CameraIntrinsics(float(w), float(w), w / 2, h / 2, w, h), 1.0)
    steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    z_c = camera.table_depth + np.array(steps) * DEPTH_UNIT
    colors = np.stack([BACKGROUND_RGB, cloth_color("towel")])
    return camera, Splats(vi, ui, z_c, r_px, colors)


def per_pixel_frame(camera, s):
    """The frame rule pixel by pixel: the splats covering a pixel are those
    within ``r_px`` of it; its depth is the least of their ``z_c`` and the
    table's, and it is cloth if one of them is not behind the table."""
    h, w = camera.intrinsics.height, camera.intrinsics.width
    depth = np.full((h, w), camera.table_depth)
    mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            z = s.z_c[(r - s.vi) ** 2 + (c - s.ui) ** 2 <= s.r_px ** 2]
            depth[r, c] = z.min(initial=camera.table_depth)
            mask[r, c] = bool((z <= camera.table_depth).any())
    return mask, depth


class TestHandBuiltSplats:
    @given(hand_built_splats())
    @settings(max_examples=60, deadline=None)
    def test_mask_and_depth_follow_the_per_pixel_rule(self, case):
        camera, splats = case
        mask, depth = per_pixel_frame(camera, splats)
        for order in (("cloth_mask", "depth"), ("depth", "cloth_mask")):
            obs = Observation(None, None, camera, splats=splats)
            got = {read: getattr(obs, read) for read in order}
            assert got["cloth_mask"].tobytes() == mask.tobytes()
            assert got["depth"].tobytes() == depth.tobytes()

    def test_every_edge_and_the_table_are_covered(self):
        """The cases above reach what they are meant to: a splat behind the
        table, and one straddling each edge of the frame."""
        camera = default_camera(20)
        vi = np.array([10, -1, 20, 10, 10], dtype=np.int64)
        ui = np.array([10, 10, 10, -2, 21], dtype=np.int64)
        z_c = camera.table_depth + np.array([1, -1, -2, 0, -1]) * DEPTH_UNIT
        splats = Splats(vi, ui, z_c, 2, np.stack([BACKGROUND_RGB, cloth_color("towel")]))
        mask, depth = per_pixel_frame(camera, splats)
        obs = Observation(None, None, camera, splats=splats)
        assert obs.cloth_mask.tobytes() == mask.tobytes()
        assert obs.depth.tobytes() == depth.tobytes()
        assert not mask[10, 10] and depth[10, 10] == camera.table_depth  # behind the table
        assert mask[0].any() and mask[-1].any() and mask[:, 0].any() and mask[:, -1].any()


# A fold per cloth kind that lays one side on the other.
LAYERED_FOLDS = {"towel": ("left edge", "right edge"),
                 "t-shirt": ("left sleeve", "right sleeve"),
                 "trousers": ("left leg", "right leg")}


class TestOneMaskSource:
    """The frame alone decides its cloth mask: from the splats when rendered,
    from the RGB when given as arrays. Both rules give the same pixels, so no
    caller needs a mask of its own."""

    @pytest.mark.parametrize("folded", [False, True], ids=["flat", "folded"])
    @pytest.mark.parametrize("kind", sorted(LAYERED_FOLDS))
    def test_rgb_mask_equals_splat_mask(self, kind, folded):
        assert sorted(LAYERED_FOLDS) == sorted(sim.cloth_kinds())
        mesh = sim.init_cloth(kind)
        if folded:
            a, b = LAYERED_FOLDS[kind]
            mesh = sim.fold(mesh, mesh.landmark_point(a), mesh.landmark_point(b))
            assert mesh.layers.max() > 1
        obs = sim.render(mesh, sim.default_camera())
        splat_mask = obs.cloth_mask
        assert splat_mask.any() and not splat_mask.all()
        from_rgb = cloth_mask_from_rgb(obs.rgb)
        assert from_rgb.dtype == splat_mask.dtype
        assert from_rgb.tobytes() == splat_mask.tobytes()
        given = Observation(obs.rgb, obs.depth, obs.camera)
        assert given.cloth_mask.tobytes() == splat_mask.tobytes()

    def test_mask_is_derived_once_and_only_for_given_frames(self, tmp_path, monkeypatch):
        calls = []

        def counting(rgb):
            calls.append(rgb.shape)
            return cloth_mask_from_rgb(rgb)

        monkeypatch.setattr(render_module, "cloth_mask_from_rgb", counting)
        generate_dataset(tmp_path, seed=0, episodes_per_family=1)
        _, demos = load_dataset(tmp_path)
        assert calls == []
        loaded = demos[0].observation
        first, _ = segment_workspace(loaded, 112)
        assert calls == [(224, 224, 3)]
        again, _ = segment_workspace(loaded, 112)
        assert len(calls) == 1
        assert again.tobytes() == first.tobytes()
        segment_workspace(sim.render(sim.init_cloth("towel"), sim.default_camera()), 112)
        assert len(calls) == 1


def traced(fn):
    """``fn()`` and the traced bytes it left allocated."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


class TestFrameMemory:
    CAMERA = sim.default_camera()
    DEPTH_BYTES = CAMERA.intrinsics.height * CAMERA.intrinsics.width * 8
    FRAME_BYTES = 3 * DEPTH_BYTES

    def test_unread_render_holds_less_than_one_depth_frame(self):
        mesh = sim.init_cloth("t-shirt")
        sim.render(mesh, self.CAMERA)
        obs, held = traced(lambda: sim.render(mesh, self.CAMERA))
        assert held < self.DEPTH_BYTES
        _, added = traced(lambda: obs.depth_at(112, 112))
        assert added < self.DEPTH_BYTES
        _, added = traced(lambda: obs.rgb)
        assert added >= self.FRAME_BYTES + obs.cloth_mask.nbytes

    def test_loaded_demo_holds_its_stored_frame_only(self, tmp_path):
        """Per demo, ``load_dataset`` keeps the PNG file's bytes and the 16-bit
        depth counts, which tracemalloc must see, and no decoded frame: at
        most 0.11 MB, where uint8 RGB levels and depth would hold 0.25 MB and
        float64 RGB and depth 1.6 MB."""
        generate_dataset(tmp_path, seed=0, episodes_per_family=1)
        (_, demos), held = traced(lambda: load_dataset(tmp_path))
        counts = self.DEPTH_BYTES // 8 * 2
        assert counts <= held / len(demos) <= 0.11e6

    def test_expert_episode_builds_no_depth_frame_and_two_masks(self, monkeypatch):
        kept = []

        def keeping_render(mesh, camera):
            kept.append(sim.render(mesh, camera))
            return kept[-1]

        monkeypatch.setattr(evaluation, "render", keeping_render)
        monkeypatch.setattr(sim_env, "render", keeping_render)
        env = sim.jittered_sim("towel", np.random.default_rng(0), self.CAMERA)
        result = evaluation.run_episode("Fold the Towel in half twice to make a rectangle",
                                        None, env)
        assert result.success and len(kept) == 4       # target, initial, two steps
        assert [o._mask is not None for o in kept] == [True, False, False, True]
        assert all(o._depth is None and o._rgb is None for o in kept)
