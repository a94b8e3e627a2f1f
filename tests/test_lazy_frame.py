"""The RGB frame that ``render`` builds on first read: byte-equal to an eager
``np.where`` oracle, kept once built, never shared between renders, and never
built by a scripted-expert episode, which reads only depth and mask."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import evaluation, sim
from clothfold.geometry import CameraIntrinsics
from clothfold.sim import env as sim_env
from clothfold.sim.mesh import cloth_color
from clothfold.sim.render import BACKGROUND_RGB, Observation, SimCamera


def eager_frame(obs, kind):
    return np.where(obs.cloth_mask[..., None], cloth_color(kind), BACKGROUND_RGB)


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


class TestLazyFrame:
    @given(rendered_cases())
    @settings(max_examples=40, deadline=None)
    def test_frame_matches_eager_oracle(self, case):
        mesh, camera = case
        a = sim.render(mesh, camera)
        b = sim.render(mesh, camera)
        want = eager_frame(a, mesh.kind)
        assert a.rgb.dtype == want.dtype and a.rgb.shape == want.shape
        assert a.rgb.tobytes() == want.tobytes()
        assert a.rgb is a.rgb
        a.rgb[...] = 0.5                     # before b's frame exists
        assert b.rgb.tobytes() == want.tobytes()
        b.rgb[..., 0] = 0.25                 # after it exists
        assert sim.render(mesh, camera).rgb.tobytes() == want.tobytes()

    def test_rendered_mask_is_read_only(self):
        obs = sim.render(sim.init_cloth("towel"), sim.default_camera())
        with pytest.raises(ValueError):
            obs.cloth_mask[0, 0] = True

    def test_given_frame_is_held_as_is(self):
        obs = sim.render(sim.init_cloth("trousers"), sim.default_camera())
        rgb = obs.rgb.copy()
        held = Observation(rgb, obs.depth, obs.cloth_mask, obs.camera)
        assert held.rgb is rgb


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
    FRAME_BYTES = CAMERA.intrinsics.height * CAMERA.intrinsics.width * 3 * 8

    def test_unread_frame_is_not_held(self):
        mesh = sim.init_cloth("t-shirt")
        sim.render(mesh, self.CAMERA)
        obs, held = traced(lambda: sim.render(mesh, self.CAMERA))
        assert obs.depth.nbytes <= held < self.FRAME_BYTES
        _, added = traced(lambda: obs.rgb)
        assert added >= self.FRAME_BYTES

    def test_expert_episode_builds_no_frame(self, monkeypatch):
        kept = []

        def keeping_render(mesh, camera):
            kept.append(sim.render(mesh, camera))
            return kept[-1]

        monkeypatch.setattr(evaluation, "render", keeping_render)
        monkeypatch.setattr(sim_env, "render", keeping_render)
        command = "Fold the Towel in half twice to make a rectangle"

        def episode():
            env = sim.jittered_sim("towel", np.random.default_rng(0), self.CAMERA)
            return evaluation.run_episode(command, None, env)

        assert episode().success
        kept.clear()
        result, held = traced(episode)
        assert result.success and len(kept) == 4
        images = sum(o.depth.nbytes + o.cloth_mask.nbytes for o in kept)
        assert images <= held < images + self.FRAME_BYTES
