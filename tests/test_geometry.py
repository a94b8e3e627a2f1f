"""Pinhole back-projection, the overhead camera's base frame, and primitive
expansion."""

import math

import numpy as np
import pytest

from clothfold import geometry as geo
from clothfold.evaluation import pixel_to_base
from clothfold.sim import default_camera
from clothfold.sim.mesh import LAYER_THICKNESS
from clothfold.sim.render import DEPTH_QUANTUM


def _tags(seq):
    return [w.kind for w in seq]


def _project(k, point_cam):
    """Camera-frame 3D point -> (u, v) pixel: the pinhole forward model."""
    x, y, z = point_cam
    return (k.cx + k.fx * x / z, k.cy + k.fy * y / z)


@pytest.fixture
def k():
    return geo.CameraIntrinsics(100.0, 100.0, 56.0, 56.0, 224, 224)


class TestPixelToCamera:
    def test_principal_point(self, k):
        np.testing.assert_allclose(geo.pixel_to_camera(56, 56, 1.0, k), [0, 0, 1.0])

    def test_hand_evaluated_pinhole(self, k):
        np.testing.assert_allclose(geo.pixel_to_camera(156, 56, 2.0, k),
                                   [2.0, 0.0, 2.0])

    def test_forward_model_roundtrip(self, k, rng):
        for _ in range(20):
            u = rng.uniform(0, 223)
            v = rng.uniform(0, 223)
            depth = rng.uniform(0.3, 3.0)
            p = geo.pixel_to_camera(u, v, depth, k)
            u2, v2 = _project(k, p)
            assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9

    def test_nonpositive_depth_rejected(self, k):
        with pytest.raises(geo.InvalidDepthError):
            geo.pixel_to_camera(10, 10, 0.0, k)
        with pytest.raises(geo.InvalidDepthError):
            geo.pixel_to_camera(10, 10, -1.0, k)

    @pytest.mark.parametrize("args,named", [
        ((0.0, 100.0, 10, 10, 64, 64), "fx"),
        ((100.0, -1.0, 10, 10, 64, 64), "fy"),
        ((math.nan, 100.0, 10, 10, 64, 64), "fx"),
        ((100.0, math.inf, 10, 10, 64, 64), "fy"),
        ((10, 10, 500, 10, 64, 64), "principal point"),
        ((10, 10, 10, math.nan, 64, 64), "principal point"),
        ((100.0, 100.0, 10, 10, 64.0, 64), "width"),
        ((100.0, 100.0, 0, 0, True, 64), "width"),
        ((100.0, 100.0, 10, 10, 64, 0), "height"),
    ])
    def test_bad_intrinsics_rejected(self, args, named):
        with pytest.raises(ValueError, match=f"^{named} must"):
            geo.CameraIntrinsics(*args)


class _Depth:
    """An observation whose every pixel reads one depth."""

    def __init__(self, depth):
        self.depth = depth

    def depth_at(self, row, col):
        return self.depth


def _old_base(p_cam, height):
    """The retired rigid transform, ``R @ p + t``: the oracle for the bytes."""
    return np.diag([1.0, -1.0, -1.0]) @ p_cam + np.array([0.0, 0.0, height])


class TestPixelToBase:
    def test_camera_to_base(self):
        base = pixel_to_base((156, 168), _Depth(0.998), default_camera(224, 1.0))
        np.testing.assert_allclose(
            base, [56 * 0.998 / 224, -44 * 0.998 / 224, 1.0 - 0.998], atol=1e-15)

    @pytest.mark.parametrize("height", [1.0, 1.3])
    def test_bytes_equal_the_rigid_transform(self, height):
        """Every pixel of a 224x224 frame, at the table's depth or 1-16 layers
        up (a pixel's depth cycles with row + col, so each row and column
        meets every depth), and the whole principal row and column (112,
        where a camera coordinate is +0.0) at every depth. Signed zeros
        count: the bytes must match."""
        cam = default_camera(224, height)
        depths = [cam.table_depth] + [
            float(np.rint((height - n * LAYER_THICKNESS) / DEPTH_QUANTUM) * DEPTH_QUANTUM)
            for n in range(1, 17)]
        cases = [((r, c), depths[(r + c) % len(depths)]) for r in range(224) for c in range(224)]
        principal = [(112, c) for c in range(224)] + [(r, 112) for r in range(224)]
        cases += [(px, d) for d in depths for px in principal]
        got = np.array([pixel_to_base(px, _Depth(d), cam) for px, d in cases])
        want = np.array([_old_base(geo.pixel_to_camera(px[1], px[0], d, cam.intrinsics), height)
                         for px, d in cases])
        assert got.tobytes() == want.tobytes()
        centre = pixel_to_base((112, 112), _Depth(depths[3]), cam)
        assert not np.signbit(centre).any()

    def test_depth_and_frame_checks_stay(self):
        cam = default_camera(224, 1.0)
        with pytest.raises(geo.InvalidDepthError):
            pixel_to_base((10, 10), _Depth(0.0), cam)
        with pytest.raises(ValueError, match="outside 224x224 image"):
            pixel_to_base((224, 10), _Depth(1.0), cam)


class TestPrimitives:
    def test_degenerate_pick_equals_place(self):
        seq = geo.action_to_primitives(np.zeros(3), np.zeros(3))
        assert _tags(seq) == ["grasp", "move-to-position", "place"]

    def test_tag_order_fixed(self, rng):
        seq = geo.action_to_primitives(rng.uniform(-0.3, 0.3, 3),
                                       rng.uniform(-0.3, 0.3, 3))
        assert _tags(seq) == ["grasp", "move-to-position", "place"]
        assert seq[0].gripper_closed
        assert seq[1].gripper_closed
        assert not seq[2].gripper_closed

    def test_transport_height(self):
        seq = geo.action_to_primitives(np.array([0.1, 0.0, 0.0]),
                                       np.array([-0.1, 0.0, 0.0]))
        assert seq[1].position[2] == 0.15

    def test_out_of_workspace_rejected(self):
        with pytest.raises(geo.WorkspaceError):
            geo.action_to_primitives(np.array([0.9, 0.0, 0.0]), np.zeros(3))

    def test_serializable_records(self):
        seq = geo.action_to_primitives(np.array([0.1, 0.1, 0.0]), np.zeros(3))
        recs = [w.to_record() for w in seq]
        assert len(recs) == 3 and all("position" in r for r in recs)
