"""Pinhole back-projection, rigid transforms, and primitive expansion."""

import math

import numpy as np
import pytest

from clothfold import geometry as geo


def _identity():
    return geo.RigidTransform(np.eye(3), np.zeros(3))


def _compose(a, b):
    """a after b: _compose(a, b)(p) == a(b(p))."""
    return geo.RigidTransform(a.rotation @ b.rotation,
                              a.rotation @ b.translation + a.translation)


def _inverse(tr):
    rt = tr.rotation.T
    return geo.RigidTransform(rt, -rt @ tr.translation)


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


class TestRigidTransform:
    def test_identity(self, rng):
        p = rng.normal(size=3)
        np.testing.assert_array_equal(_identity().apply(p), p)

    def test_pure_translation(self, rng):
        t = rng.normal(size=3)
        tr = geo.RigidTransform(np.eye(3), t)
        p = rng.normal(size=3)
        np.testing.assert_allclose(tr.apply(p), p + t, atol=1e-15)

    def test_inverse_composition_is_identity(self, rng):
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-np.pi, np.pi)
            kmat = np.array([[0, -axis[2], axis[1]],
                             [axis[2], 0, -axis[0]],
                             [-axis[1], axis[0], 0]])
            r = np.eye(3) + np.sin(angle) * kmat + (1 - np.cos(angle)) * kmat @ kmat
            tr = geo.RigidTransform(r, rng.normal(size=3))
            p = rng.normal(size=3)
            np.testing.assert_allclose(_inverse(tr).apply(tr.apply(p)), p, atol=1e-12)

    def test_composition_associative(self, rng):
        def random_transform():
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            a = rng.uniform(-np.pi, np.pi)
            kmat = np.array([[0, -axis[2], axis[1]],
                             [axis[2], 0, -axis[0]],
                             [-axis[1], axis[0], 0]])
            r = np.eye(3) + np.sin(a) * kmat + (1 - np.cos(a)) * kmat @ kmat
            return geo.RigidTransform(r, rng.normal(size=3))

        a, b, c = random_transform(), random_transform(), random_transform()
        p = rng.normal(size=3)
        left = _compose(_compose(a, b), c).apply(p)
        right = _compose(a, _compose(b, c)).apply(p)
        np.testing.assert_allclose(right, a.apply(b.apply(c.apply(p))), atol=1e-12)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            geo.RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            geo.RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1

    def test_camera_to_base(self, rng):
        tr = geo.RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0, 0, 1.0]))
        p = np.array([0.1, 0.2, 0.998])
        out = tr.apply(p)
        np.testing.assert_allclose(out, [0.1, -0.2, 1.0 - 0.998], atol=1e-15)


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
