"""What an episode looks up instead of building: the rest cloth per kind, the
plan per (family, preposition) and the color pair per kind. Each cached
value equals the construction it replaced, and no caller can reach it to
change it: every call hands out fresh mutable state."""

import numpy as np
import pytest

from clothfold import sim
from clothfold.planner import decompose, validate_subtask
from clothfold.planner.templates import (_FAMILIES, CLOTH_DISPLAY, PREP_VARIANTS,
                                         _plan, command_bank, parse_command)
from clothfold.sim.mesh import (_SHAPES, WORKSPACE_HALF, _resample_mask,
                                _rescale_index, _rest_cloth, _snap_to_active,
                                cloth_color)
from clothfold.sim.render import BACKGROUND_RGB, _colors


def uncached_init_cloth(kind, grid_dims=(25, 25), size_m=0.36, center=(0.0, 0.0),
                        rotation_rad=0.0):
    """``init_cloth`` as it was before the rest cloth was cached: silhouette,
    grid and landmarks built on every call."""
    n, m = grid_dims
    spec = _SHAPES["kinds"][kind]
    authored = _SHAPES["authored_grid"]
    active = _resample_mask(spec["silhouette"], n, m)
    cols = np.arange(m) / (m - 1) - 0.5
    rows = 0.5 - np.arange(n) / (n - 1)
    x = np.broadcast_to(cols[None, :] * size_m, (n, m))
    y = np.broadcast_to(rows[:, None] * size_m, (n, m))
    pts = np.stack([x, y], axis=-1).astype(np.float64).copy()
    if rotation_rad != 0.0:
        ca, sa = np.cos(rotation_rad), np.sin(rotation_rad)
        rot = np.array([[ca, -sa], [sa, ca]])
        pts = pts @ rot.T
    pts[..., 0] += center[0]
    pts[..., 1] += center[1]
    assert np.abs(pts[active]).max() <= WORKSPACE_HALF
    landmarks = {}
    for name, rc in spec["landmarks"].items():
        r, c = _rescale_index(tuple(rc), authored, n, m)
        landmarks[name] = _snap_to_active(active, r, c)
    layers = np.where(active, 1, 0).astype(np.int64)
    return sim.ClothMesh(kind, n, m, size_m, active, pts, layers, landmarks)


def assert_same_mesh(got, want):
    assert (got.kind, got.n_rows, got.n_cols, got.size_m) == \
        (want.kind, want.n_rows, want.n_cols, want.size_m)
    for name in ("active", "positions", "layers"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.landmarks == want.landmarks
    assert list(got.landmarks) == list(want.landmarks)


POSES = [((25, 25), 0.36, (0.0, 0.0), 0.0),
         ((25, 25), 0.36, (0.012, -0.007), 0.13),
         ((25, 25), 0.36, (-0.015, 0.015), -0.14),
         ((12, 9), 0.3, (0.1, -0.05), 2.5),
         ((8, 30), 0.5, (0.0, 0.0), 0.0)]


class TestRestCloth:
    @pytest.mark.parametrize("pose", POSES)
    @pytest.mark.parametrize("kind", sim.cloth_kinds())
    def test_equals_the_uncached_construction(self, kind, pose):
        dims, size, center, rotation = pose
        want = uncached_init_cloth(kind, dims, size, center, rotation)
        for _ in range(2):            # the first call fills the cache, the second reads it
            assert_same_mesh(sim.init_cloth(kind, dims, size, center, rotation), want)

    @pytest.mark.parametrize("kind", sim.cloth_kinds())
    def test_calls_share_no_mutable_state(self, kind):
        a = sim.init_cloth(kind, center=(0.01, 0.0), rotation_rad=0.1)
        b = sim.init_cloth(kind)
        for name in ("active", "positions", "layers"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.flags.writeable and y.flags.writeable, name
            assert not np.shares_memory(x, y), name
        assert a.landmarks is not b.landmarks
        for mesh in (a, b):
            mesh.active[...] = ~mesh.active
            mesh.positions += 0.25
            mesh.layers += 3
            mesh.landmarks[next(iter(mesh.landmarks))] = (0, 0)
            mesh.landmarks["extra"] = (1, 1)
        assert_same_mesh(sim.init_cloth(kind), uncached_init_cloth(kind))

    @pytest.mark.parametrize("kind", sim.cloth_kinds())
    def test_cached_arrays_are_read_only(self, kind):
        active, pts, layers, landmarks = _rest_cloth(kind, 25, 25, 0.36)
        assert isinstance(landmarks, tuple)
        for arr in (active, pts, layers):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = arr[0, 0]


def bank_commands():
    return [(family, variant, cmd) for family in _FAMILIES
            for variant, cmd in enumerate(command_bank(family))]


def fresh_plan(family, prep):
    kind, steps, _ = _FAMILIES[family]
    return [validate_subtask(f"Grasp the {pick} of the {CLOTH_DISPLAY[kind]} "
                             f"and place it {prep} the {place}", cloth_kind=kind)
            for pick, place in steps]


class TestPlans:
    @pytest.mark.parametrize("family,variant,command", bank_commands())
    def test_bank_command_equals_a_fresh_build(self, family, variant, command):
        assert parse_command(command).task_family == family
        want = fresh_plan(family, PREP_VARIANTS[variant % len(PREP_VARIANTS)])
        for _ in range(2):
            got = decompose(command)
            assert type(got) is list and len(got) == len(want)
            for g, w in zip(got, want):
                assert g == w and g.to_record() == w.to_record()

    @pytest.mark.parametrize("prep", PREP_VARIANTS)
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_every_preposition_equals_a_fresh_build(self, family, prep):
        assert list(_plan(family, prep)) == fresh_plan(family, prep)

    def test_each_call_returns_a_new_list(self):
        command = command_bank("FCIF")[0]
        a = decompose(command)
        b = decompose(command)
        assert a is not b and a == b
        want = list(a)
        a.clear()
        b.append(b[0])
        assert decompose(command) == want

    def test_cache_is_bounded_by_the_family_table(self):
        assert _plan.cache_info().maxsize == len(_FAMILIES) * len(PREP_VARIANTS)
        for family in _FAMILIES:
            for prep in PREP_VARIANTS:
                _plan(family, prep)
        assert _plan.cache_info().currsize <= len(_FAMILIES) * len(PREP_VARIANTS)


class TestColors:
    @pytest.mark.parametrize("kind", sim.cloth_kinds())
    def test_color_table_is_read_only_and_unchanged(self, kind):
        colors = _colors(kind)
        assert colors is _colors(kind)
        assert not colors.flags.writeable
        with pytest.raises(ValueError):
            colors[1] = 0.5
        want = np.stack([BACKGROUND_RGB, cloth_color(kind)])
        assert colors.dtype == want.dtype and colors.tobytes() == want.tobytes()

    def test_frames_do_not_share_the_table(self):
        obs = sim.render(sim.init_cloth("towel"), sim.default_camera())
        rgb = obs.rgb
        assert not np.shares_memory(rgb, _colors("towel"))
        rgb[...] = 0.5
        assert _colors("towel").tobytes() == \
            np.stack([BACKGROUND_RGB, cloth_color("towel")]).tobytes()
