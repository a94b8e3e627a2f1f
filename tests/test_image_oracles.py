"""The array-at-once PNG codec, cloth mask and crop-first segmentation
against their per-scanline, full-frame and Observation-path oracles: file
bytes, decoded arrays, masks, model inputs, offsets and errors all equal."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clothfold import images, sim
from clothfold.evaluation import expert_rollout
from clothfold.images import _PNG_MAGIC, ImageFormatError, _chunk
from clothfold.perception.model import (DEPTH_RANGE, CropError, EmptyMaskError,
                                        segment_workspace)
from clothfold.planner import decompose
from clothfold.planner.templates import FAMILY_KIND, TASK_FAMILIES, command_bank
from clothfold.sim.mesh import cloth_color
from clothfold.sim.render import (CLOTH_COLOR_MARGIN, Observation,
                                  cloth_mask_from_rgb)
from clothfold.trainer import generate_dataset, load_dataset


def loop_write_png_rgb(path, rgb01):
    """Build the scanlines one row at a time, each behind its filter byte."""
    h, w, _ = rgb01.shape
    u8 = np.round(np.clip(rgb01, 0.0, 1.0) * 255.0).astype(np.uint8)
    raw = bytearray()
    for row in u8:
        raw.append(0)
        raw.extend(row.tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(_PNG_MAGIC + _chunk(b"IHDR", ihdr)
                + _chunk(b"IDAT", zlib.compress(bytes(raw), 6))
                + _chunk(b"IEND", b""))


def loop_read_png_rgb(path):
    """Walk the chunks, then check and decode one scanline at a time."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(_PNG_MAGIC):
        raise ImageFormatError(f"{path}: not a PNG file")
    pos = len(_PNG_MAGIC)
    width = height = None
    idat = bytearray()
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        tag = blob[pos + 4:pos + 8]
        payload = blob[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            width, height, depth, color, _, _, inter = struct.unpack(
                ">IIBBBBB", payload)
            if depth != 8 or color != 2 or inter != 0:
                raise ImageFormatError(f"{path}: unsupported PNG variant")
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if width is None:
        raise ImageFormatError(f"{path}: missing IHDR")
    raw = zlib.decompress(bytes(idat))
    stride = width * 3 + 1
    if len(raw) != stride * height:
        raise ImageFormatError(f"{path}: truncated image data")
    rows = []
    for r in range(height):
        line = raw[r * stride:(r + 1) * stride]
        if line[0] != 0:
            raise ImageFormatError(f"{path}: unsupported PNG filter {line[0]}")
        rows.append(np.frombuffer(line[1:], dtype=np.uint8))
    return np.stack(rows).reshape(height, width, 3).astype(np.float64) / 255.0


def full_frame_segment_workspace(obs, crop_size):
    """Mask, suppress the background and scale depth to height on the whole
    frame, then crop the RGB-D array."""
    mask = obs.rgb.max(axis=-1) > CLOTH_COLOR_MARGIN
    rgb = np.where(mask[..., None], obs.rgb, 0.0)
    depth = np.where(mask, obs.depth, obs.camera.table_depth)
    h, w = mask.shape
    if crop_size > min(h, w):
        raise CropError(f"its {h}x{w} frame is smaller than the centre crop of "
                        f"model.image_size {crop_size}")
    r0 = (h - crop_size) // 2
    c0 = (w - crop_size) // 2
    window = (slice(r0, r0 + crop_size), slice(c0, c0 + crop_size))
    if not mask[window].any():
        raise EmptyMaskError("no cloth pixels in the centre crop")
    depth_norm = np.clip((obs.camera.table_depth - depth) / DEPTH_RANGE, 0.0, 1.0)
    return np.concatenate([rgb, depth_norm[..., None]], axis=-1)[window], (r0, c0)


def observation_segment_workspace(obs, crop_size):
    """The two-step path the model input used to take: crop and mask into a
    new ``Observation``, then read that back into the RGB-D array."""
    mask = obs.cloth_mask
    h, w = mask.shape
    if crop_size > min(h, w):
        raise CropError(f"its {h}x{w} frame is smaller than the centre crop of "
                        f"model.image_size {crop_size}")
    r0 = (h - crop_size) // 2
    c0 = (w - crop_size) // 2
    window = (slice(r0, r0 + crop_size), slice(c0, c0 + crop_size))
    mask = mask[window]
    if not mask.any():
        raise EmptyMaskError("no cloth pixels in the centre crop")
    rgb, depth, _ = obs.crop(window)
    rgb = np.where(mask[..., None], rgb, 0.0)
    depth = np.where(mask, depth, obs.camera.table_depth)
    return observation_normalize(Observation(rgb, depth, obs.camera)), (r0, c0)


def observation_normalize(obs):
    """RGB stays in [0,1]; depth becomes height above the table in [0,1]."""
    depth_norm = np.clip((obs.camera.table_depth - obs.depth) / DEPTH_RANGE, 0.0, 1.0)
    return np.concatenate([obs.rgb, depth_norm[..., None]], axis=-1)


def _outcome(fn, *args):
    """A function's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:                       # noqa: BLE001 - compared below
        return type(e), str(e)


def _assert_same_input(got, want):
    """Two (array, offset) results, or two (error type, message) pairs."""
    if isinstance(want[0], type):
        assert got == want
        return
    (a, off), (b, want_off) = got, want
    assert off == want_off
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


shapes = st.tuples(st.integers(1, 24), st.integers(1, 24))


@st.composite
def uint8_images(draw):
    h, w = draw(shapes)
    return draw(hnp.arrays(np.uint8, (h, w, 3)))


@st.composite
def float_images(draw):
    """Off-grid floats, some outside [0, 1] so the writer's clip matters."""
    h, w = draw(shapes)
    return draw(hnp.arrays(np.float64, (h, w, 3),
                           elements=st.floats(-0.5, 1.5, allow_nan=False)))


class TestPngAgainstScanlineOracle:
    @given(uint8_images())
    @settings(max_examples=60, deadline=None)
    def test_uint8_grid_bytes_and_arrays_equal(self, tmp_path_factory, u8):
        d = tmp_path_factory.mktemp("png")
        rgb = u8 / 255.0
        images.write_png_rgb(d / "new.png", rgb)
        loop_write_png_rgb(d / "old.png", rgb)
        assert (d / "new.png").read_bytes() == (d / "old.png").read_bytes()
        levels = images.read_png_rgb(d / "new.png").levels()
        oracle = loop_read_png_rgb(d / "new.png")
        assert levels.dtype == np.uint8
        back = levels / 255.0
        assert back.dtype == oracle.dtype == np.float64
        np.testing.assert_array_equal(back, oracle)
        np.testing.assert_array_equal(back, rgb)

    @given(uint8_images())
    @settings(max_examples=40, deadline=None)
    def test_stored_png_inflates_to_the_oracle_on_every_read(self, tmp_path_factory, u8):
        """``read_png_rgb`` keeps the file's bytes; each ``levels()`` is a
        fresh, writable uint8 frame equal to the scanline oracle's."""
        path = tmp_path_factory.mktemp("png") / "x.png"
        images.write_png_rgb(path, u8 / 255.0)
        stored = images.read_png_rgb(path)
        assert stored.data == path.read_bytes() and stored.shape == u8.shape
        oracle = loop_read_png_rgb(path)
        reads = [stored.levels() for _ in range(3)]
        for levels in reads:
            assert levels.dtype == np.uint8 and levels.shape == u8.shape
            assert levels.flags.c_contiguous and levels.flags.writeable
            np.testing.assert_array_equal(levels / 255.0, oracle)
        assert not np.shares_memory(reads[0], reads[1])
        reads[0][...] = ~reads[0]
        np.testing.assert_array_equal(stored.levels(), u8)

    @given(float_images())
    @settings(max_examples=40, deadline=None)
    def test_off_grid_floats_write_the_same_bytes(self, tmp_path_factory, rgb):
        d = tmp_path_factory.mktemp("png")
        images.write_png_rgb(d / "new.png", rgb)
        loop_write_png_rgb(d / "old.png", rgb)
        assert (d / "new.png").read_bytes() == (d / "old.png").read_bytes()

    def test_rendered_frame_bytes_equal(self, tmp_path):
        obs = sim.render(sim.init_cloth("trousers"), sim.default_camera())
        images.write_png_rgb(tmp_path / "new.png", obs.rgb)
        loop_write_png_rgb(tmp_path / "old.png", obs.rgb)
        assert (tmp_path / "new.png").read_bytes() == (tmp_path / "old.png").read_bytes()

    @given(shapes, st.sampled_from(["first", "middle", "last"]),
           st.integers(1, 255), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_nonzero_filter_byte_rejected(self, tmp_path_factory, shape, where,
                                          value, later_value):
        """The first nonzero filter byte is named, as the oracle names it,
        even when a later row carries another one."""
        h, w = shape
        raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)
        row = {"first": 0, "middle": h // 2, "last": h - 1}[where]
        raw[row, 0] = value
        if row + 1 < h:
            raw[h - 1, 0] = later_value
        path = tmp_path_factory.mktemp("png") / "filtered.png"
        path.write_bytes(_PNG_MAGIC
                         + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
                         + _chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
                         + _chunk(b"IEND", b""))
        with pytest.raises(ImageFormatError) as new:
            images.read_png_rgb(path)
        with pytest.raises(ImageFormatError) as old:
            loop_read_png_rgb(path)
        assert str(new.value) == str(old.value)
        assert str(new.value).endswith(f"unsupported PNG filter {value}")


# Channel values that probe the comparison: the margin itself and its float
# neighbours, NaN, the background and the ends of the range.
_EDGE_VALUES = [CLOTH_COLOR_MARGIN, np.nextafter(CLOTH_COLOR_MARGIN, 0.0),
                np.nextafter(CLOTH_COLOR_MARGIN, 1.0), np.nan, 0.0, -0.0, 1.0,
                -1.0, np.inf, -np.inf]
channels = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=True))


class TestClothMask:
    @given(st.tuples(st.integers(0, 9), st.integers(0, 9)).flatmap(
        lambda hw: hnp.arrays(np.float64, (*hw, 3), elements=channels)))
    @settings(max_examples=120, deadline=None)
    def test_equals_max_over_channels(self, rgb):
        with np.errstate(invalid="ignore"):
            oracle = rgb.max(axis=-1) > CLOTH_COLOR_MARGIN
        got = cloth_mask_from_rgb(rgb)
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, oracle)

    def test_margin_is_exclusive_and_nan_is_background(self):
        at = CLOTH_COLOR_MARGIN
        rgb = np.array([[[at, at, at], [np.nan, 1.0, 1.0],
                         [0.0, 0.0, np.nextafter(at, 1.0)]]])
        np.testing.assert_array_equal(cloth_mask_from_rgb(rgb), [[False, False, True]])


_CAMERA = sim.default_camera(resolution=32)


@st.composite
def observations(draw):
    """Frames with cloth rectangles anywhere, possibly only outside the
    crop, and a crop that may be larger than the frame."""
    h = draw(st.integers(4, 32))
    w = draw(st.integers(4, 32))
    rgb = np.zeros((h, w, 3))
    for _ in range(draw(st.integers(0, 3))):
        r0 = draw(st.integers(0, h - 1))
        c0 = draw(st.integers(0, w - 1))
        r1 = draw(st.integers(r0 + 1, h))
        c1 = draw(st.integers(c0 + 1, w))
        rgb[r0:r1, c0:c1] = draw(st.sampled_from(
            [cloth_color("towel"), [CLOTH_COLOR_MARGIN] * 3,
             [0.0, 0.0, np.nextafter(CLOTH_COLOR_MARGIN, 1.0)]]))
    depth = draw(hnp.arrays(np.float64, (h, w), elements=st.floats(0.9, 1.0)))
    crop = draw(st.integers(1, min(h, w) + 2))
    return Observation(rgb, depth, _CAMERA), crop


class TestSegmentAgainstFullFrameOracle:
    @given(observations())
    @settings(max_examples=120, deadline=None)
    def test_same_crop_offset_and_error(self, case):
        obs, crop = case
        _assert_same_input(_outcome(segment_workspace, obs, crop),
                           _outcome(full_frame_segment_workspace, obs, crop))

    def test_cloth_only_outside_the_crop(self):
        rgb = np.zeros((32, 32, 3))
        rgb[0:4, 0:4] = cloth_color("towel")
        obs = Observation(rgb, np.ones((32, 32)), _CAMERA)
        for fn in (segment_workspace, full_frame_segment_workspace):
            with pytest.raises(EmptyMaskError, match="no cloth pixels in the centre crop"):
                fn(obs, 16)

    @pytest.mark.parametrize("crop", range(1, 8))
    def test_odd_and_even_margins(self, crop):
        rgb = np.zeros((7, 10, 3))
        rgb[1:] = cloth_color("t-shirt")
        obs = Observation(rgb, np.full((7, 10), 0.99), _CAMERA)
        _assert_same_input(segment_workspace(obs, crop),
                           full_frame_segment_workspace(obs, crop))

    def test_loaded_frames_equal(self, tmp_path):
        """The crop's window of a loaded demo, scaled and masked alone, gives
        the bytes of the whole frame's."""
        generate_dataset(tmp_path, seed=0, episodes_per_family=1)
        _, demos = load_dataset(tmp_path)
        for demo in demos:
            _assert_same_input(segment_workspace(demo.observation, 112),
                               full_frame_segment_workspace(demo.observation, 112))

    @pytest.mark.parametrize("kind", ["towel", "t-shirt", "trousers"])
    def test_rendered_frames_equal(self, kind):
        obs = sim.render(sim.init_cloth(kind), sim.default_camera())
        _assert_same_input(segment_workspace(obs, 112),
                           full_frame_segment_workspace(obs, 112))


class TestSegmentAgainstObservationPath:
    """One step from frame to model input gives the bytes, offsets and errors
    of the crop ``Observation`` read back by a second function."""

    @given(observations())
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_frames(self, case):
        obs, crop = case
        _assert_same_input(_outcome(segment_workspace, obs, crop),
                           _outcome(observation_segment_workspace, obs, crop))

    @pytest.mark.parametrize("family", TASK_FAMILIES)
    def test_rendered_frames_flat_and_folded(self, family):
        """Every cloth kind flat, and after its family's layered folds."""
        env = sim.ClothSim(sim.init_cloth(FAMILY_KIND[family]))
        folded = expert_rollout(env, decompose(command_bank(family)[0]))
        assert folded.layers.max() >= 2
        for mesh in (env.mesh, folded):
            obs = sim.render(mesh, env.camera)
            for crop in (112, 224):
                _assert_same_input(segment_workspace(obs, crop),
                                   observation_segment_workspace(obs, crop))

    def test_loaded_frames(self, tmp_path):
        generate_dataset(tmp_path, seed=0, episodes_per_family=1)
        _, demos = load_dataset(tmp_path)
        for demo in demos:
            _assert_same_input(segment_workspace(demo.observation, 112),
                               observation_segment_workspace(demo.observation, 112))
