"""The array-at-once PNG codec, cloth mask and crop-first segmentation
against their per-scanline and full-frame oracles: file bytes, decoded
arrays, masks, crops, offsets and errors all equal."""

import importlib
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clothfold import images, sim
from clothfold.images import _PNG_MAGIC, ImageFormatError, _chunk
from clothfold.perception.model import (EmptyMaskError, SegmentationError,
                                        segment_workspace)
from clothfold.sim.mesh import cloth_color
from clothfold.sim.render import (CLOTH_COLOR_MARGIN, Observation,
                                  cloth_mask_from_rgb)
from clothfold.trainer import generate_dataset, load_dataset

# The module; ``clothfold.sim.render`` as an attribute is the function.
render_module = importlib.import_module("clothfold.sim.render")


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
    """Mask and suppress the background on the whole frame, then crop. The
    crop keeps that mask; it is not derived again from the cropped RGB."""
    mask = obs.rgb.max(axis=-1) > CLOTH_COLOR_MARGIN
    if not mask.any():
        raise EmptyMaskError("no cloth pixels found in the observation")
    rgb = np.where(mask[..., None], obs.rgb, 0.0)
    depth = np.where(mask, obs.depth, obs.camera.table_depth)
    h, w = mask.shape
    if crop_size > min(h, w):
        raise SegmentationError(f"crop {crop_size} larger than image {h}x{w}")
    r0 = (h - crop_size) // 2
    c0 = (w - crop_size) // 2
    cropped = SimpleNamespace(rgb=rgb[r0:r0 + crop_size, c0:c0 + crop_size],
                              depth=depth[r0:r0 + crop_size, c0:c0 + crop_size],
                              cloth_mask=mask[r0:r0 + crop_size, c0:c0 + crop_size],
                              camera=obs.camera)
    if not cropped.cloth_mask.any():
        raise EmptyMaskError("center crop removed all cloth pixels")
    return cropped, (r0, c0)


def _outcome(fn, *args):
    """A function's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:                       # noqa: BLE001 - compared below
        return type(e), str(e)


def _assert_same_observation(a, b):
    for x, y in ((a.rgb, b.rgb), (a.depth, b.depth), (a.cloth_mask, b.cloth_mask)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert a.camera == b.camera


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
        levels = images.read_png_rgb(d / "new.png")
        oracle = loop_read_png_rgb(d / "new.png")
        assert levels.dtype == np.uint8
        back = levels / 255.0
        assert back.dtype == oracle.dtype == np.float64
        np.testing.assert_array_equal(back, oracle)
        np.testing.assert_array_equal(back, rgb)

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
        got = _outcome(segment_workspace, obs, crop)
        want = _outcome(full_frame_segment_workspace, obs, crop)
        if isinstance(want[0], type):
            assert got == want
            return
        (seg, off), (oracle, oracle_off) = got, want
        assert off == oracle_off
        _assert_same_observation(seg, oracle)

    def test_cloth_only_outside_the_crop(self):
        rgb = np.zeros((32, 32, 3))
        rgb[0:4, 0:4] = cloth_color("towel")
        obs = Observation(rgb, np.ones((32, 32)), _CAMERA)
        for fn in (segment_workspace, full_frame_segment_workspace):
            with pytest.raises(EmptyMaskError, match="center crop removed"):
                fn(obs, 16)

    @pytest.mark.parametrize("crop", range(1, 8))
    def test_odd_and_even_margins(self, crop):
        rgb = np.zeros((7, 10, 3))
        rgb[1:] = cloth_color("t-shirt")
        obs = Observation(rgb, np.full((7, 10), 0.99), _CAMERA)
        seg, off = segment_workspace(obs, crop)
        oracle, oracle_off = full_frame_segment_workspace(obs, crop)
        assert off == oracle_off
        _assert_same_observation(seg, oracle)

    def test_loaded_frames_scale_only_the_window(self, tmp_path, monkeypatch):
        """A loaded demo's whole RGB is scaled once, for its mask; the crop
        scales only the window of the stored levels and counts, to the bytes
        of the full-frame oracle."""
        as_float, full = render_module._as_float, []

        def counting(stored):
            if stored.shape[:2] == (224, 224):
                full.append(stored.dtype)
            return as_float(stored)

        generate_dataset(tmp_path, seed=0, episodes_per_family=1)
        _, demos = load_dataset(tmp_path)
        for demo in demos:
            obs = demo.observation
            monkeypatch.setattr(render_module, "_as_float", counting)
            full.clear()
            seg, off = segment_workspace(obs, 112)
            assert full == [np.uint8]
            segment_workspace(obs, 112)
            assert full == [np.uint8]
            monkeypatch.undo()
            oracle, oracle_off = full_frame_segment_workspace(obs, 112)
            assert off == oracle_off
            _assert_same_observation(seg, oracle)
            assert seg.rgb.tobytes() == oracle.rgb.tobytes()
            assert seg.depth.tobytes() == oracle.depth.tobytes()

    @pytest.mark.parametrize("kind", ["towel", "t-shirt", "trousers"])
    def test_rendered_frames_equal(self, kind):
        obs = sim.render(sim.init_cloth(kind), sim.default_camera())
        seg, off = segment_workspace(obs, 112)
        oracle, oracle_off = full_frame_segment_workspace(obs, 112)
        assert off == oracle_off
        _assert_same_observation(seg, oracle)
