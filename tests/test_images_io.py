"""PNG/PGM codec round trips and export conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import images, sim


class TestPng:
    def test_roundtrip_exact_on_uint8_grid(self, tmp_path, rng):
        rgb = np.round(rng.random((17, 23, 3)) * 255) / 255.0
        path = tmp_path / "x.png"
        images.write_png_rgb(path, rgb)
        levels = images.read_png_rgb(path)
        assert levels.dtype == np.uint8
        np.testing.assert_array_equal(levels / 255.0, rgb)

    def test_render_roundtrip_exact(self, tmp_path):
        obs = sim.render(sim.init_cloth("t-shirt"), sim.default_camera())
        path = tmp_path / "obs.png"
        images.write_png_rgb(path, obs.rgb)
        np.testing.assert_array_equal(images.read_png_rgb(path) / 255.0, obs.rgb)

    def test_deterministic_bytes(self, tmp_path, rng):
        rgb = rng.random((8, 8, 3))
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        images.write_png_rgb(a, rgb)
        images.write_png_rgb(b, rgb)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_file_rejected(self, tmp_path):
        p = tmp_path / "junk.png"
        p.write_bytes(b"not a png")
        with pytest.raises(images.ImageFormatError):
            images.read_png_rgb(p)


def test_loaded_frames_are_fresh_writable_float64(tmp_path, rng):
    """An observation of the stored levels and counts, as ``load_dataset``
    builds it, returns on each read of ``rgb`` or ``depth`` its own
    C-contiguous, writable float64 frame, equal to the written values."""
    rgb = np.round(rng.random((5, 7, 3)) * 255) / 255.0
    depth = np.round(rng.random((5, 7)) * 1e4) * images.DEPTH_UNIT
    images.write_png_rgb(tmp_path / "x.png", rgb)
    images.write_depth_pgm(tmp_path / "x.pgm", depth)
    levels = images.read_png_rgb(tmp_path / "x.png")
    counts = images.read_pgm16(tmp_path / "x.pgm")
    assert levels.dtype == np.uint8 and counts.dtype == np.uint16
    obs = sim.Observation(levels, counts, sim.default_camera(7))
    for name, want in (("rgb", rgb), ("depth", depth)):
        a, b = getattr(obs, name), getattr(obs, name)
        for frame in (a, b):
            assert frame.dtype == np.float64 and frame.shape == want.shape
            assert frame.flags.c_contiguous and frame.flags.writeable
            assert not np.shares_memory(frame, levels) and not np.shares_memory(frame, counts)
        assert not np.shares_memory(a, b)
        a[...] = -1.0
        np.testing.assert_array_equal(b, want)
        np.testing.assert_array_equal(getattr(obs, name), want)


class TestPgm:
    def test_depth_roundtrip_exact_at_unit_grid(self, tmp_path):
        depth = np.array([[1.0, 0.998], [0.996, 0.5]])
        path = tmp_path / "d.pgm"
        images.write_depth_pgm(path, depth)
        np.testing.assert_array_equal(images.read_pgm16(path) * images.DEPTH_UNIT, depth)

    def test_depth_unit_is_tenth_millimeter(self, tmp_path):
        path = tmp_path / "d.pgm"
        images.write_depth_pgm(path, np.array([[1.0]]))
        raw = images.read_pgm16(path)
        assert raw[0, 0] == 10000

    def test_heatmap_scaling(self, tmp_path):
        q = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "q.pgm"
        images.write_heatmap_pgm(path, q)
        raw = images.read_pgm16(path)
        assert raw[1, 0] == 65535
        assert raw[0, 1] == round(0.5 * 65535)
        back = raw.astype(np.float64) / images.HEATMAP_SCALE
        assert np.abs(back - q).max() <= 0.5 / 65535

    def test_out_of_range_depth_rejected(self, tmp_path):
        with pytest.raises(images.ImageFormatError):
            images.write_depth_pgm(tmp_path / "d.pgm", np.array([[7.0]]))

    def test_big_endian_samples(self, tmp_path):
        path = tmp_path / "x.pgm"
        images.write_pgm16(path, np.array([[0x0102]], dtype=np.uint16))
        blob = path.read_bytes()
        assert blob.endswith(b"\x01\x02")


class TestCorruptFiles:
    """A cut or changed file decodes or raises ImageFormatError, nothing else;
    a cut file that still decodes (only IEND cut off) decodes unchanged, and
    so does a changed PNG, since every chunk carries a CRC."""

    @pytest.mark.parametrize("kind", ["png", "pgm"])
    def test_every_prefix(self, tmp_path, rng, kind):
        path, read = _small_file(tmp_path, rng, kind)
        blob = path.read_bytes()
        whole = read(path)
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            try:
                back = read(path)
            except images.ImageFormatError:
                continue
            np.testing.assert_array_equal(back, whole)     # only IEND cut off

    @given(kind=st.sampled_from(["png", "pgm"]), where=st.floats(0.0, 1.0),
           value=st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_any_changed_byte(self, tmp_path_factory, kind, where, value):
        path, read = _small_file(tmp_path_factory.mktemp("img"),
                                 np.random.default_rng(1), kind)
        whole = read(path)
        blob = bytearray(path.read_bytes())
        blob[min(int(where * len(blob)), len(blob) - 1)] = value
        path.write_bytes(bytes(blob))
        try:
            back = read(path)
        except images.ImageFormatError:
            return
        if kind == "png":
            np.testing.assert_array_equal(back, whole)

    @pytest.mark.parametrize("chunk,offset", [("IHDR", 8 + 13), ("IDAT", 8 + 20),
                                              ("IEND", 8)])
    def test_flipped_png_chunk_byte_rejected(self, tmp_path, rng, chunk, offset):
        """A flipped bit in a chunk's payload or CRC fails that chunk's CRC:
        IHDR and IEND CRCs sit after the payload, the IDAT byte inside it."""
        path, _ = _small_file(tmp_path, rng, "png")
        blob = bytearray(path.read_bytes())
        blob[blob.index(chunk.encode()) - 4 + offset] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(images.ImageFormatError, match=f"{chunk}.*CRC"):
            images.read_png_rgb(path)


def _small_file(directory, rng, kind):
    if kind == "png":
        path = directory / "x.png"
        images.write_png_rgb(path, rng.random((5, 7, 3)))
        return path, images.read_png_rgb
    path = directory / "x.pgm"
    images.write_pgm16(path, rng.integers(0, 65536, (5, 7)).astype(np.uint16))
    return path, images.read_pgm16
