import gc
import json
import struct
import tracemalloc

import numpy as np
import pytest

from nightscan import tensor as T
from nightscan.errors import ConfigError, FormatError
from nightscan.rawio import (
    RawImage,
    pack,
    pack_mosaic,
    read_ppm,
    read_raw_container,
    to_counts,
    unpack_mosaic,
    write_ppm,
    write_raw_container,
)


def _raw(plane, cfa="RGGB", black=0, white=40, ratio=1.0):
    plane = np.asarray(plane, dtype=np.uint16)
    return RawImage(
        width=plane.shape[1],
        height=plane.shape[0],
        cfa=cfa,
        black_level=black,
        white_level=white,
        exposure_ratio=ratio,
        plane=plane,
    )


class TestPack:
    def test_2x2_normalization_and_channel_order(self):
        packed = pack(_raw([[10, 20], [30, 40]]))
        assert packed.shape == (4, 1, 1)
        np.testing.assert_allclose(packed.ravel(), [0.25, 0.5, 0.75, 1.0])

    def test_ratio_saturates(self):
        packed = pack(_raw([[10, 20], [30, 40]], ratio=4.0))
        np.testing.assert_array_equal(packed.ravel(), [1.0, 1.0, 1.0, 1.0])

    def test_black_level_clips_to_zero(self):
        packed = pack(_raw([[5, 20], [30, 40]], black=10))
        assert packed.ravel()[0] == 0.0

    def test_monotone_per_site(self):
        lo = pack(_raw([[10, 20], [30, 40]]))
        hi = pack(_raw([[12, 25], [31, 40]]))
        assert np.all(hi >= lo)

    def test_bayer_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        mosaic = rng.uniform(0, 1, (6, 8))
        np.testing.assert_array_equal(unpack_mosaic(pack_mosaic(mosaic, "RGGB"), "RGGB"), mosaic)
        repacked = pack_mosaic(unpack_mosaic(pack_mosaic(mosaic, "RGGB"), "RGGB"), "RGGB")
        np.testing.assert_array_equal(repacked, pack_mosaic(mosaic, "RGGB"))

    def test_xtrans_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        mosaic = rng.uniform(0, 1, (6, 6))
        packed = pack_mosaic(mosaic, "XTRANS")
        assert packed.shape == (9, 2, 2)
        np.testing.assert_array_equal(unpack_mosaic(packed, "XTRANS"), mosaic)

    def test_xtrans_channel_site_layout(self):
        mosaic = np.arange(9.0).reshape(3, 3)
        packed = pack_mosaic(mosaic, "XTRANS")
        np.testing.assert_array_equal(packed.ravel(), np.arange(9.0))

    def test_indivisible_dims_rejected(self):
        raw = _raw(np.zeros((3, 10)), cfa="XTRANS", white=100)
        with pytest.raises(ConfigError):
            pack(raw)

    def test_channel_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            unpack_mosaic(np.zeros((4, 2, 2)), "XTRANS")


class TestToCounts:
    black, white = 512, 16322

    def test_negative_value_gives_count_below_black(self):
        # generator noise can dip below the black level
        assert to_counts(np.array([-0.01]), self.black, self.white)[0] == 354

    def test_floor_is_zero_and_ceiling_is_white(self):
        counts = to_counts(np.array([-1.0, 0.0, 1.0, 2.0]), self.black, self.white)
        assert counts.dtype == np.uint16
        np.testing.assert_array_equal(counts, [0, self.black, self.white, self.white])

    def test_pack_inverts_it_at_exposure_one(self):
        values = np.random.default_rng(2).uniform(-0.2, 1.2, (6, 8))
        raw = RawImage(width=8, height=6, cfa="RGGB", black_level=self.black, white_level=self.white,
                       exposure_ratio=1.0, plane=to_counts(values, self.black, self.white))
        span = self.white - self.black
        np.testing.assert_allclose(pack(raw), pack_mosaic(np.clip(values, 0, 1), "RGGB"), rtol=0, atol=0.5 / span)

    def test_numpy_levels_keep_float32_arithmetic(self):
        values = np.random.default_rng(3).uniform(0, 1, 1000).astype(np.float32)
        expected = np.clip(np.round(self.black + values * (self.white - self.black)), 0, self.white).astype(np.uint16)
        np.testing.assert_array_equal(to_counts(values, np.int64(self.black), np.int64(self.white)), expected)


class TestContainer:
    def test_roundtrip_all_fields(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = _raw(rng.integers(0, 4000, (6, 4)).astype(np.uint16), black=512, white=16322, ratio=100.0)
        path = tmp_path / "a.rraw"
        write_raw_container(raw, path)
        back = read_raw_container(path)
        assert (back.width, back.height, back.cfa) == (raw.width, raw.height, raw.cfa)
        assert (back.black_level, back.white_level) == (raw.black_level, raw.white_level)
        assert back.exposure_ratio == raw.exposure_ratio
        np.testing.assert_array_equal(back.plane, raw.plane)

    def test_roundtrip_keeps_fields_and_header_bytes_of_numpy_levels(self, tmp_path):
        raw = _raw(np.arange(24, dtype=np.uint16).reshape(4, 6), black=np.int64(2), white=np.int64(100), ratio=100)
        p1, p2 = tmp_path / "a.rraw", tmp_path / "b.rraw"
        write_raw_container(raw, p1)
        back = read_raw_container(p1)
        write_raw_container(back, p2)
        for name in ("width", "height", "cfa", "black_level", "white_level", "exposure_ratio"):
            assert getattr(back, name) == getattr(raw, name)
            assert type(getattr(back, name)) is type(getattr(raw, name))
        assert type(raw.black_level) is int and type(raw.exposure_ratio) is float
        assert p1.read_bytes() == p2.read_bytes()
        assert b'"black_level": 2, "white_level": 100, "exposure_ratio": 100.0}' in p1.read_bytes()

    def test_roundtrip_is_byte_lossless(self, tmp_path):
        raw = _raw(np.arange(24, dtype=np.uint16).reshape(4, 6), white=100)
        p1, p2 = tmp_path / "a.rraw", tmp_path / "b.rraw"
        write_raw_container(raw, p1)
        write_raw_container(read_raw_container(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rraw"
        path.write_bytes(b"JUNKxxxxxxxx")
        with pytest.raises(FormatError):
            read_raw_container(path)

    def test_truncated_plane(self, tmp_path):
        raw = _raw(np.zeros((4, 4), dtype=np.uint16), white=10)
        path = tmp_path / "t.rraw"
        write_raw_container(raw, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])  # drop 8 of 16 u16 values
        with pytest.raises(FormatError):
            read_raw_container(path)

    @pytest.mark.parametrize("side", [-2, 0])
    def test_nonpositive_dimensions_rejected(self, tmp_path, side):
        header = json.dumps(
            {"width": side, "height": side, "cfa": "RGGB", "black_level": 0, "white_level": 10, "exposure_ratio": 1.0}
        ).encode("utf-8")
        path = tmp_path / "neg.rraw"
        path.write_bytes(b"RRAW" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_raw_container(path)

    def test_xtrans_width_10_reads_but_fails_pack(self, tmp_path):
        raw = _raw(np.zeros((9, 10), dtype=np.uint16), cfa="XTRANS", white=10)
        path = tmp_path / "x.rraw"
        write_raw_container(raw, path)
        back = read_raw_container(path)
        with pytest.raises(ConfigError):
            pack(back)

    def test_invalid_levels_rejected(self):
        with pytest.raises(ConfigError):
            _raw(np.zeros((2, 2), dtype=np.uint16), black=50, white=50)


class TestPpm:
    def test_black_and_white_bytes(self, tmp_path):
        path = tmp_path / "z.ppm"
        write_ppm(np.zeros((3, 1, 1)), path)
        assert path.read_bytes().endswith(b"\x00\x00\x00")
        write_ppm(np.ones((3, 1, 1)), path)
        assert path.read_bytes().endswith(b"\xff\xff\xff")

    def test_half_rounds_up(self, tmp_path):
        path = tmp_path / "h.ppm"
        write_ppm(np.full((3, 1, 1), 0.5), path)
        assert path.read_bytes().endswith(bytes([128, 128, 128]))

    def test_out_of_range_clipped_and_counted(self, tmp_path):
        path = tmp_path / "c.ppm"
        img = np.zeros((3, 1, 2))
        img[0, 0, 0] = -0.5
        img[1, 0, 1] = 1.5
        clipped = write_ppm(img, path)
        assert clipped == 2
        data = path.read_bytes()
        assert data[-6] == 0 and data[-2] == 255

    def test_roundtrip_on_8bit_grid(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (3, 5, 7)).astype(np.float64) / 255.0
        path = tmp_path / "r.ppm"
        write_ppm(img, path)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_header_format(self, tmp_path):
        path = tmp_path / "f.ppm"
        write_ppm(np.zeros((3, 2, 4)), path)
        assert path.read_bytes().startswith(b"P6\n4 2\n255\n")


def _float64_ppm(rgb):
    """The whole-image formula write_ppm bands: (clipped count, file bytes)."""
    rgb = np.asarray(rgb, dtype=np.float64)
    clipped = int(((rgb < 0.0) | (rgb > 1.0)).sum())
    bytes8 = np.floor(255.0 * np.clip(rgb, 0.0, 1.0) + 0.5).astype(np.uint8)
    return clipped, f"P6\n{rgb.shape[2]} {rgb.shape[1]}\n255\n".encode("ascii") + bytes8.transpose(1, 2, 0).tobytes()


class TestPpmBands:
    @pytest.mark.parametrize("chunk_elems", [None, 7 * 3 * 301], ids=["default", "7-rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_and_count_equal_the_whole_image_formula(self, tmp_path, dtype, chunk_elems, monkeypatch):
        if chunk_elems:
            monkeypatch.setattr(T, "_CHUNK_ELEMS", chunk_elems)
            assert len(T._l_chunks((300, 3 * 301))) == 42
        rng = np.random.default_rng(4)
        img = rng.uniform(-0.5, 1.5, (3, 300, 301))
        # the quantization's rounding edges: exact k/255 and k/255 +- 0.5/255
        k = rng.integers(0, 256, (3, 90, 301))
        img[:, :30], img[:, 30:60], img[:, 60:90] = k[:, :30] / 255, (k[:, 30:60] + 0.5) / 255, (k[:, 60:] - 0.5) / 255
        img[:, 90, :4] = [0.0, -0.0, 1.0, -1e-300]
        img = img.astype(dtype)
        kept = img.copy()
        path = tmp_path / "b.ppm"
        clipped = write_ppm(img, path)
        assert type(clipped) is int
        assert (clipped, path.read_bytes()) == _float64_ppm(kept)
        assert img.tobytes() == kept.tobytes()

    def test_transient_is_one_band(self, tmp_path):
        img = np.random.default_rng(5).uniform(-0.1, 1.1, (3, 1024, 1024)).astype(np.float32)
        band = max(s.stop - s.start for s in T._l_chunks((1024, 3 * 1024))) * 3 * 1024
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            write_ppm(img, tmp_path / "t.ppm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        # the band's float64 copy, its uint8 copy and its interleaved bytes,
        # plus the header and the file object's write buffer
        assert peak - before <= 10 * band + 64 * 1024, f"{(peak - before) / (8 * band):.2f} float64 bands"
