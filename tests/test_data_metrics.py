import math

import numpy as np
import pytest

from nightscan.data import (
    SyntheticDataset,
    cfa_pattern,
    flip_arrays,
    gen_synthetic,
    load_dataset,
    mosaic_from_rgb,
    write_dataset,
)
from nightscan.errors import ConfigError, DimensionError
from nightscan.metrics import SSIM_WINDOW, psnr, ssim
from nightscan.rawio import pack, pack_mosaic


class TestPsnr:
    def test_identical_images_give_inf(self):
        img = np.random.default_rng(0).uniform(0, 1, (3, 8, 8))
        assert psnr(img, img) == math.inf

    def test_closed_form_20db(self):
        a = np.zeros(100)
        b = np.full(100, 0.1)  # MSE = 0.01, max = 1
        assert abs(psnr(a, b) - 20.0) < 1e-9

    def test_monotone_decreasing_in_noise(self):
        rng = np.random.default_rng(1)
        clean = rng.uniform(0.2, 0.8, (3, 64, 64))
        values = []
        for sigma in (0.01, 0.02, 0.05):
            noisy = clean + np.random.default_rng(7).standard_normal(clean.shape) * sigma
            values.append(psnr(np.clip(noisy, 0, 1), clean))
        assert values[0] > values[1] > values[2]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            psnr(np.zeros(3), np.zeros(4))


class TestSsim:
    def test_identical_images_give_one(self):
        img = np.random.default_rng(2).uniform(0, 1, (3, 16, 16))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_noise_lowers_score(self):
        rng = np.random.default_rng(4)
        clean = rng.uniform(0.3, 0.7, (16, 16))
        noisy = np.clip(clean + rng.standard_normal((16, 16)) * 0.2, 0, 1)
        assert ssim(clean, noisy) < 0.95

    def test_too_small_image_rejected(self):
        with pytest.raises(DimensionError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


class TestMosaic:
    def test_bayer_sites(self):
        rgb = np.random.default_rng(5).uniform(0, 1, (3, 4, 4))
        mosaic = mosaic_from_rgb(rgb, "RGGB")
        assert mosaic[0, 0] == rgb[0, 0, 0]  # R
        assert mosaic[0, 1] == rgb[1, 0, 1]  # G
        assert mosaic[1, 0] == rgb[1, 1, 0]  # G
        assert mosaic[1, 1] == rgb[2, 1, 1]  # B

    def test_xtrans_pattern_properties(self):
        pattern = cfa_pattern("XTRANS")
        assert pattern.shape == (6, 6)
        # standard X-Trans census: 20 green, 8 red, 8 blue per period
        counts = np.bincount(pattern.ravel(), minlength=3)
        assert counts.tolist() == [8, 20, 8]
        # every row and column carries all three colors
        for i in range(6):
            assert set(pattern[i]) == {0, 1, 2}
            assert set(pattern[:, i]) == {0, 1, 2}


class TestGenSynthetic:
    def test_noiseless_unit_ratio_packs_to_ground_truth(self):
        ds = gen_synthetic(count=2, size=16, seed=3, ratio=1.0, sigma_read=0.0)
        for sample in ds.samples:
            np.testing.assert_array_equal(pack(sample.raw), sample.clean_packed)
        assert ds.baseline_psnr == math.inf

    def test_clean_mosaic_matches_rgb_at_sites(self):
        ds = gen_synthetic(count=1, size=16, seed=4)
        s = ds.samples[0]
        np.testing.assert_array_equal(
            s.clean_packed, pack_mosaic(mosaic_from_rgb(s.clean_rgb, "RGGB"), "RGGB")
        )

    def test_same_seed_gives_byte_identical_dataset(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_dataset(gen_synthetic(count=3, size=16, seed=8), d1)
        write_dataset(gen_synthetic(count=3, size=16, seed=8), d2)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_different_seed_changes_content(self, tmp_path):
        a = gen_synthetic(count=1, size=16, seed=1)
        b = gen_synthetic(count=1, size=16, seed=2)
        assert np.abs(a.samples[0].clean_rgb - b.samples[0].clean_rgb).max() > 0

    def test_baseline_psnr_recorded_and_plausible(self):
        ds = gen_synthetic(count=4, size=32, seed=11, ratio=100.0, sigma_read=0.02)
        assert 10.0 < ds.baseline_psnr < 30.0

    def test_more_read_noise_lowers_baseline(self):
        values = [
            gen_synthetic(count=2, size=32, seed=5, ratio=100.0, sigma_read=s).baseline_psnr
            for s in (0.01, 0.02, 0.05)
        ]
        assert values[0] > values[1] > values[2]

    def test_write_then_load_roundtrip(self, tmp_path):
        ds = gen_synthetic(count=2, size=16, seed=6)
        write_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert isinstance(back, SyntheticDataset)
        assert back.baseline_psnr == pytest.approx(ds.baseline_psnr)
        for s1, s2 in zip(ds.samples, back.samples):
            np.testing.assert_array_equal(s1.clean_rgb, s2.clean_rgb)
            np.testing.assert_array_equal(s1.clean_packed, s2.clean_packed)
            np.testing.assert_array_equal(s1.raw.plane, s2.raw.plane)

    def test_xtrans_generation(self):
        ds = gen_synthetic(count=1, size=12, seed=7, cfa="XTRANS")
        assert ds.samples[0].clean_packed.shape == (9, 4, 4)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            gen_synthetic(count=1, size=15, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(count=1, size=15, seed=0, cfa="XTRANS")

    @pytest.mark.parametrize("size,cfa", [(8, "RGGB"), (10, "RGGB"), (6, "XTRANS")])
    def test_size_below_the_ssim_window_rejected(self, size, cfa):
        # no command can train on or evaluate such images
        with pytest.raises(ConfigError, match=f"at least {SSIM_WINDOW}"):
            gen_synthetic(count=1, size=size, seed=0, cfa=cfa)

    @pytest.mark.parametrize(
        "over",
        [
            {"count": 0},
            {"seed": -3},
            {"ratio": 0.0},
            {"ratio": math.nan},
            {"ratio": math.inf},
            {"sigma_read": math.nan},
            {"sigma_read": -0.01},
            {"cfa": "GRBG"},
        ],
        ids=["count", "seed", "zero-ratio", "nan-ratio", "inf-ratio", "nan-sigma", "negative-sigma", "cfa"],
    )
    def test_unusable_settings_rejected(self, over):
        with pytest.raises(ConfigError):
            gen_synthetic(**{"count": 1, "size": 8, "seed": 0, **over})


class TestFlips:
    @pytest.mark.parametrize("flip_h,flip_v", [(True, False), (False, True), (True, True)])
    def test_flip_transforms_input_and_targets_coherently(self, flip_h, flip_v):
        ds = gen_synthetic(count=1, size=16, seed=9)
        s = ds.samples[0]
        packed_in = pack(s.raw)
        fl_in, fl_gt, fl_rgb = flip_arrays(packed_in, s.clean_packed, s.clean_rgb, flip_h, flip_v)

        rgb_ref = s.clean_rgb
        if flip_h:
            rgb_ref = rgb_ref[:, :, ::-1]
        if flip_v:
            rgb_ref = rgb_ref[:, ::-1, :]
        np.testing.assert_array_equal(fl_rgb, rgb_ref)
        # channel color identity preserved; input and packed target get the
        # same spatial transform, so their residual relationship is intact
        for c in range(4):
            np.testing.assert_array_equal(np.sort(fl_gt[c].ravel()), np.sort(s.clean_packed[c].ravel()))
        np.testing.assert_array_equal(fl_in - fl_gt, flip_arrays(
            packed_in - s.clean_packed, s.clean_packed * 0, s.clean_rgb, flip_h, flip_v)[0])

    def test_double_flip_is_identity(self):
        ds = gen_synthetic(count=1, size=16, seed=10)
        s = ds.samples[0]
        packed_in = pack(s.raw)
        once = flip_arrays(packed_in, s.clean_packed, s.clean_rgb, True, True)
        twice = flip_arrays(*once, True, True)
        np.testing.assert_array_equal(twice[0], packed_in)
        np.testing.assert_array_equal(twice[1], s.clean_packed)
        np.testing.assert_array_equal(twice[2], s.clean_rgb)
