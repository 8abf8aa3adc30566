"""Synthetic low-light RAW dataset generation and loading.

Each sample is a procedurally drawn clean RGB image (smooth gradient
background plus rectangles and disks, lightly blurred, quantized to the
8-bit grid), its CFA mosaic, and a noisy low-exposure RAW frame built by
darkening the mosaic by 1/ratio, adding read plus signal-proportional shot
noise, and quantizing to u16 sensor counts.

Noise is parameterized output-referred: after exposure scaling the read
noise floor has standard deviation ``sigma_read`` and the shot term has
variance ``(SHOT_SCALE * sigma_read)^2 * signal``.  In the dark (stored)
domain the variance is therefore

    (sigma_read / ratio)^2 + (SHOT_SCALE * sigma_read)^2 * dark / ratio.

The sensor levels are fixed at black=512, white=16322; the span
15810 = 62 * 255 makes u16 quantization exact for 8-bit clean values, so a
sigma=0, ratio=1 frame packs back to the ground-truth mosaic bit for bit.

On disk a dataset is one RAW container plus one PPM ground truth per
sample and an index.json carrying the generation parameters and the mean
noisy-versus-clean mosaic PSNR (the baseline that toy training must beat).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError
from .metrics import SSIM_WINDOW, psnr
from .rawio import (
    CFA_BLOCK,
    RawImage,
    _fits,
    dataclass_from_dict,
    pack,
    pack_mosaic,
    read_ppm,
    read_raw_container,
    to_counts,
    write_ppm,
    write_raw_container,
)

BLACK_LEVEL = 512
WHITE_LEVEL = 16322  # black + 62 * 255
SHOT_SCALE = 8.0

# color index per CFA site: 0=R, 1=G, 2=B
BAYER_PATTERN = np.array([[0, 1], [1, 2]], dtype=np.int64)
XTRANS_PATTERN = np.array(
    [
        [1, 2, 1, 1, 0, 1],
        [0, 1, 0, 2, 1, 2],
        [1, 2, 1, 1, 0, 1],
        [1, 0, 1, 1, 2, 1],
        [2, 1, 2, 0, 1, 0],
        [1, 0, 1, 1, 2, 1],
    ],
    dtype=np.int64,
)


@dataclass
class SyntheticSample:
    clean_rgb: np.ndarray     # (3, H, W), values on the 8-bit grid
    clean_packed: np.ndarray  # packed clean mosaic, [0, 1]
    raw: RawImage             # noisy low-exposure frame


@dataclass
class SyntheticDataset:
    """A dataset and its generation parameters.  index.json holds every
    field but ``samples`` under its name, in this order, after ``cfa`` and
    ``count``, then the sample file names."""

    samples: list
    cfa: str
    size: int
    seed: int
    ratio: float
    sigma_read: float
    shot_scale: float
    black_level: int
    white_level: int
    baseline_psnr: float


def cfa_pattern(cfa: str) -> np.ndarray:
    if cfa == "RGGB":
        return BAYER_PATTERN
    if cfa == "XTRANS":
        return XTRANS_PATTERN
    raise ConfigError(f"unknown CFA {cfa!r}")


def mosaic_from_rgb(rgb: np.ndarray, cfa: str) -> np.ndarray:
    """Sample one color per pixel according to the CFA layout."""
    pattern = cfa_pattern(cfa)
    h, w = rgb.shape[1], rgb.shape[2]
    ph, pw = pattern.shape
    idx = np.tile(pattern, (math.ceil(h / ph), math.ceil(w / pw)))[:h, :w]
    return np.take_along_axis(rgb, idx[None], axis=0)[0]


def _bilinear_upsample(coarse, h, w):
    _, ch, cw = coarse.shape
    yi = np.linspace(0.0, ch - 1.0, h)
    xi = np.linspace(0.0, cw - 1.0, w)
    y0 = np.floor(yi).astype(int)
    x0 = np.floor(xi).astype(int)
    y1 = np.minimum(y0 + 1, ch - 1)
    x1 = np.minimum(x0 + 1, cw - 1)
    wy = (yi - y0)[None, :, None]
    wx = (xi - x0)[None, None, :]
    top = coarse[:, y0][:, :, x0] * (1 - wx) + coarse[:, y0][:, :, x1] * wx
    bot = coarse[:, y1][:, :, x0] * (1 - wx) + coarse[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def _box_blur(img):
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
    acc = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            acc += padded[:, dy:dy + img.shape[1], dx:dx + img.shape[2]]
    return acc / 9.0


def _draw_clean_rgb(rng, size):
    img = _bilinear_upsample(rng.uniform(0.2, 0.7, size=(3, 4, 4)), size, size)
    for _ in range(rng.integers(1, 3)):
        color = rng.uniform(0.1, 0.9, size=3)
        x0, y0 = rng.integers(0, size - 4, size=2)
        x1 = int(x0 + rng.integers(3, max(4, size // 3)))
        y1 = int(y0 + rng.integers(3, max(4, size // 3)))
        region = img[:, y0:min(y1, size), x0:min(x1, size)]
        region += 0.6 * (color[:, None, None] - region)
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(rng.integers(1, 3)):
        color = rng.uniform(0.1, 0.9, size=3)
        cy, cx = rng.integers(2, size - 2, size=2)
        r = int(rng.integers(2, max(3, size // 5)))
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        img[:, mask] += 0.6 * (color[:, None] - img[:, mask])
    img = _box_blur(_box_blur(_box_blur(img)))
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def gen_synthetic(count, size, seed, cfa="RGGB", ratio=100.0, sigma_read=0.02) -> SyntheticDataset:
    period = cfa_pattern(cfa).shape[0]
    if size % period:
        raise ConfigError(f"size must be divisible by the {cfa} pattern period {period}")
    if size < SSIM_WINDOW:  # no command can train on or evaluate a smaller image
        raise ConfigError(f"size must be at least {SSIM_WINDOW}, got {size}")
    if count < 1 or seed < 0:
        raise ConfigError(f"count must be >= 1 and seed >= 0, got count {count}, seed {seed}")
    if not (math.isfinite(ratio) and ratio > 0):
        raise ConfigError(f"ratio must be finite and positive, got {ratio}")
    if not (math.isfinite(sigma_read) and sigma_read >= 0):
        raise ConfigError(f"sigma_read must be finite and >= 0, got {sigma_read}")

    samples = []
    baseline = []
    for i in range(count):
        rng = np.random.default_rng([int(seed), i])
        clean_rgb = _draw_clean_rgb(rng, size)
        clean_mosaic = mosaic_from_rgb(clean_rgb, cfa)
        clean_packed = pack_mosaic(clean_mosaic, cfa)

        dark = clean_mosaic / ratio
        var = (sigma_read / ratio) ** 2 + (SHOT_SCALE * sigma_read) ** 2 * dark / ratio
        noisy = dark + rng.standard_normal(dark.shape) * np.sqrt(var)
        raw = RawImage(
            width=size,
            height=size,
            cfa=cfa,
            black_level=BLACK_LEVEL,
            white_level=WHITE_LEVEL,
            exposure_ratio=float(ratio),
            plane=to_counts(noisy, BLACK_LEVEL, WHITE_LEVEL),
        )
        samples.append(SyntheticSample(clean_rgb=clean_rgb, clean_packed=clean_packed, raw=raw))
        baseline.append(psnr(pack(raw), clean_packed))

    return SyntheticDataset(
        samples=samples,
        cfa=cfa,
        size=size,
        seed=int(seed),
        ratio=float(ratio),
        sigma_read=float(sigma_read),
        shot_scale=SHOT_SCALE,
        black_level=BLACK_LEVEL,
        white_level=WHITE_LEVEL,
        baseline_psnr=float(np.mean(baseline)),
    )


def write_dataset(ds: SyntheticDataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, sample in enumerate(ds.samples):
        raw_name = f"sample_{i:04d}.rraw"
        gt_name = f"sample_{i:04d}_gt.ppm"
        write_raw_container(sample.raw, os.path.join(out_dir, raw_name))
        write_ppm(sample.clean_rgb, os.path.join(out_dir, gt_name))
        entries.append({"raw": raw_name, "gt": gt_name})
    # "cfa" keeps its place when the fields fill in
    index = {"cfa": ds.cfa, "count": len(ds.samples)}
    index.update((f.name, getattr(ds, f.name)) for f in fields(ds) if f.name != "samples")
    index["samples"] = entries
    with open(os.path.join(out_dir, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1)
        fh.write("\n")


def load_dataset(data_dir) -> SyntheticDataset:
    index_path = os.path.join(data_dir, "index.json")
    try:
        with open(index_path, "r", encoding="utf-8") as fh:
            index = json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"no dataset index at {index_path}")
    except ValueError as exc:
        raise FormatError(f"malformed dataset index: {exc}") from exc
    label = f"dataset index {index_path}"
    if not isinstance(index, dict):
        raise FormatError(f"{label} must be a JSON object, got {type(index).__name__}")
    count, entries = index.pop("count", None), index.pop("samples", None)
    ds = dataclass_from_dict(SyntheticDataset, index, label, FormatError, samples=[])
    try:
        files = [(os.path.join(data_dir, e["raw"]), os.path.join(data_dir, e["gt"])) for e in entries]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{label} has a malformed samples list: {exc!r}") from exc
    if ds.cfa not in CFA_BLOCK:
        raise FormatError(f"{label} names unknown CFA {ds.cfa!r}")
    if not (_fits("int", count) and count == len(files)):
        raise FormatError(f"{label} has count {count!r} but lists {len(files)} samples")
    size = ds.size
    for raw_path, gt_path in files:
        raw = read_raw_container(raw_path)
        clean_rgb = read_ppm(gt_path)
        if (raw.width, raw.height, raw.cfa, clean_rgb.shape) != (size, size, ds.cfa, (3, size, size)):
            raise FormatError(
                f"sample {raw_path} is a {raw.width}x{raw.height} {raw.cfa} RAW with a {clean_rgb.shape[2]}x{clean_rgb.shape[1]}"
                f" ground truth, but the {label} says {size}x{size} {ds.cfa}"
            )
        clean_packed = pack_mosaic(mosaic_from_rgb(clean_rgb, ds.cfa), ds.cfa)
        ds.samples.append(SyntheticSample(clean_rgb=clean_rgb, clean_packed=clean_packed, raw=raw))
    return ds


def flip_arrays(packed_in, clean_packed, clean_rgb, flip_h, flip_v):
    """Horizontal/vertical flip augmentation on packed planes and targets.

    Channels flip spatially in place, keeping their color identity; input
    and packed target stay mutually consistent, and the RGB target carries
    the usual sub-pixel intra-block mirror offset (a mosaic flip shifts the
    CFA phase, so an exact channel relabeling does not exist)."""
    if flip_h:
        packed_in = packed_in[:, :, ::-1]
        clean_packed = clean_packed[:, :, ::-1]
        clean_rgb = clean_rgb[:, :, ::-1]
    if flip_v:
        packed_in = packed_in[:, ::-1, :]
        clean_packed = clean_packed[:, ::-1, :]
        clean_rgb = clean_rgb[:, ::-1, :]
    return np.ascontiguousarray(packed_in), np.ascontiguousarray(clean_packed), np.ascontiguousarray(clean_rgb)
