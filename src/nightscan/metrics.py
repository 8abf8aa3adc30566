"""Image quality metrics (plain numpy, independent of the autodiff engine)."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a, b) -> float:
    """10*log10(1 / MSE) for images in [0, 1]; returns math.inf when they are identical."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"psnr shapes differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    coords = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    g /= g.sum()
    return np.outer(g, g)


def _filter_valid(img, window):
    k = window.shape[0]
    patches = np.lib.stride_tricks.sliding_window_view(img, (k, k))
    return np.tensordot(patches, window, axes=([2, 3], [0, 1]))


def ssim(a, b) -> float:
    """Mean structural similarity of images in [0, 1] with the standard 11x11
    Gaussian window.

    Accepts (H, W) or (C, H, W); channels are averaged.  Spatial dims must
    be at least the window size.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"ssim shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.ndim != 3:
        raise DimensionError(f"ssim expects (H, W) or (C, H, W), got {a.shape}")
    if min(a.shape[1], a.shape[2]) < SSIM_WINDOW:
        raise DimensionError(f"ssim needs spatial dims >= {SSIM_WINDOW}, got {a.shape}")

    window = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    scores = []
    for x, y in zip(a, b):
        mu_x = _filter_valid(x, window)
        mu_y = _filter_valid(y, window)
        xx = _filter_valid(x * x, window) - mu_x * mu_x
        yy = _filter_valid(y * y, window) - mu_y * mu_y
        xy = _filter_valid(x * y, window) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
        scores.append(float(np.mean(num / den)))
    return float(np.mean(scores))
