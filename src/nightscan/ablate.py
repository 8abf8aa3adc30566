"""Toy-scale ablation harness.

Each axis retrains a small configuration per variant on the same fixed-seed
synthetic dataset and reports PSNR/SSIM plus wall time.  Metric values are
informational output, not assertions.
"""

from __future__ import annotations

import os
from dataclasses import replace

from .data import gen_synthetic
from .errors import ConfigError
from .model import NetworkConfig
from .train import LossConfig, TrainConfig, metrics_row, train, write_metrics_csv

AXES = ("scan_directions", "rdm_on_off", "fusion", "loss", "enhance_stage")

# small enough that a full axis runs in seconds on one core, but with enough
# scan work that direction count is the dominant wall-time factor
TOY_DATA = {"count": 3, "size": 24, "ratio": 100.0, "sigma_read": 0.02}
TOY_NET = NetworkConfig(base_width=16, depth=2, blocks_per_level=1, state_dim=8)
TOY_TRAIN = TrainConfig(lr_init=1e-3, lr_final=1e-4, steps=15, augment=False)


def _variants(axis):
    if axis == "scan_directions":
        return [(f"dir{k}", {"scan_directions": k}, {}) for k in (1, 2, 4, 8)]
    if axis == "rdm_on_off":
        return [("rdm_on", {"use_retinex": True}, {}), ("rdm_off", {"use_retinex": False}, {})]
    if axis == "fusion":
        return [("daf", {"fusion": "daf"}, {}), ("concat1x1", {"fusion": "concat1x1"}, {})]
    if axis == "enhance_stage":
        return [
            ("encoding", {"enhance_stage": "encoding"}, {}),
            ("decoding", {"enhance_stage": "decoding"}, {}),
        ]
    if axis == "loss":
        return [
            ("L1-L1", {}, {"raw_norm": "l1", "srgb_norm": "l1"}),
            ("L2-L1", {}, {"raw_norm": "l2", "srgb_norm": "l1"}),
            ("L1-L2", {}, {"raw_norm": "l1", "srgb_norm": "l2"}),
            ("none-L1", {}, {"alpha_raw": 0.0, "srgb_norm": "l1"}),
            ("none-L2", {}, {"alpha_raw": 0.0, "srgb_norm": "l2"}),
        ]
    raise ConfigError(f"unknown ablation axis {axis!r}; expected one of {AXES}")


def run_ablation(axis, seed=7, out_dir=None):
    """Train every variant of one axis; returns rows of
    {variant, psnr, ssim, wall_ms, seed}.

    The first variant trains once untimed before the timed runs, so that
    the process's warm-up (with a multi-threaded BLAS pool, the first
    second or so of training runs several times slower) lands in no row.
    """
    variants = _variants(axis)
    dataset = gen_synthetic(seed=seed, **TOY_DATA)

    def run(net_over, loss_over):
        return train(dataset, replace(TOY_NET, **net_over), replace(TOY_TRAIN, seed=seed), LossConfig(**loss_over))

    run(*variants[0][1:])
    rows = []
    for name, net_over, loss_over in variants:
        result = run(net_over, loss_over)
        rows.append(metrics_row(name, result.metrics, result.wall_ms, seed))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(os.path.join(out_dir, f"ablation_{axis}.csv"), rows)
    return rows
